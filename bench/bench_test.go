package main

import (
	"encoding/json"
	"io"
	"math/rand/v2"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"vtrain/internal/clusterdse"
	"vtrain/internal/core"
	"vtrain/internal/taskgraph"
)

// contendedFixture is the root package's pinned SHA-256 of the contended
// cluster sweep (BenchmarkClusterSweepContention).
const contendedFixture = "be05f8452f7def91f3e9cb38e6e0a78a1d5481c1c7d061569f5abefa0fad1761"

// TestQuickSmoke runs every workload untraced and traced at the smallest
// size — one operation per sweep workload, about 300 server requests — and
// requires correct output and every metric of the run's kind.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads() {
		for _, tr := range []*tracer{nil, newTracer()} {
			cfg := config{seed: 3, seconds: 100 * time.Millisecond, setups: 1, dir: t.TempDir()}
			res, _ := measure(w, cfg, tr, io.Discard)
			defs := endToEnd
			if tr != nil {
				defs = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed", w.name, tr != nil, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, tr != nil, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", w.name, d.name, m, d.unit)
				}
				if tr == nil && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if tr != nil && res.Metrics["trace.coverage_pct"].Value < minCoveragePct {
				t.Errorf("%s: traced coverage %v%%", w.name, res.Metrics["trace.coverage_pct"].Value)
			}
		}
	}
}

// TestSeedSchedules pins what the seed controls: the same seed gives the
// same inputs, another seed reorders every sweep axis and redraws the
// server's arrivals and bodies, and no seed changes what is swept.
func TestSeedSchedules(t *testing.T) {
	rng := func(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, axisStream)) }
	a, b, c := dseSpace(rng(1)), dseSpace(rng(1)), dseSpace(rng(2))
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed gave two plan-sweep spaces")
	}
	if reflect.DeepEqual(a.DataWidths, c.DataWidths) {
		t.Error("seeds 1 and 2 gave the same data-width order")
	}
	sorted := func(xs []int) []int { s := slices.Clone(xs); slices.Sort(s); return s }
	if !slices.Equal(sorted(a.DataWidths), sorted(c.DataWidths)) || !slices.Equal(sorted(a.TensorWidths), sorted(c.TensorWidths)) {
		t.Error("seeds changed the swept values, not just their order")
	}
	r := rng(1)
	if first, second := dseSpace(r), dseSpace(r); reflect.DeepEqual(first, second) {
		t.Error("consecutive operations of one run swept one order")
	}
	ca, cb, cc := clusterSpace(rng(1), sweepSpecs[3]), clusterSpace(rng(1), sweepSpecs[3]), clusterSpace(rng(2), sweepSpecs[3])
	if !reflect.DeepEqual(ca, cb) || reflect.DeepEqual(ca.Offerings, cc.Offerings) || len(ca.Offerings) != 16 {
		t.Error("cluster spaces do not follow the seed")
	}

	draw := func(seed uint64) []arrival {
		return arrivals(rand.New(rand.NewPCG(seed, serverStream)), openRate, 10*time.Second)
	}
	s1, s1again, s2 := draw(1), draw(1), draw(2)
	if !reflect.DeepEqual(s1, s1again) || reflect.DeepEqual(s1[:100], s2[:100]) {
		t.Error("server arrivals do not follow the seed")
	}
	if rate := float64(len(s1)) / 10; rate < 0.97*openRate || rate > 1.03*openRate {
		t.Errorf("arrival rate %.0f/s, want about %v/s", rate, openRate)
	}
	counts := make([]int, len(serverBodies))
	for _, r := range s1 {
		counts[r.body]++
	}
	for i, b := range serverBodies {
		if share := float64(counts[i]) / float64(len(s1)); share < b.weight-0.02 || share > b.weight+0.02 {
			t.Errorf("body %d drawn %.3f of the time, want %.2f", i, share, b.weight)
		}
	}
}

// TestContendedDigestFixture checks the digest function against the root
// package's contended-sweep fixture, on a seed whose axis order differs
// from the unshuffled space the fixture was pinned on.
func TestContendedDigestFixture(t *testing.T) {
	if d, err := pinnedDigest("cluster-contended"); err != nil || d != contendedFixture {
		t.Fatalf("pinned contended digest %q (%v), want the root fixture %s", d, err, contendedFixture)
	}
	cold, _ := pinnedDigest("dse-cold")
	warm, _ := pinnedDigest("dse-warm-disk")
	if cold != warm || cold == "" {
		t.Errorf("dse-cold pins %q and dse-warm-disk %q; the disk tier must not change results", cold, warm)
	}
	space := clusterSpace(rand.New(rand.NewPCG(7, axisStream)), sweepSpecs[3])
	sim, err := clusterdse.NewSimulator(space, core.WithFidelity(taskgraph.OperatorLevel), core.WithCacheSize(0))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := clusterdse.Explore(sim, clusterModel, space)
	if err != nil {
		t.Fatal(err)
	}
	if d := pointsDigest(clusterRows(pts)); d != contendedFixture {
		t.Errorf("contended sweep digest %s, want %s", d, contendedFixture)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and metrics in step
// with what the benchmark runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark reports %d", len(listed), kind, len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd)
	same("per-layer", spec.PerLayer, perLayer)
}
