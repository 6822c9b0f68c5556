package vtrain_bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"vtrain/internal/clusterdse"
	"vtrain/internal/core"
	"vtrain/internal/dse"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/resilience"
	"vtrain/internal/taskgraph"
)

// clusterSweepSpace is the BenchmarkClusterSweep search space: the full
// hardware catalog (4 offerings spanning 3 GPU generations) crossed with
// every interconnect tier, at four cluster sizes, each exploring a
// realistic plan grid.
// Hardware candidates multiply the design points but, because task-graph
// structure is hardware-invariant, add no lowerings — the redundancy the
// shared structural cache exploits.
func clusterSweepSpace() clusterdse.Space {
	var offerings []hw.Offering
	for _, o := range hw.Catalog() {
		offerings = append(offerings, o)
		for _, ic := range hw.Interconnects() {
			if ic.Name != o.Interconnect.Name {
				offerings = append(offerings, o.WithInterconnect(ic))
			}
		}
	}
	return clusterdse.Space{
		Offerings:  offerings,
		NodeCounts: []int{4, 8, 16, 32},
		Plans: dse.Space{
			TensorWidths:    []int{1, 2, 4, 8},
			DataWidths:      []int{1, 2, 4, 8, 16, 32, 64},
			PipelineDepths:  []int{1, 2, 4, 8},
			MicroBatches:    []int{1, 2, 4},
			GlobalBatch:     512,
			GradientBuckets: 2,
			MaxMicroBatches: 64,
		},
		TotalTokens: 300e9,
	}
}

// TestSweepRankingsAreStrict checks that no two points of
// BenchmarkClusterSweep's or BenchmarkDSESweep's space compare equal under
// Better: offering names are unique (WithInterconnect appends "+ic"), and
// so are a space's (t, d, p, m) tuples. Any correct sort then returns the
// same ranking, so Explore's is checked as strictly ascending.
func TestSweepRankingsAreStrict(t *testing.T) {
	space := clusterSweepSpace()
	sim, err := clusterdse.NewSimulator(space, core.WithFidelity(taskgraph.OperatorLevel))
	if err != nil {
		t.Fatal(err)
	}
	points, err := clusterdse.Explore(sim, model.Megatron18_4B(), space)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if a, b := points[i-1], points[i]; !a.Better(b) || b.Better(a) {
			t.Fatalf("cluster points %d and %d are not strictly ranked: %s %d nodes %s, %s %d nodes %s",
				i-1, i, a.Offering.Name, a.Nodes, a.Plan, b.Offering.Name, b.Nodes, b.Plan)
		}
	}
	dsim, err := core.New(hw.PaperCluster(256), core.WithFidelity(taskgraph.OperatorLevel))
	if err != nil {
		t.Fatal(err)
	}
	dpoints, err := dse.Explore(dsim, model.Megatron39_1B(), dseSweepSpace())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(dpoints); i++ {
		if a, b := dpoints[i-1], dpoints[i]; !a.Better(b) || b.Better(a) {
			t.Fatalf("DSE points %d and %d are not strictly ranked: %s, %s", i-1, i, a.Plan, b.Plan)
		}
	}
	if len(points) != 1068 || len(dpoints) != 563 {
		t.Fatalf("%d cluster and %d DSE points, want 1068 and 563", len(points), len(dpoints))
	}
}

// BenchmarkClusterSweep measures one cold joint cluster-design sweep end to
// end: a fresh simulator (empty caches, report cache disabled) ranking
// (GPU generation x node count x interconnect x plan) for Megatron 18.4B.
// One op = one whole sweep. The structural-cache metrics pin the
// hardware-invariance win: lowerings counts the graphs actually lowered,
// and must stay far below the design-point count because every hardware
// variant of a plan shape shares one structure.
func BenchmarkClusterSweep(b *testing.B) {
	m := model.Megatron18_4B()
	space := clusterSweepSpace()
	var (
		points []clusterdse.Point
		sim    *core.Simulator
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		sim, err = clusterdse.NewSimulator(space,
			core.WithFidelity(taskgraph.OperatorLevel), core.WithCacheSize(0))
		if err != nil {
			b.Fatal(err)
		}
		points, err = clusterdse.Explore(sim, m, space)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := sim.CacheStats()
	hitPct := 100 * float64(st.StructHits) / float64(max(st.StructHits+st.StructMisses, 1))
	b.ReportMetric(float64(len(points)), "design_points")
	b.ReportMetric(float64(st.StructMisses), "lowerings")
	b.ReportMetric(hitPct, "struct_hit_pct")
	b.ReportMetric(float64(st.BatchedPlans)/float64(max(st.BatchReplays, 1)), "batch_width")
	once("cluster-sweep", func() {
		front := clusterdse.ParetoFrontier(points)
		fmt.Printf("\nCluster-design sweep — Megatron 18.4B, 300B tokens, %d points, %d lowerings (%.1f%% hit):\n",
			len(points), st.StructMisses, hitPct)
		for _, p := range front {
			fmt.Printf("  $%7.2fM %7.2f days  %-14s %2d nodes %4d GPUs  %s\n",
				p.Training.TotalDollars/1e6, p.Training.Days,
				p.Offering.Name, p.Nodes, p.GPUs(), p.Plan)
		}
	})
	// The acceptance bar for the joint sweep: the hardware axes must ride
	// the structural cache, not re-lower per cluster. >= 90% hit rate means
	// >= 10 design points served per lowering.
	if hitPct < 90 {
		b.Fatalf("structural-cache hit rate %.1f%% (%d points, %d lowerings), want >= 90%%",
			hitPct, len(points), st.StructMisses)
	}
}

// BenchmarkClusterSweepResilient is BenchmarkClusterSweep with failure and
// checkpoint-restart pricing enabled (the clusterdse default). Resilience
// is a pure post-processing layer over each candidate's cost report, so
// the sweep must hit the identical structural-cache profile — same
// lowerings, same >= 90% bar — and essentially the same wall-clock as the
// ideal sweep; a drop here means goodput modeling leaked into the
// simulation path.
func BenchmarkClusterSweepResilient(b *testing.B) {
	m := model.Megatron18_4B()
	space := clusterSweepSpace()
	space.Resilience = &resilience.Options{}
	var (
		points []clusterdse.Point
		sim    *core.Simulator
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		sim, err = clusterdse.NewSimulator(space,
			core.WithFidelity(taskgraph.OperatorLevel), core.WithCacheSize(0))
		if err != nil {
			b.Fatal(err)
		}
		points, err = clusterdse.Explore(sim, m, space)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := sim.CacheStats()
	hitPct := 100 * float64(st.StructHits) / float64(max(st.StructHits+st.StructMisses, 1))
	b.ReportMetric(float64(len(points)), "design_points")
	b.ReportMetric(float64(st.StructMisses), "lowerings")
	b.ReportMetric(hitPct, "struct_hit_pct")
	if hitPct < 90 {
		b.Fatalf("structural-cache hit rate %.1f%% (%d points, %d lowerings), want >= 90%% — resilience must stay post-processing",
			hitPct, len(points), st.StructMisses)
	}
	for _, p := range points {
		if p.Resilience.GoodputFraction <= 0 || p.Resilience.GoodputFraction >= 1 {
			b.Fatalf("point %v: goodput %v outside (0,1)", p.Candidate, p.Resilience.GoodputFraction)
		}
	}
}

// contendedSweepDigest is the SHA-256 of the contended sweep's full point
// set (offering, cluster size, plan, and every Report/Training float at
// bit precision), pinned against the pre-ledger append-and-scan
// implementation. The sorted-array occupancy ledger is an exact
// reformulation of the interval-overlap count, so the digest must never
// move: a divergence means the ledger changed *what* is counted, not just
// how fast.
const contendedSweepDigest = "be05f8452f7def91f3e9cb38e6e0a78a1d5481c1c7d061569f5abefa0fad1761"

// sweepDigest collapses a sweep's ranked points into one order-sensitive
// hash, bit-exact over every derived float, for fixture pinning.
func sweepDigest(points []clusterdse.Point) string {
	h := sha256.New()
	bits := math.Float64bits
	for _, p := range points {
		fmt.Fprintf(h, "%s|%d|%v|%016x|%016x|%016x|%016x|%016x|%016x|%016x|%016x\n",
			p.Offering.Name, p.Nodes, p.Plan,
			bits(p.Report.IterTime), bits(p.Report.Utilization),
			bits(p.Report.HardwareFLOPs), bits(p.Report.ComputeSeconds),
			bits(p.Report.CommSeconds), bits(p.Report.BubbleFraction),
			bits(p.Training.TotalDollars), bits(p.Training.Days))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BenchmarkClusterSweepContention is BenchmarkClusterSweep with the
// topology-aware congestion fidelity level enabled. Contention binds at
// replay time, never into the lowered structure, so the contended sweep
// must hit the identical structural-cache profile as the ideal one — the
// same 38 lowerings over the full hardware grid and the same >= 90% bar.
// The contended report itself is pinned to the pre-ledger fixture digest,
// and the untimed tail enforces the perf bar (median contended wall-clock
// <= 6x the ideal sweep's over three in-process pairs) plus the knob-off
// equivalence lock, byte-identical to a sweep that never saw the knob —
// all enforced on every commit at full sweep scale.
func BenchmarkClusterSweepContention(b *testing.B) {
	m := model.Megatron18_4B()
	space := clusterSweepSpace()
	space.Contention = true
	var (
		points []clusterdse.Point
		sim    *core.Simulator
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		sim, err = clusterdse.NewSimulator(space,
			core.WithFidelity(taskgraph.OperatorLevel), core.WithCacheSize(0))
		if err != nil {
			b.Fatal(err)
		}
		points, err = clusterdse.Explore(sim, m, space)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := sim.CacheStats()
	hitPct := 100 * float64(st.StructHits) / float64(max(st.StructHits+st.StructMisses, 1))
	b.ReportMetric(float64(len(points)), "design_points")
	b.ReportMetric(float64(st.StructMisses), "lowerings")
	b.ReportMetric(hitPct, "struct_hit_pct")
	// Structure is contention-invariant: the congestion knob must not cost
	// a single extra lowering against the ideal sweep's pinned count.
	if st.StructMisses != 38 {
		b.Fatalf("contended sweep lowered %d graphs, want the ideal sweep's 38 — contention leaked into the structural key",
			st.StructMisses)
	}
	if hitPct < 90 {
		b.Fatalf("structural-cache hit rate %.1f%% (%d points, %d lowerings), want >= 90%%",
			hitPct, len(points), st.StructMisses)
	}
	// Correctness lock: the ledger rewrite must reproduce the append-and-scan
	// implementation's contended report bit for bit.
	if d := sweepDigest(points); d != contendedSweepDigest {
		b.Fatalf("contended sweep digest %s diverges from the pre-ledger fixture %s — the occupancy ledger changed contended results",
			d, contendedSweepDigest)
	}

	// Untimed tail. First the perf bar: three contended/ideal sweep pairs
	// timed alternately in this process — the median pair must hold the
	// contention tax to 6x (the append-and-scan implementation sat near
	// 85x). The median of three rides out one slow pair on a shared host.
	// Then the equivalence guard: with the knob off the sweep must be
	// byte-identical — points and cache counters — to one that predates it.
	sweep := func(s clusterdse.Space) ([]clusterdse.Point, core.CacheStats, time.Duration) {
		start := time.Now()
		sim, err := clusterdse.NewSimulator(s,
			core.WithFidelity(taskgraph.OperatorLevel), core.WithCacheSize(0))
		if err != nil {
			b.Fatal(err)
		}
		pts, err := clusterdse.Explore(sim, m, s)
		if err != nil {
			b.Fatal(err)
		}
		return pts, sim.CacheStats(), time.Since(start)
	}
	contSpace := clusterSweepSpace()
	contSpace.Contention = true
	offSpace := clusterSweepSpace()
	offSpace.Contention = false
	var (
		offPoints []clusterdse.Point
		offStats  core.CacheStats
		ratios    [3]float64
	)
	for i := range ratios {
		_, _, contElapsed := sweep(contSpace)
		var idealElapsed time.Duration
		offPoints, offStats, idealElapsed = sweep(offSpace)
		ratios[i] = float64(contElapsed) / float64(max(idealElapsed, 1))
	}
	slices.Sort(ratios[:])
	ratio := ratios[len(ratios)/2]
	b.ReportMetric(ratio, "contention_tax_x")
	if ratio > 6 {
		b.Fatalf("median contended/ideal sweep ratio %.1fx over pairs %.1f, want <= 6x",
			ratio, ratios)
	}
	defPoints, defStats, _ := sweep(clusterSweepSpace())
	if !reflect.DeepEqual(offPoints, defPoints) {
		b.Fatal("contention-off sweep is not byte-identical to the default sweep")
	}
	if offStats != defStats {
		b.Fatalf("contention-off cache stats diverge from default: %+v vs %+v", offStats, defStats)
	}
}
