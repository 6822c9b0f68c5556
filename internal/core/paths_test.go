package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/taskgraph"
)

// pathsInput is one FuzzSimulatePaths case: a small model, two clusters,
// a fidelity and contention level, and a sequence of plans, each valid on
// both clusters.
type pathsInput struct {
	m          model.Config
	a, b       hw.Cluster
	fid        taskgraph.Fidelity
	contention bool
	plans      []parallel.Plan
}

// decodePaths decodes data into a pathsInput. Byte 0 picks the model
// (bits 0-1 the layer count 2-8, bit 2 the width); byte 1 the fidelity
// (bit 0), contention (bit 1), cluster A's offering (bits 2-3), cluster
// B's as a different one (bits 4-5), and a blocking spine on both (bit 6).
// Each later pair of bytes is a plan: in the first, bits 0-1 pick t, bit 2
// d, bits 3-4 p, bit 5 the micro-batch size and bit 6 recomputation, and
// bit 7 repeats the plan the second byte indexes instead; in the second,
// bits 0-1 pick the micro-batch count, bit 2 the schedule, bits 3-4 the
// virtual stages and bits 5-6 the gradient buckets. Plans invalid on
// either cluster are dropped; at most 8 are kept.
func decodePaths(data []byte) pathsInput {
	var in pathsInput
	if len(data) < 2 {
		return in
	}
	hidden := 256 << (data[0] >> 2 & 1)
	in.m = model.Config{Name: "paths", Hidden: hidden, Layers: 2 * (1 + int(data[0]&3)), SeqLen: 128, Heads: hidden / 64, Vocab: 1024}
	in.fid = taskgraph.Fidelity(data[1] & 1)
	in.contention = data[1]&2 != 0
	cat := hw.Catalog()
	ia := int(data[1]>>2) & 3
	ib := (ia + 1 + int(data[1]>>4&3)%3) % len(cat)
	in.a, in.b = cat[ia].Cluster(2), cat[ib].Cluster(2)
	if data[1]&64 != 0 {
		in.a.NodesPerLeaf, in.a.Oversubscription = 1, 2
		in.b.NodesPerLeaf, in.b.Oversubscription = 1, 2
	}
	for i := 2; i+1 < len(data) && len(in.plans) < 8; i += 2 {
		p, q := data[i], data[i+1]
		if p&128 != 0 {
			if len(in.plans) > 0 {
				in.plans = append(in.plans, in.plans[int(q)%len(in.plans)])
			}
			continue
		}
		plan := parallel.Plan{
			Tensor:          1 << (p & 3 % 3),
			Data:            1 + int(p>>2&1),
			Pipeline:        1 << (p >> 3 & 3 % 3),
			MicroBatch:      1 + int(p>>5&1),
			Recompute:       p&64 != 0,
			Schedule:        parallel.Schedule(q >> 2 & 1),
			VirtualStages:   int(q>>3&3) % 3,
			GradientBuckets: int(q >> 5 & 3),
		}
		plan.GlobalBatch = plan.Data * plan.MicroBatch * (1 + int(q&3))
		if opgraph.Validate(in.m, plan, in.a) == nil && opgraph.Validate(in.m, plan, in.b) == nil {
			in.plans = append(in.plans, plan)
		}
	}
	return in
}

// fresh is a root with no report cache and a tree of its own: the oracle
// every path is checked against.
func fresh(c hw.Cluster, fid taskgraph.Fidelity, contention bool, opts ...Option) *Simulator {
	s, err := New(c, append([]Option{WithFidelity(fid), WithContention(contention), WithCacheSize(0)}, opts...)...)
	if err != nil {
		panic(err)
	}
	return s
}

// reportText renders every field of a report, Breakdown in sorted key
// order, with each float at the shortest precision that round-trips it:
// two reports render alike exactly when they agree bit for bit.
func reportText(r Report) string { return fmt.Sprintf("%+v", r) }

// chromeTrace renders spans as the Chrome trace vtrain -trace writes.
func chromeTrace(t *testing.T, spans []taskgraph.Span) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := taskgraph.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireReportInvariants checks one oracle report and its trace: every
// value is finite, no device stream is busy longer than the iteration, the
// bubble fraction lies in [0, 1], and Breakdown sums to the busy time.
func requireReportInvariants(t *testing.T, what string, r Report, spans []taskgraph.Span) {
	t.Helper()
	vals := []float64{r.IterTime, r.Utilization, r.HardwareFLOPs, r.ComputeSeconds, r.CommSeconds, r.BubbleFraction}
	sum := 0.0
	for _, v := range r.Breakdown {
		vals = append(vals, v)
		sum += v
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s: non-finite value in %s", what, reportText(r))
		}
	}
	busy := map[[2]int]float64{}
	for _, sp := range spans {
		busy[[2]int{sp.Device, int(sp.Stream)}] += sp.End - sp.Start
	}
	for res, b := range busy {
		if b > r.IterTime*(1+1e-12) {
			t.Fatalf("%s: device %d stream %d busy %v > iteration %v", what, res[0], res[1], b, r.IterTime)
		}
	}
	if r.BubbleFraction < 0 || r.BubbleFraction > 1 {
		t.Fatalf("%s: bubble fraction %v outside [0, 1]", what, r.BubbleFraction)
	}
	want := (r.ComputeSeconds + r.CommSeconds) * float64(r.Plan.Pipeline)
	if math.Abs(sum-want) > 1e-9*want {
		t.Fatalf("%s: Breakdown sums to %v, busy time is %v", what, sum, want)
	}
}

// FuzzSimulatePaths checks the tier chain above the task graph: the shape
// key and structural cache, the report cache, the artifact store,
// SimulateBatch's grouping and dedupe, and ForCluster siblings. Every plan
// of a decoded sequence, simulated on a fresh root with no caches, is the
// oracle; each path must match it bit for bit, every report field and
// Breakdown included:
//
//   - one shared root, the plans in sequence;
//   - a ForCluster sibling of it on the second cluster;
//   - SimulateBatch over the sequence, alternating a second root and its
//     sibling, so lanes of one shape mix clusters;
//   - a third root reading the first one's artifact directory, which
//     lowers nothing;
//   - SimulateTrace on the shared and the disk-reading roots, whose Chrome
//     traces must match the fresh root's byte for byte.
//
// The oracle reports must be finite, keep each stream's busy time within
// the iteration and the bubble fraction in [0, 1], and sum Breakdown to
// the busy time, and a contended report is no faster than its ideal twin.
// The two fidelities are not compared: their iteration times can differ
// (by 1.07e-3 for t=2, d=2, p=4 under GPipe at two micro-batches).
func FuzzSimulatePaths(f *testing.F) {
	// The schedule-oracle grid's corners on an 8-layer model: p = 1 and
	// p = 4 at one and four micro-batches, 1F1B interleaved over v = 2,
	// GPipe with recomputation and buckets, and a repeat of the first plan.
	corners := []byte{0, 0, 21, 3 | 16 | 64, 128, 0, 2 | 16 | 32 | 64, 3 | 4 | 32}
	f.Add(append([]byte{3, 8}, corners...))
	f.Add(append([]byte{3, 1 | 2 | 8 | 64}, corners...))
	f.Add(append([]byte{7, 2 | 4 | 16}, corners...))
	f.Add([]byte{1, 1 | 2, 5, 1, 13, 2, 128, 1, 9, 99})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodePaths(data)
		if len(in.plans) < 2 {
			return
		}
		m, fid, cont := in.m, in.fid, in.contention
		oracle := func(c hw.Cluster, plan parallel.Plan) string {
			r, err := fresh(c, fid, cont).Simulate(m, plan)
			if err != nil {
				t.Fatal(err)
			}
			return reportText(r)
		}
		wantA := make([]string, len(in.plans))
		wantB := make([]string, len(in.plans))
		wantTrace := make([][]byte, len(in.plans))
		for i, plan := range in.plans {
			what := fmt.Sprintf("plan %d (%s)", i, plan)
			wantA[i], wantB[i] = oracle(in.a, plan), oracle(in.b, plan)
			r, spans, err := fresh(in.a, fid, cont).SimulateTrace(m, plan)
			if err != nil {
				t.Fatal(err)
			}
			if reportText(r) != wantA[i] {
				t.Fatalf("%s: a fresh SimulateTrace reports\n%s\nwant\n%s", what, reportText(r), wantA[i])
			}
			requireReportInvariants(t, what, r, spans)
			wantTrace[i] = chromeTrace(t, spans)
			if cont {
				ideal, err := fresh(in.a, fid, false).Simulate(m, plan)
				if err != nil {
					t.Fatal(err)
				}
				if r.IterTime < ideal.IterTime {
					t.Fatalf("%s: contended %v < ideal %v", what, r.IterTime, ideal.IterTime)
				}
			}
		}
		check := func(path string, i int, r Report, err error, want string) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s, plan %d (%s): %v", path, i, in.plans[i], err)
			}
			if got := reportText(r); got != want {
				t.Fatalf("%s, plan %d (%s):\n%s\nwant\n%s", path, i, in.plans[i], got, want)
			}
		}

		dir := t.TempDir()
		shared := fresh(in.a, fid, cont, WithCacheSize(DefaultCacheSize), WithArtifactDir(dir))
		sib, err := shared.ForCluster(in.b)
		if err != nil {
			t.Fatal(err)
		}
		for i, plan := range in.plans {
			r, err := shared.Simulate(m, plan)
			check("shared root", i, r, err, wantA[i])
			r, err = sib.Simulate(m, plan)
			check("sibling", i, r, err, wantB[i])
		}

		batchRoot := fresh(in.a, fid, cont, WithCacheSize(DefaultCacheSize))
		batchSib, err := batchRoot.ForCluster(in.b)
		if err != nil {
			t.Fatal(err)
		}
		sims := make([]*Simulator, len(in.plans))
		for i := range sims {
			sims[i] = batchRoot
			if i%2 == 1 {
				sims[i] = batchSib
			}
		}
		reps, err := SimulateBatch(m, sims, in.plans)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range reps {
			want := wantA[i]
			if i%2 == 1 {
				want = wantB[i]
			}
			check("SimulateBatch", i, r, nil, want)
		}

		disk := fresh(in.a, fid, cont, WithCacheSize(DefaultCacheSize), WithArtifactDir(dir))
		for i, plan := range in.plans {
			r, err := disk.Simulate(m, plan)
			check("artifact reader", i, r, err, wantA[i])
		}
		if n := disk.CacheStats().Lowerings; n != 0 {
			t.Fatalf("the artifact reader lowered %d graphs", n)
		}

		for _, s := range []struct {
			path string
			sim  *Simulator
		}{{"shared root's trace", shared}, {"artifact reader's trace", disk}} {
			for i, plan := range in.plans {
				r, spans, err := s.sim.SimulateTrace(m, plan)
				check(s.path, i, r, err, wantA[i])
				if !bytes.Equal(chromeTrace(t, spans), wantTrace[i]) {
					t.Fatalf("%s, plan %d (%s): the Chrome trace differs from a fresh root's", s.path, i, plan)
				}
			}
		}
	})
}
