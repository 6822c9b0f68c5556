package dse

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"vtrain/internal/core"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
)

func sweepModel() model.Config {
	return model.Config{Name: "sweep-tiny", Hidden: 256, Layers: 4, SeqLen: 128, Heads: 4, Vocab: 1024}
}

// sweepSiblings builds a root simulator on 8 nodes plus two ForCluster
// siblings: a contended twin of the root and an ideal 4-node cluster.
func sweepSiblings(t *testing.T) []*core.Simulator {
	t.Helper()
	root := newSim(t, 8)
	contended, err := root.ForCluster(hw.PaperCluster(8), core.WithContention(true))
	if err != nil {
		t.Fatal(err)
	}
	small, err := root.ForCluster(hw.PaperCluster(4))
	if err != nil {
		t.Fatal(err)
	}
	return []*core.Simulator{root, contended, small}
}

// sweepPlans returns eight plans of one shape (pipeline 2, 8 micro-batches,
// tensor and data parallel) followed by two of another (pipeline 4, no
// tensor or data parallelism). Every plan fits 4 nodes.
func sweepPlans() []parallel.Plan {
	var plans []parallel.Plan
	for _, t := range []int{2, 4} {
		for _, dm := range []struct{ gb, d, mb int }{{32, 2, 2}, {32, 4, 1}, {64, 2, 4}, {64, 4, 2}} {
			plans = append(plans, parallel.Plan{Tensor: t, Data: dm.d, Pipeline: 2, MicroBatch: dm.mb, GlobalBatch: dm.gb, GradientBuckets: 2})
		}
	}
	return append(plans,
		parallel.Plan{Tensor: 1, Data: 1, Pipeline: 4, MicroBatch: 1, GlobalBatch: 8},
		parallel.Plan{Tensor: 1, Data: 1, Pipeline: 4, MicroBatch: 2, GlobalBatch: 16},
	)
}

// crossPlans pairs every plan with every simulator, simulator-major.
func crossPlans(sims []*core.Simulator, plans []parallel.Plan) ([]*core.Simulator, []parallel.Plan) {
	var outSims []*core.Simulator
	var outPlans []parallel.Plan
	for _, s := range sims {
		for _, p := range plans {
			outSims = append(outSims, s)
			outPlans = append(outPlans, p)
		}
	}
	return outSims, outPlans
}

// TestSweepMatchesSequential feeds Sweep 30 plans over three siblings, one
// of them contended. The first shape's 24 entries overflow one 16-lane
// replay, so its first chunk mixes ideal and contended lanes. Every index
// must be emitted exactly once with the report a sequential Simulate on a
// fresh copy of its simulator returns.
func TestSweepMatchesSequential(t *testing.T) {
	m := sweepModel()
	sims, plans := crossPlans(sweepSiblings(t), sweepPlans())
	seqSims, _ := crossPlans(sweepSiblings(t), sweepPlans())

	want := make([]core.Report, len(plans))
	for i := range plans {
		rep, err := seqSims[i].Simulate(m, plans[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}

	got := make([]core.Report, len(plans))
	seen := make([]int, len(plans))
	if err := Sweep(m, sims, plans, func(i int, rep core.Report) error {
		seen[i]++
		got[i] = rep
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range plans {
		if seen[i] != 1 {
			t.Fatalf("index %d emitted %d times, want once", i, seen[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("index %d (%s on %d GPUs): swept report differs from sequential:\n sweep: %+v\n   seq: %+v",
				i, plans[i], sims[i].Cluster().TotalGPUs(), got[i], want[i])
		}
	}
	// Shape one: 24 lanes in two chunks; shape two: 6 lanes in one.
	if st := sims[0].CacheStats(); st.BatchReplays != 3 || st.BatchedPlans != 30 {
		t.Errorf("batching: %d plans over %d replays, want 30 over 3", st.BatchedPlans, st.BatchReplays)
	}

	if err := Sweep(m, sims[:1], plans, func(int, core.Report) error { return nil }); err == nil {
		t.Fatal("mismatched sims/plans lengths must be rejected")
	}
}

// TestSweepNoEmissionAfterError covers the failure path. A 16-GPU plan is
// valid on the 8-node root and invalid on a 1-node sibling; the error must
// be a *core.PlanError indexing the failing entry of the whole sweep, and
// no index of the failing batch may ever be emitted.
func TestSweepNoEmissionAfterError(t *testing.T) {
	m := sweepModel()
	bad := parallel.Plan{Tensor: 2, Data: 4, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2}
	other := parallel.Plan{Tensor: 1, Data: 1, Pipeline: 4, MicroBatch: 1, GlobalBatch: 8}

	siblings := func() (root, one *core.Simulator) {
		root = newSim(t, 8)
		one, err := root.ForCluster(hw.PaperCluster(1))
		if err != nil {
			t.Fatal(err)
		}
		return root, one
	}
	checkErr := func(err error, index int, one *core.Simulator) {
		t.Helper()
		var pe *core.PlanError
		if !errors.As(err, &pe) {
			t.Fatalf("want a *core.PlanError, got %v", err)
		}
		if pe.Index != index || pe.Plan != bad {
			t.Fatalf("error names index %d plan %s, want index %d plan %s", pe.Index, pe.Plan, index, bad)
		}
		if _, want := one.Simulate(m, bad); want == nil || pe.Err.Error() != want.Error() {
			t.Fatalf("PlanError.Err = %v, want the sequential error %v", pe.Err, want)
		}
	}

	t.Run("one worker", func(t *testing.T) {
		// With one worker batches run in first-appearance order: the
		// failing batch {0, 2} runs first and fails at its second lane,
		// so the sweep stops before batch {1} and nothing is emitted.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		root, one := siblings()
		emitted := 0
		err := Sweep(m, []*core.Simulator{root, root, one}, []parallel.Plan{bad, other, bad},
			func(int, core.Report) error { emitted++; return nil })
		checkErr(err, 2, one)
		if emitted != 0 {
			t.Fatalf("%d points emitted after the first batch failed", emitted)
		}
	})

	t.Run("many workers", func(t *testing.T) {
		root, one := siblings()
		var sims []*core.Simulator
		var plans []parallel.Plan
		for _, p := range sweepPlans() {
			sims, plans = append(sims, root), append(plans, p)
		}
		failing := []int{len(plans), len(plans) + 1}
		sims, plans = append(sims, root, one), append(plans, bad, bad)
		seen := make([]int, len(plans))
		err := Sweep(m, sims, plans, func(i int, _ core.Report) error { seen[i]++; return nil })
		checkErr(err, failing[1], one)
		for i, n := range seen {
			if n > 1 {
				t.Fatalf("index %d emitted %d times", i, n)
			}
		}
		for _, i := range failing {
			if seen[i] != 0 {
				t.Fatalf("index %d of the failing batch was emitted", i)
			}
		}
	})
}

// TestSweepStopsOnEmitError covers a consumer that fails: with one worker
// the 24-lane batch of the first shape runs first, its first emission
// fails, and the sweep returns that error without emitting again or
// simulating the second shape's batch.
func TestSweepStopsOnEmitError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := sweepModel()
	sims, plans := crossPlans(sweepSiblings(t), sweepPlans())
	full := errors.New("consumer full")
	emitted := 0
	err := Sweep(m, sims, plans, func(int, core.Report) error {
		emitted++
		return full
	})
	if !errors.Is(err, full) || emitted != 1 {
		t.Fatalf("Sweep = %v after %d emissions, want the emit error after one", err, emitted)
	}
	if st := sims[0].CacheStats(); st.BatchedPlans != 24 {
		t.Errorf("%d plans simulated, want only the first shape's 24", st.BatchedPlans)
	}
}
