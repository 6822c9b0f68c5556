package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/taskgraph"
)

// batchPlans is a mixed workload for the batch-equivalence tests: two
// structural shapes (pipeline depths 2 and 4), a pair of plans that share a
// shape while differing in micro-batch size (d=1,mb=2 vs d=2,mb=1 — same
// micro-batch count), and an exact duplicate, which must resolve through
// the report cache like a repeated Simulate.
func batchPlans() []parallel.Plan {
	return []parallel.Plan{
		{Tensor: 2, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 1, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 1, Data: 1, Pipeline: 4, MicroBatch: 1, GlobalBatch: 8},
		{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 2, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2}, // duplicate of [0]
	}
}

// repeatSim returns n copies of s: the sims argument of a SimulateBatch
// whose plans all run on one simulator.
func repeatSim(s *Simulator, n int) []*Simulator {
	sims := make([]*Simulator, n)
	for i := range sims {
		sims[i] = s
	}
	return sims
}

// TestSimulateBatchEquivalence pins SimulateBatch to the sequential
// contract: over a mixed batch — several shapes, mixed micro-batch sizes
// within one shape, a duplicate plan, and the K=1 edge — it must return
// reports byte-identical to individual Simulate calls and leave the caches
// with identical hit/miss/lowering counters.
func TestSimulateBatchEquivalence(t *testing.T) {
	m := model.Config{Name: "batch-tiny", Hidden: 256, Layers: 4, SeqLen: 128, Heads: 4, Vocab: 1024}
	plans := batchPlans()

	seqSim := sim(t, 8, WithFidelity(taskgraph.OperatorLevel))
	want := make([]Report, len(plans))
	for i, p := range plans {
		rep, err := seqSim.Simulate(m, p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}
	wantStats := seqSim.CacheStats()

	batchSim := sim(t, 8, WithFidelity(taskgraph.OperatorLevel))
	got, err := SimulateBatch(m, repeatSim(batchSim, len(plans)), plans)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plans {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("plan %s: batched report differs from sequential:\n batch: %+v\n  seq: %+v", plans[i], got[i], want[i])
		}
	}
	gotStats := batchSim.CacheStats()
	// Batching adds its own counters; everything the sequential path also
	// tracks must match exactly.
	gotStats.BatchReplays, gotStats.BatchedPlans = 0, 0
	if gotStats != wantStats {
		t.Errorf("cache stats diverge: batch %+v, sequential %+v", gotStats, wantStats)
	}

	// K=1 on a fresh simulator: one-lane batches take the scalar replay
	// path and must be just as identical.
	oneSim := sim(t, 8, WithFidelity(taskgraph.OperatorLevel))
	for i, p := range plans[:3] {
		reps, err := SimulateBatch(m, []*Simulator{oneSim}, []parallel.Plan{p})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reps[0], want[i]) {
			t.Fatalf("plan %s: width-1 batch differs from sequential", p)
		}
	}

	// Empty batch: no reports, no error, no accounting.
	if reps, err := SimulateBatch(m, nil, nil); len(reps) != 0 || err != nil {
		t.Fatalf("empty batch: got (%v, %v)", reps, err)
	}
}

// TestSimulateBatchConcurrentSharedShape drives concurrent SimulateBatch
// calls whose plans all share one structural shape, so every goroutine
// binds and batch-replays the same cached graph at once. Run under -race
// this pins the immutability contract of the shared structure; the reports
// must also all agree with the sequential baseline.
func TestSimulateBatchConcurrentSharedShape(t *testing.T) {
	m := model.Config{Name: "batch-race", Hidden: 256, Layers: 4, SeqLen: 128, Heads: 4, Vocab: 1024}
	plans := []parallel.Plan{
		{Tensor: 1, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 2, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 1, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
	}

	seqSim := sim(t, 8, WithFidelity(taskgraph.OperatorLevel))
	want := make([]Report, len(plans))
	for i, p := range plans {
		rep, err := seqSim.Simulate(m, p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}

	// Report caching off so every call re-binds and re-replays the shared
	// structure instead of the first winner short-circuiting the rest.
	s := sim(t, 8, WithFidelity(taskgraph.OperatorLevel), WithCacheSize(0))
	sims := repeatSim(s, len(plans))
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps, err := SimulateBatch(m, sims, plans)
			if err != nil {
				errs <- err
				return
			}
			for i := range plans {
				if !reflect.DeepEqual(reps[i], want[i]) {
					t.Errorf("plan %s: concurrent batch report differs from sequential", plans[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSimulateBatchAcrossMatchesSequential pins the cross-sibling batch
// path: plans simulated on different ForCluster siblings — same structural
// shape, different hardware — must come back byte-identical to each
// sibling's own sequential Simulate, and mismatched input lengths must be
// rejected.
func TestSimulateBatchAcrossMatchesSequential(t *testing.T) {
	m := model.Config{Name: "batch-across", Hidden: 256, Layers: 4, SeqLen: 128, Heads: 4, Vocab: 1024}
	root := sim(t, 8, WithFidelity(taskgraph.OperatorLevel))
	small, err := root.ForCluster(hw.PaperCluster(4))
	if err != nil {
		t.Fatal(err)
	}

	// Same shape everywhere: pipeline depth 2, 8 micro-batches. The two
	// clusters price the same structure differently.
	plans := []parallel.Plan{
		{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 2, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 1, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 1, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2},
	}
	sims := []*Simulator{root, root, small, small}

	want := make([]Report, len(plans))
	for i := range plans {
		seq := sim(t, 8, WithFidelity(taskgraph.OperatorLevel))
		if sims[i] == small {
			if seq, err = seq.ForCluster(hw.PaperCluster(4)); err != nil {
				t.Fatal(err)
			}
		}
		if want[i], err = seq.Simulate(m, plans[i]); err != nil {
			t.Fatal(err)
		}
	}

	got, err := SimulateBatch(m, sims, plans)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plans {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("plan %s on %d GPUs: cross-sibling report differs from sequential",
				plans[i], sims[i].Cluster().TotalGPUs())
		}
	}

	if _, err := SimulateBatch(m, sims[:2], plans); err == nil {
		t.Fatal("mismatched sims/plans lengths must be rejected")
	}
}

// TestPlanErrorIndexAcrossSiblings pins PlanError.Index when one plan runs
// on several siblings: the same 16-GPU plan is valid on a 4-node (32-GPU)
// sibling and invalid on a 1-node (8-GPU) one, so only index 1 fails, and
// the error must name that index rather than the first equal plan.
func TestPlanErrorIndexAcrossSiblings(t *testing.T) {
	m := model.Config{Name: "batch-index", Hidden: 256, Layers: 4, SeqLen: 128, Heads: 4, Vocab: 1024}
	root := sim(t, 8, WithFidelity(taskgraph.OperatorLevel))
	four, err := root.ForCluster(hw.PaperCluster(4))
	if err != nil {
		t.Fatal(err)
	}
	one, err := root.ForCluster(hw.PaperCluster(1))
	if err != nil {
		t.Fatal(err)
	}
	plan := parallel.Plan{Tensor: 2, Data: 4, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2}
	if err := plan.Validate(m, four.Cluster()); err != nil {
		t.Fatalf("plan must fit the 4-node sibling: %v", err)
	}
	if plan.Validate(m, one.Cluster()) == nil {
		t.Fatal("plan must not fit the 1-node sibling")
	}

	_, err = SimulateBatch(m, []*Simulator{four, one}, []parallel.Plan{plan, plan})
	var pe *PlanError
	if !errors.As(err, &pe) {
		t.Fatalf("want a *PlanError, got %v", err)
	}
	if pe.Index != 1 || pe.Plan != plan {
		t.Fatalf("PlanError names index %d plan %s, want index 1 plan %s", pe.Index, pe.Plan, plan)
	}
	if _, want := one.Simulate(m, plan); want == nil || pe.Err.Error() != want.Error() {
		t.Fatalf("PlanError.Err = %v, want the sequential error %v", pe.Err, want)
	}
}
