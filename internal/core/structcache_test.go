package core

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/taskgraph"
)

// shapePairs returns, per pipeline schedule, a representative plan and a
// second plan sharing its structural shape but differing in every
// duration-bearing axis the shape admits: tensor width, data width, and
// micro-batch size (with the micro-batch count held fixed).
func shapePairs() []struct {
	name     string
	rep, alt parallel.Plan
} {
	return []struct {
		name     string
		rep, alt parallel.Plan
	}{
		{
			name: "1F1B",
			rep:  parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2},
			alt:  parallel.Plan{Tensor: 4, Data: 4, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		},
		{
			name: "GPipe",
			rep:  parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2, Schedule: parallel.GPipe},
			alt:  parallel.Plan{Tensor: 4, Data: 4, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2, Schedule: parallel.GPipe},
		},
		{
			name: "interleaved",
			rep:  parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2, VirtualStages: 2},
			alt:  parallel.Plan{Tensor: 4, Data: 4, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2, VirtualStages: 2},
		},
	}
}

// TestSharedStructureEquivalence is the refactor's acceptance property: for
// every schedule, replaying a plan through a structural graph lowered from
// a *different* plan of the same shape must produce a Report and Chrome
// trace byte-identical to a from-scratch per-plan lowering.
func TestSharedStructureEquivalence(t *testing.T) {
	m := model.Config{Name: "equiv", Hidden: 256, Layers: 4, SeqLen: 128, Heads: 8, Vocab: 1024}
	for _, fid := range []taskgraph.Fidelity{taskgraph.TaskLevel, taskgraph.OperatorLevel} {
		for _, pair := range shapePairs() {
			// fresh lowers every plan itself; shared is warmed with the
			// representative so pair.alt replays a borrowed structure.
			fresh := sim(t, 8, WithFidelity(fid), WithCacheSize(0))
			shared := sim(t, 8, WithFidelity(fid), WithCacheSize(0))
			if _, err := shared.Simulate(m, pair.rep); err != nil {
				t.Fatalf("%s rep: %v", pair.name, err)
			}

			wantRep, wantSpans, err := fresh.SimulateTrace(m, pair.alt)
			if err != nil {
				t.Fatalf("%s fresh: %v", pair.name, err)
			}
			gotRep, gotSpans, err := shared.SimulateTrace(m, pair.alt)
			if err != nil {
				t.Fatalf("%s shared: %v", pair.name, err)
			}

			st := shared.CacheStats()
			if st.StructHits == 0 {
				t.Fatalf("%s: alt plan did not share the representative's structure (%+v)", pair.name, st)
			}
			if !reflect.DeepEqual(gotRep, wantRep) {
				t.Fatalf("%s: shared-structure report differs from fresh lowering:\n got %+v\nwant %+v",
					pair.name, gotRep, wantRep)
			}
			var want, got bytes.Buffer
			if err := taskgraph.WriteChromeTrace(&want, wantSpans); err != nil {
				t.Fatal(err)
			}
			if err := taskgraph.WriteChromeTrace(&got, gotSpans); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s: shared-structure Chrome trace is not byte-identical to fresh lowering", pair.name)
			}
		}
	}
}

// TestStructCacheSharesAcrossPlans verifies the cache accounting: distinct
// plans of one shape lower one graph, and a shape change lowers another.
func TestStructCacheSharesAcrossPlans(t *testing.T) {
	s := sim(t, 8, WithFidelity(taskgraph.OperatorLevel), WithCacheSize(0))
	m := model.Megatron3_6B()
	// Same shape: nmb = 24/(d*mb) = 6 throughout, t/d vary.
	plans := []parallel.Plan{
		{Tensor: 1, Data: 1, Pipeline: 2, MicroBatch: 4, GlobalBatch: 24, GradientBuckets: 2},
		{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 2, GlobalBatch: 24, GradientBuckets: 2},
		{Tensor: 2, Data: 4, Pipeline: 2, MicroBatch: 1, GlobalBatch: 24, GradientBuckets: 2},
	}
	for _, p := range plans {
		if _, err := s.Simulate(m, p); err != nil {
			t.Fatal(err)
		}
	}
	st := s.CacheStats()
	// Plans 2 and 3 share one structure; plan 1 differs (t = d = 1 omits
	// both All-Reduce families).
	if st.StructMisses != 2 || st.StructHits != 1 {
		t.Fatalf("structural cache stats = %+v, want 2 misses / 1 hit", st)
	}
	// A different pipeline depth is a new shape.
	if _, err := s.Simulate(m, parallel.Plan{Tensor: 2, Data: 2, Pipeline: 3, MicroBatch: 2, GlobalBatch: 24, GradientBuckets: 2}); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.StructMisses != 3 {
		t.Fatalf("new pipeline depth did not lower a new structure: %+v", st)
	}
}

// TestStructCacheValidatesOnHit ensures a structural-cache hit does not
// bypass per-plan validation: an invalid plan sharing a cached shape key
// must still be rejected.
func TestStructCacheValidatesOnHit(t *testing.T) {
	s := sim(t, 8, WithFidelity(taskgraph.OperatorLevel), WithCacheSize(0))
	m := model.Megatron3_6B() // 32 heads
	good := parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2}
	if _, err := s.Simulate(m, good); err != nil {
		t.Fatal(err)
	}
	// Same shape key (t>1, same nmb), but t=3 does not divide the node
	// size: validation must fire even though the structure is cached.
	bad := good
	bad.Tensor = 3
	if _, err := s.Simulate(m, bad); err == nil {
		t.Fatal("invalid plan accepted via structural-cache hit")
	}
}

// TestConcurrentPlansSharingShape floods one simulator with goroutines
// simulating *distinct* plans that all share a single structural shape (run
// under -race). Duration binding must never mutate the shared graph: every
// plan's result must equal its own fresh-simulator reference.
func TestConcurrentPlansSharingShape(t *testing.T) {
	m := model.Config{Name: "race", Hidden: 256, Layers: 4, SeqLen: 128, Heads: 8, Vocab: 1024}
	// Distinct (t, d, mb) with nmb = 48/(d*mb) = 12 held fixed: one shape.
	plans := []parallel.Plan{
		{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 2, GlobalBatch: 48, GradientBuckets: 2},
		{Tensor: 2, Data: 4, Pipeline: 2, MicroBatch: 1, GlobalBatch: 48, GradientBuckets: 2},
		{Tensor: 4, Data: 2, Pipeline: 2, MicroBatch: 2, GlobalBatch: 48, GradientBuckets: 2},
		{Tensor: 4, Data: 4, Pipeline: 2, MicroBatch: 1, GlobalBatch: 48, GradientBuckets: 2},
		{Tensor: 8, Data: 2, Pipeline: 2, MicroBatch: 2, GlobalBatch: 48, GradientBuckets: 2},
		{Tensor: 8, Data: 4, Pipeline: 2, MicroBatch: 1, GlobalBatch: 48, GradientBuckets: 2},
	}

	want := make([]Report, len(plans))
	for i, p := range plans {
		ref := sim(t, 16, WithFidelity(taskgraph.TaskLevel), WithCacheSize(0))
		rep, err := ref.Simulate(m, p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}

	// Report cache off so every call re-binds against the shared structure.
	s := sim(t, 16, WithFidelity(taskgraph.TaskLevel), WithCacheSize(0))
	const goroutines = 24
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				k := (i + j) % len(plans)
				rep, err := s.Simulate(m, plans[k])
				if err != nil {
					errs[i] = err
					return
				}
				if !reflect.DeepEqual(rep, want[k]) {
					errs[i] = errReportMismatch
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := s.CacheStats()
	if st.StructMisses != 1 {
		t.Fatalf("plans of one shape lowered %d structures, want 1 (single-flight)", st.StructMisses)
	}
}
