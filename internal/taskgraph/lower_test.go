package taskgraph

import (
	"reflect"
	"testing"

	"vtrain/internal/gpu"
	"vtrain/internal/hw"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

// TestOperatorLowerFastPathMatchesBuilder pins the operator-level fast path
// to the builder-based reference lowering: every slice of the structural
// graph — tasks in dispatch order, the parents CSR, source operators,
// class and descriptor tables — must match exactly, across schedules, interleaving, uneven layer splits, and
// recomputation.
func TestOperatorLowerFastPathMatchesBuilder(t *testing.T) {
	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	plans := []parallel.Plan{
		{Tensor: 1, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 2},
		{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2},
		{Tensor: 1, Data: 2, Pipeline: 4, MicroBatch: 1, GlobalBatch: 8, Schedule: parallel.GPipe},
		{Tensor: 2, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, Recompute: true},
		{Tensor: 1, Data: 1, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, VirtualStages: 2},
	}
	for _, plan := range plans {
		og, err := opgraph.Build(tinyModel(), plan, c)
		if err != nil {
			t.Fatal(err)
		}
		fast := lowerOperatorLevel(og)
		ref := lowerBuilder(og, prof, OperatorLevel)

		if got, want := fast.NumTasks(), ref.NumTasks(); got != want {
			t.Fatalf("plan %s: %d tasks, want %d", plan, got, want)
		}
		check := func(name string, got, want any) {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("plan %s: %s = %v, want %v", plan, name, got, want)
			}
		}
		check("Devices", fast.Devices, ref.Devices)
		check("Model", fast.Model, ref.Model)
		check("parentStart", fast.parentStart, ref.parentStart)
		check("parents", fast.parents, ref.parents)
		check("classes", fast.classes, ref.classes)
		check("classOf", fast.classOf, ref.classOf)
		check("descs", fast.descs, ref.descs)
		check("durIdx", fast.durIdx, ref.durIdx)
		check("slotOf", fast.slotOf, ref.slotOf)
		check("sources", fast.sources, ref.sources)
	}
}
