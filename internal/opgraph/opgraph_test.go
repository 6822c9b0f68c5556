package opgraph

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

func tinyModel() model.Config {
	return model.Config{Name: "tiny", Hidden: 256, Layers: 4, SeqLen: 128, Heads: 4, Vocab: 1024}
}

func build(t *testing.T, m model.Config, plan parallel.Plan, nodes int) *Graph {
	t.Helper()
	g, err := Build(m, plan, hw.PaperCluster(nodes))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func count(g *Graph, kind NodeKind) int {
	n := 0
	for id := 0; id < g.NumNodes(); id++ {
		if g.Node(id).Kind == kind {
			n++
		}
	}
	return n
}

// checkAcyclic verifies IDs are topologically ordered (every dep precedes
// its dependent), which implies acyclicity.
func checkAcyclic(t *testing.T, g *Graph) {
	t.Helper()
	for id := 0; id < g.NumNodes(); id++ {
		for _, d := range g.Deps(id) {
			if int(d) >= id {
				t.Fatalf("node %d (%s) depends on later node %d", id, g.Label(id), d)
			}
		}
	}
}

func TestDataParallelBucketing(t *testing.T) {
	m := tinyModel()
	// Fig. 5a: with bucketing enabled, one All-Reduce per bucket.
	plan := parallel.Plan{Tensor: 1, Data: 4, Pipeline: 1, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2}
	g := build(t, m, plan, 1)
	if got := count(g, AllReduceDP); got != 2 {
		t.Fatalf("bucketed DP All-Reduces = %d, want 2", got)
	}

	// Fig. 5b: without bucketing, a single All-Reduce at backward end.
	plan.GradientBuckets = 0
	g = build(t, m, plan, 1)
	if got := count(g, AllReduceDP); got != 1 {
		t.Fatalf("unbucketed DP All-Reduces = %d, want 1", got)
	}

	// No data parallelism, no gradient All-Reduce.
	plan = parallel.Plan{Tensor: 1, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 2, GradientBuckets: 4}
	g = build(t, m, plan, 1)
	if got := count(g, AllReduceDP); got != 0 {
		t.Fatalf("d=1 DP All-Reduces = %d, want 0", got)
	}
}

func TestBucketOverlapDependencies(t *testing.T) {
	// A bucket's All-Reduce must depend on a backward compute node of the
	// final micro-batch, not on the end of the whole backward pass — that
	// is what lets it overlap (Fig. 5a).
	m := tinyModel()
	plan := parallel.Plan{Tensor: 1, Data: 4, Pipeline: 1, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2}
	g := build(t, m, plan, 1)
	var arIDs []int
	lastComputeID := int32(-1)
	for id := 0; id < g.NumNodes(); id++ {
		n := g.Node(id)
		if n.Kind == AllReduceDP {
			arIDs = append(arIDs, id)
		}
		if n.Kind == Compute && n.Op != profiler.WeightUpdate {
			lastComputeID = int32(id)
		}
	}
	// The bucket covering the later layers must be ready before the
	// backward pass fully completes: its dependency ID < lastComputeID.
	early := false
	for _, id := range arIDs {
		for _, d := range g.Deps(id) {
			if d < lastComputeID {
				early = true
			}
		}
	}
	if !early {
		t.Fatal("no gradient bucket overlaps the backward pass")
	}
}

func TestTensorParallelAllReduceInsertion(t *testing.T) {
	m := tinyModel()
	// Fig. 6: one All-Reduce after MHA and one after FFN, forward and
	// backward, per layer per micro-batch.
	plan := parallel.Plan{Tensor: 4, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 2}
	g := build(t, m, plan, 1)
	nmb := plan.MicroBatches() // 2
	want := 4 * m.Layers * nmb
	if got := count(g, AllReduceTP); got != want {
		t.Fatalf("TP All-Reduces = %d, want %d", got, want)
	}
	// t=1 inserts none.
	plan.Tensor = 1
	g = build(t, m, plan, 1)
	if got := count(g, AllReduceTP); got != 0 {
		t.Fatalf("t=1 TP All-Reduces = %d, want 0", got)
	}
}

func TestRecomputeAddsForwardOpsAndAllReduces(t *testing.T) {
	m := tinyModel()
	plan := parallel.Plan{Tensor: 4, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 2}
	base := build(t, m, plan, 1)
	plan.Recompute = true
	rec := build(t, m, plan, 1)
	nmb := plan.MicroBatches()
	// Recompute re-runs the forward TP All-Reduces: 2 extra per layer
	// per micro-batch.
	if got, want := count(rec, AllReduceTP)-count(base, AllReduceTP), 2*m.Layers*nmb; got != want {
		t.Fatalf("recompute added %d TP All-Reduces, want %d", got, want)
	}
	if got, want := count(rec, Compute)-count(base, Compute), 2*m.Layers*nmb; got != want {
		t.Fatalf("recompute added %d compute ops, want %d", got, want)
	}
}

func TestPipelineP2PInsertion(t *testing.T) {
	m := tinyModel()
	plan := parallel.Plan{Tensor: 1, Data: 1, Pipeline: 4, MicroBatch: 1, GlobalBatch: 4}
	g := build(t, m, plan, 1)
	nmb := plan.MicroBatches() // 4
	// Forward: 3 boundaries; backward: 3 boundaries; per micro-batch.
	if got, want := count(g, P2P), 2*3*nmb; got != want {
		t.Fatalf("P2P nodes = %d, want %d", got, want)
	}
	// p=1 has none.
	plan = parallel.Plan{Tensor: 1, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 4}
	g = build(t, m, plan, 1)
	if got := count(g, P2P); got != 0 {
		t.Fatalf("p=1 P2P nodes = %d, want 0", got)
	}
}

func TestEmbeddingAndHeadPlacement(t *testing.T) {
	m := tinyModel()
	plan := parallel.Plan{Tensor: 1, Data: 1, Pipeline: 4, MicroBatch: 1, GlobalBatch: 2}
	g := build(t, m, plan, 1)
	for id := 0; id < g.NumNodes(); id++ {
		n := g.Node(id)
		if n.Kind != Compute {
			continue
		}
		switch n.Op {
		case profiler.FwdEmbedding, profiler.BwdEmbedding:
			if n.Stage != 0 {
				t.Fatalf("%v on stage %d, want 0", n.Op, n.Stage)
			}
		case profiler.FwdLMHead, profiler.BwdLMHead:
			if int(n.Stage) != plan.Pipeline-1 {
				t.Fatalf("%v on stage %d, want %d", n.Op, n.Stage, plan.Pipeline-1)
			}
		}
	}
}

func TestWeightUpdatePerStage(t *testing.T) {
	m := tinyModel()
	plan := parallel.Plan{Tensor: 2, Data: 2, Pipeline: 4, MicroBatch: 1, GlobalBatch: 4, GradientBuckets: 1}
	g := build(t, m, plan, 8)
	wu := 0
	for id := 0; id < g.NumNodes(); id++ {
		n := g.Node(id)
		if n.Kind == Compute && n.Op == profiler.WeightUpdate {
			wu++
			// Weight update must wait for the stage's gradient
			// All-Reduce.
			foundAR := false
			for _, d := range g.Deps(id) {
				if g.Node(int(d)).Kind == AllReduceDP {
					foundAR = true
				}
			}
			if !foundAR {
				t.Fatalf("weight update %d lacks gradient All-Reduce dependency", id)
			}
		}
	}
	if wu != plan.Pipeline {
		t.Fatalf("weight updates = %d, want %d", wu, plan.Pipeline)
	}
}

func TestGPipeVsOneFOneBSlotOrder(t *testing.T) {
	// Fig. 7: GPipe runs all forwards before any backward; 1F1B
	// interleaves after the warm-up.
	gp := scheduleSlots(parallel.Plan{Schedule: parallel.GPipe}, 0, 2, 4, nil)
	for i := 0; i < 4; i++ {
		if !gp[i].forward {
			t.Fatalf("GPipe slot %d is backward, want forward", i)
		}
	}
	// GPipe backwards run in reverse micro-batch order.
	if gp[4].micro != 3 || gp[7].micro != 0 {
		t.Fatalf("GPipe backward order = %v", gp[4:])
	}

	// 1F1B stage 0 of 2, 4 micro-batches: F0 F1 B0 F2 B1 F3 B2 B3.
	fb := scheduleSlots(parallel.Plan{Schedule: parallel.OneFOneB}, 0, 2, 4, nil)
	want := []slot{
		{forward: true, micro: 0}, {forward: true, micro: 1},
		{forward: false, micro: 0}, {forward: true, micro: 2},
		{forward: false, micro: 1}, {forward: true, micro: 3},
		{forward: false, micro: 2}, {forward: false, micro: 3},
	}
	if len(fb) != len(want) {
		t.Fatalf("1F1B slots = %d, want %d", len(fb), len(want))
	}
	for i := range want {
		if fb[i] != want[i] {
			t.Fatalf("1F1B slot %d = %+v, want %+v (full: %+v)", i, fb[i], want[i], fb)
		}
	}
	// Last stage alternates from the start: F0 B0 F1 B1 ...
	last := scheduleSlots(parallel.Plan{Schedule: parallel.OneFOneB}, 1, 2, 4, nil)
	if !last[0].forward || last[1].forward || last[1].micro != 0 {
		t.Fatalf("1F1B last stage = %+v", last[:2])
	}
}

func TestScheduleSlotsCoverEveryMicroBatchOnce(t *testing.T) {
	f := func(st, p8, n8 uint8) bool {
		p := int(p8)%6 + 1
		stage := int(st) % p
		nmb := int(n8)%12 + 1
		for _, sched := range []parallel.Schedule{parallel.OneFOneB, parallel.GPipe} {
			slots := scheduleSlots(parallel.Plan{Schedule: sched}, stage, p, nmb, nil)
			if len(slots) != 2*nmb {
				return false
			}
			fwd := make(map[int]int)
			bwd := make(map[int]int)
			for _, s := range slots {
				if s.forward {
					fwd[s.micro]++
				} else {
					bwd[s.micro]++
				}
			}
			for j := 0; j < nmb; j++ {
				if fwd[j] != 1 || bwd[j] != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOneFOneBForwardPrecedesBackwardPerMicroBatch(t *testing.T) {
	f := func(st, p8, n8 uint8) bool {
		p := int(p8)%6 + 1
		stage := int(st) % p
		nmb := int(n8)%12 + 1
		slots := scheduleSlots(parallel.Plan{Schedule: parallel.OneFOneB}, stage, p, nmb, nil)
		seen := make(map[int]bool)
		for _, s := range slots {
			if s.forward {
				seen[s.micro] = true
			} else if !seen[s.micro] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGraphAcyclicAcrossPlans(t *testing.T) {
	m := tinyModel()
	plans := []parallel.Plan{
		{Tensor: 1, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 1},
		{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2},
		{Tensor: 4, Data: 2, Pipeline: 4, MicroBatch: 2, GlobalBatch: 16, Schedule: parallel.GPipe},
		{Tensor: 1, Data: 4, Pipeline: 4, MicroBatch: 1, GlobalBatch: 12, Recompute: true},
	}
	for _, plan := range plans {
		g := build(t, m, plan, 8)
		checkAcyclic(t, g)
	}
}

func TestGraphAcyclicProperty(t *testing.T) {
	m := tinyModel()
	c := hw.PaperCluster(16)
	f := func(t8, d8, p8, n8 uint8, sched bool) bool {
		plan := parallel.Plan{
			Tensor:     []int{1, 2, 4}[t8%3],
			Data:       int(d8)%4 + 1,
			Pipeline:   int(p8)%4 + 1,
			MicroBatch: 1,
		}
		nmb := int(n8)%8 + 1
		plan.GlobalBatch = plan.Data * nmb
		if sched {
			plan.Schedule = parallel.GPipe
		}
		g, err := Build(m, plan, c)
		if err != nil {
			return false
		}
		for id := 0; id < g.NumNodes(); id++ {
			for _, d := range g.Deps(id) {
				if int(d) >= id {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossStageDependencies(t *testing.T) {
	m := tinyModel()
	plan := parallel.Plan{Tensor: 1, Data: 1, Pipeline: 2, MicroBatch: 1, GlobalBatch: 2}
	g := build(t, m, plan, 1)
	// Every forward receive on stage 1 must depend on a stage-0 node.
	for id := 0; id < g.NumNodes(); id++ {
		n := g.Node(id)
		if n.Kind == P2P && n.Stage == 1 && strings.HasPrefix(n.Label(), "Recv Fwd") {
			ok := false
			for _, d := range g.Deps(id) {
				if g.Node(int(d)).Stage == 0 {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("forward receive %q lacks cross-stage dependency", n.Label())
			}
		}
	}
}

func TestBuildValidates(t *testing.T) {
	m := tinyModel()
	bad := parallel.Plan{Tensor: 0, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 1}
	if _, err := Build(m, bad, hw.PaperCluster(1)); err == nil {
		t.Fatal("invalid plan must be rejected")
	}
	badModel := m
	badModel.Hidden = 0
	good := parallel.Plan{Tensor: 1, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 1}
	if _, err := Build(badModel, good, hw.PaperCluster(1)); err == nil {
		t.Fatal("invalid model must be rejected")
	}
}

// TestValidateBoundsTaskIDs: a plan whose lowering could number more tasks
// than int32 holds is an error from Validate and Build, not a panic in the
// builder, and the bound is exact: one micro-batch fewer passes.
func TestValidateBoundsTaskIDs(t *testing.T) {
	c := hw.PaperCluster(1)
	huge := parallel.Plan{Tensor: 8, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 1 << 40}
	if err := Validate(model.Megatron39_1B(), huge, c); err == nil || !strings.Contains(err.Error(), "task id limit") {
		t.Fatalf("Validate(%s) = %v, want the task id limit error", huge, err)
	}
	if _, err := Build(model.Megatron39_1B(), huge, c); err == nil {
		t.Fatalf("Build(%s) succeeded, want an error", huge)
	}

	// The tiny model has L = 4; with p = v = 1 a graph has at most
	// 52·nmb + 5 nodes, each at most 13 tasks (BwdMHA's kernels).
	m := tinyModel()
	last := (math.MaxInt32/13 - 5) / 52
	plan := parallel.Plan{Tensor: 1, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: last}
	if err := Validate(m, plan, c); err != nil {
		t.Fatalf("Validate at the bound: %v", err)
	}
	plan.GlobalBatch++
	if err := Validate(m, plan, c); err == nil {
		t.Fatalf("Validate(%s) one micro-batch past the bound succeeded", plan)
	}
}

func TestNodeKindString(t *testing.T) {
	for kind, want := range map[NodeKind]string{
		Compute: "Compute", AllReduceTP: "AllReduceTP", AllReduceDP: "AllReduceDP", P2P: "P2P",
	} {
		if kind.String() != want {
			t.Fatalf("NodeKind %d string = %q, want %q", kind, kind.String(), want)
		}
	}
}
