package taskgraph

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"vtrain/internal/comm"
	"vtrain/internal/gpu"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

func tinyModel() model.Config {
	return model.Config{Name: "tiny", Hidden: 256, Layers: 4, SeqLen: 128, Heads: 4, Vocab: 1024}
}

// boundGraph pairs a structural graph with the duration table bound for
// the plan it was lowered from — the unit most tests replay.
type boundGraph struct {
	g   *Graph
	tbl *DurationTable
	og  *opgraph.Graph // the operator graph g was lowered from, when lowered
	// labels are g's trace labels, when lowered.
	labels []string
}

func lower(t *testing.T, plan parallel.Plan, fid Fidelity) boundGraph {
	t.Helper()
	c := hw.PaperCluster(8)
	og, err := opgraph.Build(tinyModel(), plan, c)
	if err != nil {
		t.Fatal(err)
	}
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	g := Lower(og, prof, fid)
	labels, err := TraceLabels(og.Model, plan, c, fid, prof)
	if err != nil {
		t.Fatal(err)
	}
	return boundGraph{g: g, tbl: g.Bind(prof, comm.NewModel(c), plan, c), og: og, labels: labels}
}

func simulate(t *testing.T, b boundGraph) Result {
	t.Helper()
	res, err := b.g.Replay(b.tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFidelitiesAgree(t *testing.T) {
	// Kernels within an operator are chained sequentially, so replaying
	// at task granularity and operator granularity must give the same
	// iteration time.
	plans := []parallel.Plan{
		{Tensor: 1, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 2},
		{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2},
		{Tensor: 1, Data: 1, Pipeline: 4, MicroBatch: 1, GlobalBatch: 8, Schedule: parallel.GPipe},
	}
	for _, plan := range plans {
		taskRes := simulate(t, lower(t, plan, TaskLevel))
		opRes := simulate(t, lower(t, plan, OperatorLevel))
		if rel := math.Abs(taskRes.IterTime-opRes.IterTime) / taskRes.IterTime; rel > 1e-9 {
			t.Fatalf("plan %s: task-level %.9g vs op-level %.9g (rel %g)", plan, taskRes.IterTime, opRes.IterTime, rel)
		}
		if taskRes.Executed <= opRes.Executed {
			t.Fatalf("task-level should replay more tasks: %d vs %d", taskRes.Executed, opRes.Executed)
		}
	}
}

func TestSimulateDeterministicAndRepeatable(t *testing.T) {
	plan := parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2}
	g := lower(t, plan, TaskLevel)
	a := simulate(t, g)
	b := simulate(t, g) // reference counts must be restored
	if a.IterTime != b.IterTime || a.Executed != b.Executed {
		t.Fatalf("re-simulation diverged: %v vs %v", a.IterTime, b.IterTime)
	}
}

func TestIterTimeAtLeastCriticalChain(t *testing.T) {
	// With a single device and no parallel streams' overlap possible on
	// compute, iteration time >= sum of compute durations on the device.
	plan := parallel.Plan{Tensor: 1, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 2}
	g := lower(t, plan, TaskLevel)
	res := simulate(t, g)
	if res.IterTime < res.ComputeBusy[0]-1e-12 {
		t.Fatalf("iteration %.6g below device busy time %.6g", res.IterTime, res.ComputeBusy[0])
	}
}

func TestPipelineBubbleGrowsWithDepth(t *testing.T) {
	// Same total work, fewer micro-batches per stage: deeper pipelines
	// must show a larger bubble (idle) fraction with fixed micro-batches.
	mk := func(p int) float64 {
		plan := parallel.Plan{Tensor: 1, Data: 1, Pipeline: p, MicroBatch: 1, GlobalBatch: 4}
		res := simulate(t, lower(t, plan, OperatorLevel))
		var busy float64
		for _, b := range res.ComputeBusy {
			busy += b
		}
		return 1 - busy/(float64(p)*res.IterTime)
	}
	if b2, b4 := mk(2), mk(4); b4 <= b2 {
		t.Fatalf("bubble fraction should grow with depth: p=2 %.3f, p=4 %.3f", b2, b4)
	}
}

func TestGPipeSlowerOrEqualToOneFOneB(t *testing.T) {
	// With equal micro-batch counts the two schedules have identical
	// bubble structure in a two-stage pipeline, but GPipe can never be
	// faster.
	base := parallel.Plan{Tensor: 1, Data: 1, Pipeline: 4, MicroBatch: 1, GlobalBatch: 16}
	gpipe := base
	gpipe.Schedule = parallel.GPipe
	r1 := simulate(t, lower(t, base, OperatorLevel))
	r2 := simulate(t, lower(t, gpipe, OperatorLevel))
	if r2.IterTime < r1.IterTime-1e-12 {
		t.Fatalf("GPipe %.6g faster than 1F1B %.6g", r2.IterTime, r1.IterTime)
	}
}

func TestMoreMicroBatchesAmortizeBubble(t *testing.T) {
	mk := func(nmb int) float64 {
		plan := parallel.Plan{Tensor: 1, Data: 1, Pipeline: 4, MicroBatch: 1, GlobalBatch: nmb}
		res := simulate(t, lower(t, plan, OperatorLevel))
		return res.IterTime / float64(nmb)
	}
	// Per-micro-batch cost shrinks as the bubble amortizes.
	if a, b := mk(4), mk(16); b >= a {
		t.Fatalf("per-micro-batch time should shrink: nmb=4 %.6g, nmb=16 %.6g", a, b)
	}
}

func TestDPAllReduceOverlapsBackward(t *testing.T) {
	// The gradient-bucket All-Reduce runs on the comm stream: its time
	// must not be fully serialized into the iteration. Compare d=2
	// bucketed vs an artificial serialization bound.
	plan := parallel.Plan{Tensor: 1, Data: 2, Pipeline: 1, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 4}
	g := lower(t, plan, OperatorLevel)
	res := simulate(t, g)
	serial := res.ComputeBusy[0] + res.CommBusy[0]
	if res.IterTime >= serial-1e-12 {
		t.Fatalf("no communication overlap: iter %.6g, serial bound %.6g", res.IterTime, serial)
	}
}

func TestCommTimesCounted(t *testing.T) {
	plan := parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 1}
	res := simulate(t, lower(t, plan, TaskLevel))
	for i, c := range res.CommBusy {
		if c <= 0 {
			t.Fatalf("stage %d has zero communication time under 3D parallelism", i)
		}
	}
	if res.FLOPs <= 0 {
		t.Fatal("FLOPs accounting missing")
	}
}

// brokenComm prices everything at zero, to exercise lowering edge cases.
type zeroComm struct{}

func (zeroComm) AllReduce(bytes float64, n int, intra bool) float64 { return 0 }
func (zeroComm) SendRecv(bytes float64, sameNode bool) float64      { return 0 }

func TestZeroCommStillSimulates(t *testing.T) {
	c := hw.PaperCluster(8)
	plan := parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 1}
	og, err := opgraph.Build(tinyModel(), plan, c)
	if err != nil {
		t.Fatal(err)
	}
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	g := Lower(og, prof, OperatorLevel)
	res := simulate(t, boundGraph{g: g, tbl: g.Bind(prof, zeroComm{}, plan, c)})
	if res.IterTime <= 0 {
		t.Fatal("zero-comm simulation produced non-positive time")
	}
}

func TestSimulationMonotoneInKernelDurations(t *testing.T) {
	// Property: slowing down the device can never speed up the
	// iteration (monotonicity of the replay).
	c := hw.PaperCluster(8)
	plan := parallel.Plan{Tensor: 2, Data: 1, Pipeline: 2, MicroBatch: 1, GlobalBatch: 4}
	og, err := opgraph.Build(tinyModel(), plan, c)
	if err != nil {
		t.Fatal(err)
	}
	cm := comm.NewModel(c)
	run := func(dev *gpu.Device) (Result, error) {
		prof := profiler.New(dev)
		g := Lower(og, prof, OperatorLevel)
		return g.Replay(g.Bind(prof, cm, plan, c), nil)
	}
	f := func(slowdown8 uint8) bool {
		slow := 1 + float64(slowdown8)/64
		fast := gpu.NewDevice(c.Node.GPU)
		slower := gpu.NewDevice(c.Node.GPU)
		slower.MaxTensorEff = fast.MaxTensorEff / slow
		slower.MemEff = fast.MemEff / slow
		rFast, err1 := run(fast)
		rSlow, err2 := run(slower)
		return err1 == nil && err2 == nil && rSlow.IterTime >= rFast.IterTime-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAllTasksExecuted(t *testing.T) {
	plan := parallel.Plan{Tensor: 1, Data: 2, Pipeline: 4, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2, Recompute: true}
	g := lower(t, plan, TaskLevel)
	res := simulate(t, g)
	if res.Executed != g.g.NumTasks() {
		t.Fatalf("executed %d of %d tasks", res.Executed, g.g.NumTasks())
	}
}

func TestZeroTaskGraphErrors(t *testing.T) {
	// Regression: a graph with no tasks used to replay "successfully" into
	// an all-zero Result, which core then dressed up as a plausible
	// all-zero Report. It must be an explicit error on every replay path,
	// bound or not.
	g, tbl := mustBuild(t, NewBuilder(1))
	for _, tb := range []*DurationTable{nil, tbl} {
		if _, err := g.Replay(tb, nil); err == nil {
			t.Fatal("Replay on a zero-task graph must error")
		}
		if _, _, err := g.ReplayTrace(tb, nil, nil); err == nil {
			t.Fatal("ReplayTrace on a zero-task graph must error")
		}
		if _, err := g.ReplayBatchContended([]*DurationTable{tb}, nil); err == nil {
			t.Fatal("ReplayBatchContended on a zero-task graph must error")
		}
	}
}

func TestStructuralGraphRequiresBinding(t *testing.T) {
	// A structural graph has no durations of its own: replaying it without
	// a bound table (or with a table of the wrong size) must fail loudly
	// rather than simulate every task at zero seconds.
	plan := parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2}
	b := lower(t, plan, OperatorLevel)
	if _, err := b.g.Replay(nil, nil); err == nil {
		t.Fatal("Replay(nil) on a structural graph must error")
	}
	if _, _, err := b.g.ReplayTrace(nil, nil, b.labels); err == nil {
		t.Fatal("ReplayTrace(nil) on a structural graph must error")
	}
	other := lower(t, parallel.Plan{Tensor: 1, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 2}, OperatorLevel)
	if _, err := b.g.Replay(other.tbl, nil); err == nil {
		t.Fatal("Replay with a mismatched table must error")
	}
}

func TestBindSharedGraphAcrossPlans(t *testing.T) {
	// One structural graph, two bindings: the plan with double the tensor
	// width must see different durations through the same structure, and
	// binding must leave the graph untouched.
	c := hw.PaperCluster(8)
	base := parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2}
	wide := parallel.Plan{Tensor: 4, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2}
	og, err := opgraph.Build(tinyModel(), base, c)
	if err != nil {
		t.Fatal(err)
	}
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	g := Lower(og, prof, OperatorLevel)
	cm := comm.NewModel(c)

	rBase, err := g.Replay(g.Bind(prof, cm, base, c), nil)
	if err != nil {
		t.Fatal(err)
	}
	rWide, err := g.Replay(g.Bind(prof, cm, wide, c), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rWide.IterTime == rBase.IterTime || rWide.FLOPs == rBase.FLOPs {
		t.Fatalf("t=4 binding should differ from t=2: iter %.6g vs %.6g", rWide.IterTime, rBase.IterTime)
	}
	// Rebinding the first plan reproduces its result exactly: nothing about
	// the wide binding leaked into the shared structure.
	rAgain, err := g.Replay(g.Bind(prof, cm, base, c), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rAgain.IterTime != rBase.IterTime || rAgain.FLOPs != rBase.FLOPs {
		t.Fatalf("re-binding diverged: %.9g vs %.9g", rAgain.IterTime, rBase.IterTime)
	}
}

func TestBuildRejectsCycle(t *testing.T) {
	// A hand-built cyclic graph must be reported, not spin. Build fixes the
	// dispatch order, so a cycle is found there, before any replay.
	for name, edges := range map[string][][2]int{
		"two-cycle":          {{0, 1}, {1, 0}},
		"self-loop":          {{0, 0}},
		"cycle behind roots": {{2, 0}, {0, 1}, {1, 0}, {1, 3}},
	} {
		b := NewBuilder(1)
		for i := 0; i < 4; i++ {
			b.AddTask(0, ComputeStream, i, compute(profiler.FwdMHA), 1)
		}
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		if g, _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Fatalf("%s: Build = (%v, %v), want a cycle error", name, g, err)
		}
	}
	b := NewBuilder(1)
	b.AddTask(0, ComputeStream, 0, compute(profiler.FwdMHA), 1)
	b.AddEdge(0, 1)
	if _, _, err := b.Build(); err == nil {
		t.Fatal("an edge to an unknown task must be a Build error")
	}
}

// TestBuilderEdgeOrderIrrelevant pins the dispatch order's tie-break:
// finalize visits a task's children in ascending provisional id, not in
// the order their edges were added, so every insertion order of one edge
// set builds a byte-identical graph. Root a releases b and c, whose edges
// are listed c first; d waits on c, and e on b and d. The FIFO order is
// a, b, c, d, e, where edge-insertion order would dispatch c before b.
func TestBuilderEdgeOrderIrrelevant(t *testing.T) {
	edges := [][2]int{{0, 2}, {0, 1}, {2, 3}, {1, 4}, {3, 4}}
	var want []byte
	rng := rand.New(rand.NewSource(1))
	for try := 0; try < 8; try++ {
		b := NewBuilder(1)
		for i := 0; i < 5; i++ {
			b.AddTask(0, ComputeStream, i, compute(profiler.FwdMHA), 1)
		}
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		g, _ := mustBuild(t, b)
		for id := 0; id < g.NumTasks(); id++ {
			if src := b.Source(id); src != id {
				t.Fatalf("edges %v: task %d has source %d, want dispatch order a, b, c, d, e", edges, id, src)
			}
		}
		data, err := g.MarshalArtifact()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = data
		} else if !bytes.Equal(data, want) {
			t.Fatalf("edges %v: the graph differs from the one built from the first insertion order", edges)
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	}
}

func TestBuilderAdjacency(t *testing.T) {
	// Tasks are added out of dispatch order: c and d depend on a, which is
	// added second, and e depends on d then c. Build renumbers them into
	// Algorithm 1's FIFO order a, c, d, e, which Builder.Source identifies.
	// a and d share class FwdMHA, c is FwdFFN and e FwdLMHead.
	b := NewBuilder(1)
	c := b.AddTask(0, ComputeStream, 1, compute(profiler.FwdFFN), 1)
	a := b.AddTask(0, ComputeStream, 0, compute(profiler.FwdMHA), 1)
	d := b.AddTask(0, ComputeStream, 2, compute(profiler.FwdMHA), 1)
	e := b.AddTask(0, ComputeStream, 3, compute(profiler.FwdLMHead), 1)
	b.AddEdge(a, c)
	b.AddEdge(a, d)
	b.AddEdge(d, e)
	b.AddEdge(c, e)
	g, tbl := mustBuild(t, b)
	for id := 0; id < g.NumTasks(); id++ {
		if src := b.Source(id); src != id {
			t.Fatalf("task %d has source %d, want dispatch order a, c, d, e", id, src)
		}
	}
	if want := []int32{0, 0, 1, 2, 4}; !reflect.DeepEqual(g.parentStart, want) {
		t.Fatalf("parentStart = %v, want %v", g.parentStart, want)
	}
	// e's parents list in ascending id although d -> e was added first.
	if want := []int32{0, 0, 1, 2}; !reflect.DeepEqual(g.parents, want) {
		t.Fatalf("parents = %v, want %v", g.parents, want)
	}
	res, err := g.Replay(tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, 0, res, referenceReplay(g, tbl, nil))
	if res.Executed != 4 || res.ClassSeconds["FwdMHA"] != 2 || res.ClassSeconds["FwdFFN"] != 1 || res.IterTime != 4 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestConcurrentReplaysAgree(t *testing.T) {
	// The acceptance property of the immutable-graph refactor: one
	// lowered graph replayed from many goroutines (run under -race)
	// yields identical results, repeatedly.
	plan := parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2}
	g := lower(t, plan, TaskLevel)
	want := simulate(t, g)

	const replays = 32
	results := make([]Result, replays)
	errs := make([]error, replays)
	var wg sync.WaitGroup
	for i := 0; i < replays; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = g.g.Replay(g.tbl, nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < replays; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		got := results[i]
		if got.IterTime != want.IterTime || got.Executed != want.Executed || got.FLOPs != want.FLOPs {
			t.Fatalf("replay %d diverged: %+v vs %+v", i, got, want)
		}
		for class, sec := range want.ClassSeconds {
			if got.ClassSeconds[class] != sec {
				t.Fatalf("replay %d class %q = %g, want %g", i, class, got.ClassSeconds[class], sec)
			}
		}
		for d := range want.ComputeBusy {
			if got.ComputeBusy[d] != want.ComputeBusy[d] || got.CommBusy[d] != want.CommBusy[d] {
				t.Fatalf("replay %d device %d busy time diverged", i, d)
			}
		}
	}
}

func TestRecomputeIncreasesIterationTime(t *testing.T) {
	base := parallel.Plan{Tensor: 1, Data: 1, Pipeline: 2, MicroBatch: 1, GlobalBatch: 4}
	rec := base
	rec.Recompute = true
	r1 := simulate(t, lower(t, base, OperatorLevel))
	r2 := simulate(t, lower(t, rec, OperatorLevel))
	if r2.IterTime <= r1.IterTime {
		t.Fatalf("recompute should cost time: %.6g vs %.6g", r2.IterTime, r1.IterTime)
	}
	// The overhead is bounded by the forward pass (~1/3 of fwd+bwd).
	if r2.IterTime > 1.6*r1.IterTime {
		t.Fatalf("recompute overhead implausible: %.6g vs %.6g", r2.IterTime, r1.IterTime)
	}
}
