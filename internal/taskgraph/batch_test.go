package taskgraph

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vtrain/internal/comm"
	"vtrain/internal/gpu"
	"vtrain/internal/hw"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

// batchFixture lowers one structural graph and binds a table per plan, the
// way SimulateBatch feeds ReplayBatchContended: all plans share the graph's
// shape, only their bound durations differ. It fails unless every plan is
// valid on the fixture cluster and lowers to plans[0]'s graph, so a plan
// set cannot silently bind onto a structure it does not have.
func batchFixture(t *testing.T, plans []parallel.Plan) (*Graph, []*DurationTable) {
	t.Helper()
	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	var g *Graph
	for _, plan := range plans {
		og, err := opgraph.Build(tinyModel(), plan, c)
		if err != nil {
			t.Fatalf("%s: %v", plan, err)
		}
		pg := Lower(og, prof, OperatorLevel)
		og.Recycle()
		if g == nil {
			g = pg
		} else if !reflect.DeepEqual(pg, g) {
			t.Fatalf("%s lowers to a different graph than %s", plan, plans[0])
		}
	}
	cm := comm.NewModel(c)
	tables := make([]*DurationTable, len(plans))
	for i, plan := range plans {
		tables[i] = g.Bind(prof, cm, plan, c)
	}
	return g, tables
}

// oneShapePlans share one structure with tensor-parallel and data-parallel
// All-Reduces in it (t > 1 and d > 1 are shape fields): pipeline depth 2
// and 8 micro-batches of GlobalBatch 64, over mixed tensor widths, data
// widths and micro-batch sizes, so every lane binds different durations.
func oneShapePlans() []parallel.Plan {
	return []parallel.Plan{
		{Tensor: 2, Data: 8, Pipeline: 2, MicroBatch: 1, GlobalBatch: 64, GradientBuckets: 2},
		{Tensor: 4, Data: 4, Pipeline: 2, MicroBatch: 2, GlobalBatch: 64, GradientBuckets: 2},
		{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 4, GlobalBatch: 64, GradientBuckets: 2},
		{Tensor: 4, Data: 2, Pipeline: 2, MicroBatch: 4, GlobalBatch: 64, GradientBuckets: 2},
	}
}

// requireIdentical fails unless got and want are bit-identical — float
// equality is exact, not approximate, because each batch lane must perform
// the sequential replay's operations in the same order.
func requireIdentical(t *testing.T, lane int, got, want Result) {
	t.Helper()
	if got.IterTime != want.IterTime {
		t.Fatalf("lane %d: IterTime %v != sequential %v", lane, got.IterTime, want.IterTime)
	}
	if got.FLOPs != want.FLOPs {
		t.Fatalf("lane %d: FLOPs %v != sequential %v", lane, got.FLOPs, want.FLOPs)
	}
	if got.Executed != want.Executed {
		t.Fatalf("lane %d: Executed %d != sequential %d", lane, got.Executed, want.Executed)
	}
	for d := range want.ComputeBusy {
		if got.ComputeBusy[d] != want.ComputeBusy[d] {
			t.Fatalf("lane %d: ComputeBusy[%d] %v != sequential %v", lane, d, got.ComputeBusy[d], want.ComputeBusy[d])
		}
		if got.CommBusy[d] != want.CommBusy[d] {
			t.Fatalf("lane %d: CommBusy[%d] %v != sequential %v", lane, d, got.CommBusy[d], want.CommBusy[d])
		}
	}
	if len(got.ClassSeconds) != len(want.ClassSeconds) {
		t.Fatalf("lane %d: %d classes != sequential %d", lane, len(got.ClassSeconds), len(want.ClassSeconds))
	}
	for class, sec := range want.ClassSeconds {
		if got.ClassSeconds[class] != sec {
			t.Fatalf("lane %d: ClassSeconds[%q] %v != sequential %v", lane, class, got.ClassSeconds[class], sec)
		}
	}
}

// checkLanes binds a contention table for every non-nil places[i] and
// replays every (tables[i], cts[i]) pair at widths 1, 3, 8, 16, and
// len(tables) — wider batches cycle the pairs, so duplicated lanes must
// reproduce the same result — and through the single-lane Replay and
// ReplayTrace, and requires every lane to match referenceReplay of
// places[i] bit for bit. places may be nil (a fully ideal batch: a nil cts
// slice) or hold nil entries (ideal lanes in a mixed batch: nil tables in
// cts).
func checkLanes(t *testing.T, g *Graph, tables []*DurationTable, places []*placement) {
	t.Helper()
	var cts []*ContentionTable
	if places != nil {
		cts = make([]*ContentionTable, len(places))
		for i, pl := range places {
			if pl != nil {
				cts[i] = g.BindContention(pl.plan, pl.c, tables[i])
			}
		}
	}
	ctOf := func(i int) *ContentionTable {
		if cts == nil {
			return nil
		}
		return cts[i]
	}
	placeOf := func(i int) *placement {
		if places == nil {
			return nil
		}
		return places[i]
	}
	want := make([]Result, len(tables))
	for i, tbl := range tables {
		want[i] = referenceReplay(g, tbl, placeOf(i))
		got, err := g.Replay(tbl, ctOf(i))
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, i, got, want[i])
		traced, spans, err := g.ReplayTrace(tbl, ctOf(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, i, traced, want[i])
		if len(spans) != want[i].Executed {
			t.Fatalf("table %d: %d spans for %d tasks", i, len(spans), want[i].Executed)
		}
	}
	for _, k := range []int{1, 3, 8, 16, len(tables)} {
		wideTables := make([]*DurationTable, k)
		var wideCts []*ContentionTable
		if cts != nil {
			wideCts = make([]*ContentionTable, k)
		}
		for l := range wideTables {
			wideTables[l] = tables[l%len(tables)]
			if cts != nil {
				wideCts[l] = cts[l%len(cts)]
			}
		}
		got, err := g.ReplayBatchContended(wideTables, wideCts)
		if err != nil {
			t.Fatalf("width %d: %v", k, err)
		}
		if len(got) != k {
			t.Fatalf("width %d: got %d results", k, len(got))
		}
		for l := 0; l < k; l++ {
			requireIdentical(t, l, got[l], want[l%len(want)])
		}
	}
}

// TestReplayBatchEquivalence pins the batch contract against the reference
// replay: every lane at widths 1, 3, 8, and 16 is bit-identical to
// referenceReplay of its own table, ideal and contended, for a shape group
// mixing tensor widths, data widths and micro-batch sizes (one structure,
// different durations per lane).
func TestReplayBatchEquivalence(t *testing.T) {
	plans := oneShapePlans()
	g, tables := batchFixture(t, plans)
	checkLanes(t, g, tables, nil)
	checkLanes(t, g, tables, placements(plans, hw.PaperCluster(8)))

	// Batch composition must not leak between lanes: the same table in a
	// different lane position still reproduces its reference result.
	perm := []int{3, 0, 2}
	permTables := make([]*DurationTable, len(perm))
	for lane, i := range perm {
		permTables[lane] = tables[i]
	}
	checkLanes(t, g, permTables, nil)
}

// TestBatchScratchKeepsCapacity pins the pooled replay scratch's storage
// rule: a scratch keeps what it grew. A sweep that replays a wide batch of
// a large graph, then many small graphs, then the large one again must
// find the large finish slab still in place rather than re-make it.
func TestBatchScratchKeepsCapacity(t *testing.T) {
	const largeTasks, smallTasks, devices, classes = 50000, 100, 8, 7
	sc := new(batchScratch)
	sc.reset(largeTasks, devices, classes, 16)
	slab := &sc.finish[:cap(sc.finish)][0]
	for i := 0; i < 16; i++ {
		sc.reset(smallTasks, 1, classes, 1)
	}
	sc.reset(largeTasks, devices, classes, 16)
	if &sc.finish[:cap(sc.finish)][0] != slab {
		t.Fatalf("finish slab re-made after small resets (cap %d)", cap(sc.finish))
	}
}

// placements places every plan on c.
func placements(plans []parallel.Plan, c hw.Cluster) []*placement {
	places := make([]*placement, len(plans))
	for i, plan := range plans {
		places[i] = &placement{plan, c}
	}
	return places
}

// TestReplayBatchValidation pins the error contract: empty batches are a
// nil no-op, nil and mis-sized tables are rejected before any replay work.
func TestReplayBatchValidation(t *testing.T) {
	plans := []parallel.Plan{
		{Tensor: 1, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2},
	}
	g, tables := batchFixture(t, plans)

	if res, err := g.ReplayBatchContended(nil, nil); res != nil || err != nil {
		t.Fatalf("empty batch: got (%v, %v), want (nil, nil)", res, err)
	}
	if _, err := g.ReplayBatchContended([]*DurationTable{tables[0], nil}, nil); err == nil || !strings.Contains(err.Error(), "nil") {
		t.Fatalf("nil table: err = %v", err)
	}

	other := parallel.Plan{Tensor: 1, Data: 1, Pipeline: 4, MicroBatch: 1, GlobalBatch: 8}
	_, wrong := batchFixture(t, []parallel.Plan{other})
	if _, err := g.ReplayBatchContended([]*DurationTable{wrong[0]}, nil); err == nil || !strings.Contains(err.Error(), "binds") {
		t.Fatalf("mis-sized table: err = %v", err)
	}
	if _, err := g.Replay(wrong[0], nil); err == nil || !strings.Contains(err.Error(), "binds") {
		t.Fatalf("mis-sized table (Replay): err = %v", err)
	}
}

// fuzzPalette holds the literal durations FuzzReplay draws from: zero, the
// smallest subnormal, and magnitudes from a nanosecond to 1e300.
var fuzzPalette = [...]float64{0, 5e-324, 1e-9, 1, 1e300}

// fuzzTask is one task of a fuzzed DAG: its placement, descriptor and
// literal duration.
type fuzzTask struct {
	device int
	stream Stream
	desc   durDesc
	dur    float64
}

// fuzzDAG decodes data into the inputs of a hand-built DAG: the device
// count (1-4) and a shuffle seed from the first two bytes, then two bytes
// per task (at most 48): the first picks the device, stream, descriptor and
// duration, the second is a mask over the eight previously added tasks,
// each set bit adding an edge from that task. A compute-stream task gets one
// of three operator descriptors; a comm-stream task a tensor-parallel,
// data-parallel, or pipeline descriptor, whose producer stage lies within
// the device count. Edges are returned in a shuffled insertion order.
func fuzzDAG(data []byte) (devices int, tasks []fuzzTask, edges [][2]int) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	devices = 1 + int(at(0)%4)
	ops := [...]profiler.OpKind{profiler.FwdMHA, profiler.BwdFFN, profiler.WeightUpdate}
	for i := 0; 2+2*i+1 < len(data) && i < 48; i++ {
		a, mask := at(2+2*i), at(3+2*i)
		t := fuzzTask{device: int(a) % devices, stream: Stream(a / 4 % 2), dur: fuzzPalette[int(a/24)%len(fuzzPalette)]}
		t.desc = compute(ops[a/8%3])
		if t.stream == CommStream {
			t.desc = [...]durDesc{
				{kind: descAllReduceTP},
				{kind: descAllReduceDP, stageParams: 1 << 20, buckets: 1},
				{kind: descP2P, from: int32(a/32) % int32(devices), to: int32(t.device)},
			}[a/8%3]
		}
		tasks = append(tasks, t)
		for j := 0; j < 8 && j < i; j++ {
			if mask&(1<<j) != 0 {
				edges = append(edges, [2]int{i - 1 - j, i})
			}
		}
	}
	rand.New(rand.NewSource(int64(at(1)))).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return devices, tasks, edges
}

// fuzzPlacement decodes a placement a fuzzed DAG's contended replay binds:
// tensor and data widths of 1-8 from b's upper bits, over just enough 8-GPU
// nodes, with one node per leaf and a 2:1 oversubscribed spine when bit 6
// is set, so inter-node flows also contend on the spine.
func fuzzPlacement(b byte, devices int) *placement {
	plan := parallel.Plan{Tensor: 1 << (b / 4 % 4), Data: 1 << (b / 16 % 4), Pipeline: devices, MicroBatch: 1}
	plan.GlobalBatch = plan.Data
	c := hw.PaperCluster((devices*plan.Tensor*plan.Data + 7) / 8)
	if b&64 != 0 {
		c.NodesPerLeaf, c.Oversubscription = 1, 2
	}
	return &placement{plan, c}
}

// buildFuzzDAG hand-builds the decoded DAG, plus any extra edges.
func buildFuzzDAG(devices int, tasks []fuzzTask, edges [][2]int, extra ...[2]int) (*Graph, *DurationTable, error) {
	b := NewBuilder(devices)
	for i, t := range tasks {
		b.AddTask(t.device, t.stream, i, t.desc, t.dur)
	}
	for _, e := range append(edges, extra...) {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// FuzzReplay is the replay engine's fuzzer. Over hand-built DAGs with
// shuffled edge-insertion order it checks that Build numbers tasks in
// Algorithm 1's FIFO order (roots in insertion order, children in
// ascending insertion id, whatever the edge order), that Replay matches
// referenceReplay bit for bit
// under several duration tables, ideal and contended on two placements the
// first two bytes decode, that every lane of ReplayBatchContended at widths
// 1-17 matches Replay, ideal and in a batch mixing both placements with
// ideal lanes, that IterTime bounds every slot's busy seconds, that
// contention never shortens a task or the iteration, that raising one
// task's duration never lowers IterTime (replay is a max-plus recurrence
// over a dispatch order fixed when the graph is built), and that a back
// edge makes Build fail.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 7, 0, 0, 5, 1, 24, 1, 48, 3, 72, 6, 96, 5})
	f.Add([]byte{3, 42, 1, 0, 2, 0, 3, 0, 4, 15, 13, 1, 30, 2, 55, 12, 80, 255, 101, 128})
	f.Add([]byte{2, 9, 4, 0, 29, 1, 4, 1, 53, 2, 12, 3, 77, 4, 100, 9, 4, 0, 117, 17})
	// Four stages at t=4, d=8 on a blocking spine: four concurrent
	// data-parallel collectives and two transfers contend on the spine,
	// beside a tensor-parallel collective and a compute task.
	f.Add([]byte{123, 5, 84, 0, 85, 0, 86, 0, 87, 0, 92, 0, 93, 1, 76, 0, 48, 3})
	// Two stages, each a tensor-parallel group filling its own node
	// (t=8): both stages run a TP and a DP collective and receive a
	// transfer, every link class has one owner, and every route is cleared.
	f.Add([]byte{13, 0, 76, 0, 77, 0, 84, 0, 85, 0, 93, 0, 92, 0, 73, 1})
	// The same tasks at t=2: both stages sit on node 0, so their
	// collectives share its NVSwitch and contend.
	f.Add([]byte{5, 0, 76, 0, 77, 0, 84, 0, 85, 0, 93, 0, 92, 0, 73, 1})
	// Both in one batch: the first placement (t=8) clears every class, the
	// second (t=2) shares node 0's NVSwitch, so only the t=2 lanes contend.
	f.Add([]byte{13, 5, 76, 0, 77, 0, 84, 0, 85, 0, 93, 0, 92, 0, 73, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		devices, tasks, edges := fuzzDAG(data)
		if len(tasks) == 0 {
			return
		}
		g, literal, err := buildFuzzDAG(devices, tasks, edges)
		if err != nil {
			t.Fatalf("acyclic graph: %v", err)
		}

		// The FIFO order over insertion ids, computed naively, visiting
		// each task's children in ascending id.
		children := make([][]int, len(tasks))
		ref := make([]int, len(tasks))
		for _, e := range edges {
			children[e[0]] = append(children[e[0]], e[1])
			ref[e[1]]++
		}
		for _, c := range children {
			slices.Sort(c)
		}
		var order []int
		for i := range tasks {
			if ref[i] == 0 {
				order = append(order, i)
			}
		}
		for head := 0; head < len(order); head++ {
			for _, c := range children[order[head]] {
				if ref[c]--; ref[c] == 0 {
					order = append(order, c)
				}
			}
		}
		for id, src := range order {
			if got := g.TaskAt(id).Source; got != src {
				t.Fatalf("task %d has source %d, want FIFO order %v", id, got, order)
			}
		}

		// Lane 0 is the literal binding; the others cycle each
		// descriptor's duration and FLOPs through the palette.
		const widest = 17
		tables := []*DurationTable{literal}
		for l := 1; l < widest; l++ {
			tbl := &DurationTable{vals: make([]descVal, len(g.descs)), durIdx: g.durIdx}
			for di, v := range literal.vals {
				p := 0
				for fuzzPalette[p] != v.dur {
					p++
				}
				tbl.vals[di] = descVal{fuzzPalette[(p+l)%len(fuzzPalette)], fuzzPalette[(p+2*l)%len(fuzzPalette)]}
			}
			tables = append(tables, tbl)
		}
		want := make([]Result, widest)
		for l, tbl := range tables {
			if want[l], err = g.Replay(tbl, nil); err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, l, want[l], referenceReplay(g, tbl, nil))
			for d := 0; d < devices; d++ {
				if want[l].ComputeBusy[d] > want[l].IterTime || want[l].CommBusy[d] > want[l].IterTime {
					t.Fatalf("lane %d: device %d is busy longer than the iteration %v", l, d, want[l].IterTime)
				}
			}
		}
		traced, spans, err := g.ReplayTrace(tables[0], nil, nil)
		if err != nil || len(spans) != len(tasks) {
			t.Fatalf("ReplayTrace: %d spans, err %v", len(spans), err)
		}
		requireIdentical(t, 0, traced, want[0])
		for k := 1; k <= widest; k++ {
			got, err := g.ReplayBatchContended(tables[:k], nil)
			if err != nil {
				t.Fatal(err)
			}
			for l := range got {
				requireIdentical(t, l, got[l], want[l])
			}
		}

		// Under contention every lane matches the reference of its own
		// placement, and so does the batch. The lanes cycle through two
		// placements, decoded from the first two bytes, and an ideal lane,
		// so the batch mixes lanes that can contend on different tasks.
		// Spans are in id order; a task's contended span covers at least
		// its ideal duration (End = Start + derated duration, and rounding
		// is monotone, so the comparison is exact), and the iteration never
		// shortens.
		places := []*placement{fuzzPlacement(data[0], devices), fuzzPlacement(data[1], devices), nil}
		bound := make([]*ContentionTable, len(places))
		for i, pl := range places {
			if pl != nil {
				bound[i] = g.BindContention(pl.plan, pl.c, literal)
			}
		}
		cts := make([]*ContentionTable, widest)
		contended := make([]Result, widest)
		for l, tbl := range tables {
			cts[l] = bound[l%len(bound)]
			res, spans, err := g.ReplayTrace(tbl, cts[l], nil)
			if err != nil {
				t.Fatal(err)
			}
			contended[l] = res
			requireIdentical(t, l, res, referenceReplay(g, tbl, places[l%len(places)]))
			for id, sp := range spans {
				if ideal := tbl.Duration(id); sp.End < sp.Start+ideal {
					t.Fatalf("lane %d: task %d's contended span [%v, %v) is shorter than its ideal duration %v", l, id, sp.Start, sp.End, ideal)
				}
			}
			if res.IterTime < want[l].IterTime {
				t.Fatalf("lane %d: contended IterTime %v < ideal %v", l, res.IterTime, want[l].IterTime)
			}
		}
		got, err := g.ReplayBatchContended(tables, cts)
		if err != nil {
			t.Fatal(err)
		}
		for l := range got {
			requireIdentical(t, l, got[l], contended[l])
		}

		slower := append([]fuzzTask(nil), tasks...)
		k := int(data[1]) % len(tasks)
		slower[k].dur = 2*slower[k].dur + 1
		sg, stbl, err := buildFuzzDAG(devices, slower, edges)
		if err != nil {
			t.Fatal(err)
		}
		raised, err := sg.Replay(stbl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if raised.IterTime < want[0].IterTime {
			t.Fatalf("raising task %d's duration %v -> %v lowered IterTime %v -> %v", k, tasks[k].dur, slower[k].dur, want[0].IterTime, raised.IterTime)
		}

		back := [2]int{0, 0} // a self-loop when there is no edge to reverse
		if len(edges) > 0 {
			back = [2]int{edges[0][1], edges[0][0]}
		}
		if _, _, err := buildFuzzDAG(devices, tasks, edges, back); err == nil {
			t.Fatalf("back edge %v: Build accepted a cycle", back)
		}
	})
}
