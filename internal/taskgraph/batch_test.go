package taskgraph

import (
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
// shape, only their bound durations differ.
func batchFixture(t *testing.T, plans []parallel.Plan) (*Graph, []*DurationTable) {
	t.Helper()
	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	og, err := opgraph.Build(tinyModel(), plans[0], c)
	if err != nil {
		t.Fatal(err)
	}
	g := Lower(og, prof, OperatorLevel)
	cm := comm.NewModel(c)
	tables := make([]*DurationTable, len(plans))
	for i, plan := range plans {
		tables[i] = g.Bind(prof, cm, plan, c)
	}
	return g, tables
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

// checkLanes replays every (tables[i], cts[i]) pair at widths 1, 3, 8, and
// 16 — wider batches cycle the pairs, so duplicated lanes must reproduce
// the same result — and through the single-lane Replay and ReplayTrace, and
// requires every lane to match referenceReplay bit for bit. cts may be nil
// (a fully ideal batch) or hold nil entries (ideal lanes in a mixed batch).
func checkLanes(t *testing.T, g *Graph, tables []*DurationTable, cts []*ContentionTable) {
	t.Helper()
	ctOf := func(i int) *ContentionTable {
		if cts == nil {
			return nil
		}
		return cts[i]
	}
	want := make([]Result, len(tables))
	for i, tbl := range tables {
		want[i] = referenceReplay(g, tbl, ctOf(i))
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
	for _, k := range []int{1, 3, 8, 16} {
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
// mixing micro-batch sizes (same micro-batch count, so one structure;
// different data widths, so different durations per lane).
func TestReplayBatchEquivalence(t *testing.T) {
	// All plans share (pipeline depth 2, 8 micro-batches): d=1,mb=2 and
	// d=2,mb=1 both split GlobalBatch 16 into 8 micro-batches, and tensor
	// width never affects structure. One graph, eight distinct tables.
	plans := []parallel.Plan{
		{Tensor: 1, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 2, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 1, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 4, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 4, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 1, Data: 4, Pipeline: 2, MicroBatch: 2, GlobalBatch: 64, GradientBuckets: 2},
		{Tensor: 2, Data: 4, Pipeline: 2, MicroBatch: 2, GlobalBatch: 64, GradientBuckets: 2},
	}
	g, tables := batchFixture(t, plans)
	checkLanes(t, g, tables, nil)
	checkLanes(t, g, tables, bindContention(g, plans, tables, hw.PaperCluster(8)))

	// Batch composition must not leak between lanes: the same table in a
	// different lane position still reproduces its reference result.
	perm := []int{5, 0, 3}
	permTables := make([]*DurationTable, len(perm))
	for lane, i := range perm {
		permTables[lane] = tables[i]
	}
	checkLanes(t, g, permTables, nil)
}

// bindContention binds a contention table per plan over the shared graph.
func bindContention(g *Graph, plans []parallel.Plan, tables []*DurationTable, c hw.Cluster) []*ContentionTable {
	cts := make([]*ContentionTable, len(plans))
	for i, plan := range plans {
		cts[i] = g.BindContention(plan, c, tables[i])
	}
	return cts
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
