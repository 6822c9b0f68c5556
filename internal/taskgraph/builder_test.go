package taskgraph

import (
	"fmt"
	"slices"
	"testing"

	"vtrain/internal/profiler"
)

// Task is one task of a graph as tests inspect it: the structural
// attributes TaskAt assembles from the graph's slabs.
type Task struct {
	// ID is the task's index in the graph.
	ID int
	// Device is the logical device (pipeline stage).
	Device int
	// Stream is the device resource the task occupies.
	Stream Stream
	// Class is the accounting class of the task's descriptor.
	Class string
}

// TaskAt assembles the task value for id from the slabs.
func (g *Graph) TaskAt(id int) Task {
	slot := g.slotOf[id]
	return Task{
		ID:     id,
		Device: int(slot / 2),
		Stream: Stream(slot % 2),
		Class:  g.classes[g.descClass[g.durIdx[id]]],
	}
}

// Builder hand-builds a graph for tests through the same finalize and
// indexClasses as Lower. Each task carries a real descriptor, which Bind
// prices, and a literal duration, which the table Build returns binds it
// to. Tasks sharing a descriptor and a duration share a descriptor entry.
type Builder struct {
	g      Graph
	tasks  []provTask
	edges  [][2]int32
	descID map[literalDesc]int32
	lits   []float64
	// sources holds each task's originating operator by provisional id,
	// and order, once Build succeeds, each task's provisional id.
	sources, order []int32
}

// literalDesc is a descriptor together with its hand-built duration.
type literalDesc struct {
	d   durDesc
	dur float64
}

// NewBuilder starts a graph over the given number of logical devices.
func NewBuilder(devices int) *Builder {
	return &Builder{g: Graph{Devices: devices}, descID: make(map[literalDesc]int32)}
}

// compute is the descriptor of a hand-built computation task of kind op.
func compute(op profiler.OpKind) durDesc { return durDesc{kind: descOperator, op: op} }

// AddTask appends a task on device's stream, originating from operator
// source, priced by d under Bind and at dur seconds under the table Build
// returns. It returns the task's provisional ID for AddEdge.
func (b *Builder) AddTask(device int, stream Stream, source int, d durDesc, dur float64) int {
	key := literalDesc{d, dur}
	di, ok := b.descID[key]
	if !ok {
		di = int32(len(b.g.descs))
		b.g.descs = append(b.g.descs, d)
		b.lits = append(b.lits, dur)
		b.descID[key] = di
	}
	b.tasks = append(b.tasks, provTask{int32(2*device) + int32(stream), di})
	b.sources = append(b.sources, int32(source))
	return len(b.tasks) - 1
}

// Source returns the operator that task id of the graph Build returned
// last originates from.
func (b *Builder) Source(id int) int { return int(b.sources[b.order[id]]) }

// AddEdge records that task to depends on task from. The order of AddEdge
// calls does not matter: Build groups the edges into each task's
// dependency row, and finalize visits a task's children in ascending
// provisional id.
func (b *Builder) AddEdge(from, to int) {
	b.edges = append(b.edges, [2]int32{int32(from), int32(to)})
}

// Build finalizes the accumulated tasks and edges into a Graph whose task
// ids are the dispatch order, so the provisional IDs AddTask returned do
// not survive: identify a built task by Source. It also returns a table
// binding every task to its literal duration, with zero FLOPs. A
// dependency cycle, or an edge naming an unknown task, is an error.
func (b *Builder) Build() (*Graph, *DurationTable, error) {
	n := len(b.tasks)
	depStart := make([]int32, n+1)
	for _, e := range b.edges {
		if uint32(e[1]) >= uint32(n) {
			return nil, nil, fmt.Errorf("taskgraph: edge %d -> %d names a task outside [0, %d)", e[0], e[1], n)
		}
		depStart[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		depStart[i+1] += depStart[i]
	}
	deps, next := make([]int32, len(b.edges)), slices.Clone(depStart)
	for _, e := range b.edges {
		deps[next[e[1]]] = e[0]
		next[e[1]]++
	}
	g := b.g
	var sc finalizeScratch
	if err := sc.finalize(&g, b.tasks, depStart, deps); err != nil {
		return nil, nil, err
	}
	b.order = sc.order
	g.indexClasses()
	tbl := &DurationTable{vals: make([]descVal, len(b.lits)), durIdx: g.durIdx}
	for di, dur := range b.lits {
		tbl.vals[di].dur = dur
	}
	return &g, tbl, nil
}

// mustBuild finalizes a hand-built graph, failing the test on a Build error.
func mustBuild(t testing.TB, b *Builder) (*Graph, *DurationTable) {
	t.Helper()
	g, tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, tbl
}
