// Package taskgraph lowers an operator-granularity execution graph into the
// task-granularity execution graph of Section III-D and replays it with the
// event-driven simulation of Algorithm 1 to estimate single-iteration
// training time.
//
// Each computation operator is replaced by the sequence of profiled kernels
// from the operator-to-task lookup table; each communication operator
// becomes a task priced by the communication model. Every logical device
// (pipeline stage) owns two resources: a compute stream executing kernels
// in order, and a communication stream, so gradient-bucket All-Reduces can
// overlap backward computation (Fig. 5a) while tensor-parallel All-Reduces
// remain serialized through their dependency edges.
//
// # Structure vs. timing
//
// Lowering is split into two phases so design-space sweeps can share work
// across plans:
//
//   - Lowering (LowerPlan, or Lower over a built operator graph) builds
//     the structural graph: tasks, dependencies, and a compact duration
//     descriptor per task — but no numbers. The structure depends only on
//     the plan's shape (schedule, pipeline depth, micro-batch count,
//     interleaving, layer split, fidelity), so one structural graph serves
//     every (t, d, micro-batch-size) variant of that shape.
//   - Bind resolves each descriptor against the profiler and the
//     communication model for one concrete plan, producing a DurationTable:
//     one priced (duration, FLOPs) value per descriptor, which Replay
//     gathers through the graph's per-task descriptor index.
//
// The lowering is the only producer of graphs, so every descriptor is one
// Bind prices, and a task's accounting class follows from its descriptor.
//
// A lowered Graph is immutable: all per-replay state (finish times,
// resource timelines) lives in a pooled scratch structure, and all per-plan
// numbers live in the DurationTable, so one graph can be bound and replayed
// repeatedly and from many goroutines concurrently — the property
// design-space sweeps rely on.
package taskgraph

import (
	"fmt"
	"sync"

	"vtrain/internal/comm"
	"vtrain/internal/model"
)

// Stream selects which per-device resource a task occupies.
type Stream int

const (
	// ComputeStream executes kernels.
	ComputeStream Stream = iota
	// CommStream executes collective and point-to-point transfers.
	CommStream
)

// Fidelity selects the lowering granularity.
type Fidelity int

const (
	// TaskLevel expands every operator into its individual kernels —
	// the paper's task-granularity graph, used for validation and
	// detailed single-configuration reports.
	TaskLevel Fidelity = iota
	// OperatorLevel keeps one task per operator with the summed kernel
	// durations — bit-identical iteration times for chained kernels at a
	// fraction of the cost, used inside design-space sweeps.
	OperatorLevel
)

// Graph is the task-granularity execution graph: flat per-task slabs plus
// a CSR of each task's parents. Once built it is never mutated, so it is
// safe to share across goroutines and replay any number of times.
//
// Task ids are the graph's dispatch order: the FIFO order in which
// Algorithm 1 pops tasks, fixed once when the graph is built (see
// finalize). Every parent therefore has a smaller id than its child, and
// replay is one forward pass over ids 0..n-1.
//
// Every per-task attribute lives in a flat slice (slotOf, durIdx). A task
// would carry nothing but indices — its durations bind per plan — so
// materializing a struct per task would only burn allocation, zeroing,
// and GC scan time in the sweep hot path, and would make disk-loaded graphs
// pay a per-task decode loop. Trace labels are not stored at all (see
// TraceLabels).
type Graph struct {
	// Devices is the number of logical devices (pipeline stages), each
	// owning one compute and one communication stream.
	Devices int
	// Model is the model the graph was lowered from. The model is part of
	// the structural shape — the layer split depends on it — so Bind
	// prices operators against it directly.
	Model model.Config

	// CSR adjacency: the parents of task i are
	// parents[parentStart[i]:parentStart[i+1]], in ascending id, each
	// below i.
	parentStart []int32
	parents     []int32
	// slotOf maps each task to its resource slot 2*Device + Stream. It
	// doubles as the per-task length (see NumTasks).
	slotOf []int32
	// descs is the compact duration-descriptor table: every distinct way a
	// task can be priced, deduplicated. durIdx maps each task to its
	// descriptor. Bind prices each descriptor once for one plan.
	descs  []durDesc
	durIdx []int32
	// classes holds the distinct accounting classes, and descClass maps
	// each descriptor to its class index, so replay accumulates a task's
	// busy seconds into a flat slice through its descriptor (see
	// indexClasses).
	classes   []string
	descClass []int32
}

// NumTasks returns the number of tasks in the graph.
func (g *Graph) NumTasks() int { return len(g.slotOf) }

// provTask is a task's slab entries under its provisional id, before
// finalize places them in dispatch order.
type provTask struct{ slot, desc int32 }

// finalizeScratch holds the temporaries of finalize, and a lowering's
// provisional tasks, each node's last task, and the tasks' dependency CSR.
// Lowerings pool it because sweeps lower many graphs, and only the finished
// slabs outlive a lowering.
type finalizeScratch struct {
	tasks                []provTask
	last, depStart, deps []int32
	at                   []taskOffsets
	children, order      []int32
}

// taskOffsets holds one provisional task's finalize state. child first
// counts the task's children, then becomes the end of its children row,
// which the backward fill leaves at the row's start: the row ends where the
// following task's begins. next is the task's dependency-row cursor, or -1
// when the task before it is a link that releases it.
type taskOffsets struct{ child, next int32 }

var finalizeScratchPool = sync.Pool{New: func() any { return new(finalizeScratch) }}

// finalize builds g's task slabs and parents CSR from tasks, given by
// provisional id, and their dependency CSR: the dependencies of task i are
// deps[depStart[i]:depStart[i+1]]. Task ids become the dispatch order:
// Algorithm 1's FIFO order, roots in id order, then each task as soon as
// its last dependency has dispatched, visiting each task's children in
// ascending provisional id. The order depends only on the structure, so it
// is fixed here once rather than on every replay. A task that never
// becomes ready lies on or behind a dependency cycle, which is an error.
// finalize overwrites deps: each row is reused for the parents dispatched
// so far. Afterwards sc.order[id] is the provisional id of task id.
//
// Most tasks are links: task o is a link when its only child is o+1 and o
// is o+1's only dependency, as along a kernel chain or a layer's operator
// chain. Dispatching a link releases o+1 at once with the parents row
// [o's final id], so links get no children row; every other task takes
// the Kahn step over its row.
func (sc *finalizeScratch) finalize(g *Graph, tasks []provTask, depStart, deps []int32) error {
	n := len(tasks)
	sc.at = fitZero(sc.at, n+1)
	sc.children = fitRaw(sc.children, len(deps))
	at, children := sc.at, sc.children

	// Child counts; then, per task, its children row's end (a link's row
	// is empty), its dependency cursor (-1 when a link releases it), and
	// the roots in id order.
	for _, d := range deps {
		if uint32(d) >= uint32(n) {
			return fmt.Errorf("taskgraph: dependency %d names a task outside [0, %d)", d, n)
		}
		at[d].child++
	}
	order := fitRaw(sc.order, n)
	tail, end, linked := 0, int32(0), false // linked: task i-1 is a link
	for i := 0; i < n; i++ {
		lo, hi := depStart[i], depStart[i+1]
		cur := lo
		if linked {
			cur = -1
		} else if lo == hi {
			order[tail] = int32(i)
			tail++
		}
		linked = at[i].child == 1 && i+1 < n && depStart[i+2]-hi == 1 && deps[hi] == int32(i)
		if !linked {
			end += at[i].child
		}
		at[i].child, at[i].next = end, cur
	}
	at[n].child = end
	// Children rows, filled backward so each comes out in ascending id.
	for c := n - 1; c >= 0; c-- {
		if at[c].next < 0 {
			continue
		}
		for _, d := range deps[depStart[c]:depStart[c+1]] {
			at[d].child--
			children[at[d].child] = int32(c)
		}
	}

	// The FIFO traversal: order[i] is the provisional id dispatched i-th.
	// A task is released while its last parent dispatches, taking the next
	// final id; its parents row is written then, in final order. Its other
	// parents, recorded in its dependency row as they dispatched, precede
	// the last, so each row lists its parents in ascending final id.
	slotOf, durIdx := make([]int32, n), make([]int32, n)
	parentStart, parents := make([]int32, n+1), make([]int32, len(deps))
	k := int32(0)
	for head := 0; head < tail; head++ {
		o := order[head]
		t := tasks[o]
		slotOf[head], durIdx[head] = t.slot, t.desc
		if at[o+1].next < 0 {
			order[tail] = o + 1
			parents[k] = int32(head)
			k++
			tail++
			parentStart[tail] = k
			continue
		}
		for _, c := range children[at[o].child:at[o+1].child] {
			if at[c].next+1 < depStart[c+1] {
				deps[at[c].next] = int32(head)
				at[c].next++
				continue
			}
			order[tail] = c
			for _, p := range deps[depStart[c]:at[c].next] {
				parents[k] = p
				k++
			}
			parents[k] = int32(head)
			k++
			tail++
			parentStart[tail] = k
		}
	}
	sc.order = order[:tail]
	if tail != n {
		return fmt.Errorf("taskgraph: dependency cycle: %d of %d tasks can never dispatch", n-tail, n)
	}
	g.slotOf, g.durIdx = slotOf, durIdx
	g.parentStart, g.parents = parentStart, parents
	return nil
}

// CommTimer prices communication operators during duration binding.
// *comm.Model implements it; the testbed wraps it with contention effects.
// Bind calls it once per distinct communication descriptor, not once per
// task, so implementations must be pure functions of their arguments: equal
// arguments price equally, whatever the call order or count.
type CommTimer interface {
	AllReduce(bytes float64, n int, intraNode bool) float64
	SendRecv(bytes float64, sameNode bool) float64
}

var _ CommTimer = (*comm.Model)(nil)

// Result summarizes one simulated iteration.
type Result struct {
	// IterTime is the predicted single-iteration training time.
	IterTime float64
	// ComputeBusy / CommBusy are per-device busy seconds per stream.
	ComputeBusy []float64
	CommBusy    []float64
	// FLOPs is the total executed arithmetic across all simulated
	// devices (the folded representative replica set).
	FLOPs float64
	// Executed is the number of tasks replayed.
	Executed int
	// ClassSeconds attributes busy time to accounting buckets (operator
	// kinds and communication kinds), summed across devices.
	ClassSeconds map[string]float64
}
