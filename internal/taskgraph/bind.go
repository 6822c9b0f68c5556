package taskgraph

import (
	"slices"

	"vtrain/internal/hw"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

// descKind classifies duration descriptors.
type descKind uint8

const (
	// descOperator prices a whole computation operator (the summed kernel
	// durations — operator-level fidelity, or a single-kernel operator).
	descOperator descKind = iota
	// descKernel prices one kernel of a multi-kernel operator.
	descKernel
	// descAllReduceTP prices the tensor-parallel activation All-Reduce.
	descAllReduceTP
	// descAllReduceDP prices one data-parallel gradient-bucket All-Reduce.
	descAllReduceDP
	// descP2P prices a pipeline Send-Receive between two stages.
	descP2P
)

// durDesc is one entry of a structural graph's duration-descriptor table:
// everything needed to price a task for any plan sharing the graph's shape,
// expressed in shape-invariant terms. Descriptors are value-comparable and
// deduplicated during lowering, so the table stays tiny (one entry per
// operator kind / kernel index / stage-parameter class / stage pair) even
// for graphs with tens of thousands of tasks.
type durDesc struct {
	kind descKind
	// op is the computation operator kind (descOperator, descKernel).
	op profiler.OpKind
	// kernel is the kernel index within the operator (descKernel).
	kernel int32
	// stageParams is the unsharded parameter count of the task's pipeline
	// stage (WeightUpdate operators and gradient All-Reduces); the bound
	// plan's tensor width derives the shard from it.
	stageParams uint64
	// buckets is the gradient-bucket count of the stage (descAllReduceDP).
	buckets int32
	// from and to are the producer and consumer stages (descP2P), from
	// which binding derives node placement for the bound plan.
	from, to int32
}

// className is the accounting class of the tasks d prices: the operator
// kind for computation ("FwdMHA", "WeightUpdate", ...), the communication
// kind otherwise ("AllReduceTP", "AllReduceDP", "P2P").
func (d *durDesc) className() string {
	switch d.kind {
	case descAllReduceTP:
		return opgraph.AllReduceTP.String()
	case descAllReduceDP:
		return opgraph.AllReduceDP.String()
	case descP2P:
		return opgraph.P2P.String()
	}
	return d.op.String()
}

// indexClasses derives g's class table from its descriptor table: the
// distinct classes in the order their first descriptor appears, and each
// descriptor's index into them. Lower and UnmarshalArtifact both call it,
// so a decoded graph classifies its tasks exactly as the lowered one.
func (g *Graph) indexClasses() {
	g.descClass = make([]int32, len(g.descs))
	for i := range g.descs {
		name := g.descs[i].className()
		c := slices.Index(g.classes, name)
		if c < 0 {
			c = len(g.classes)
			g.classes = append(g.classes, name)
		}
		g.descClass[i] = int32(c)
	}
}

// descVal is one priced descriptor: the duration and FLOPs every task of
// that descriptor shares under one plan.
type descVal struct{ dur, flops float64 }

// DurationTable holds the per-plan numbers of one (graph, plan) binding:
// one priced value per descriptor (a few dozen entries that live in L1) plus
// a reference to the graph's durIdx slab; replay gathers vals[durIdx[id]] on
// the fly, so binding never materializes — or even touches — a per-task
// array. It holds numbers only: trace labels come from TraceLabels. The
// table is read-only during replay, so one shared structural graph can be
// bound to many plans and replayed concurrently. A table is small (16 bytes
// per descriptor) and ordinary garbage once its replay is done.
type DurationTable struct {
	vals   []descVal
	durIdx []int32
}

// Duration returns the bound execution time of task id in seconds.
func (t *DurationTable) Duration(id int) float64 { return t.vals[t.durIdx[id]].dur }

// Len returns the number of bound tasks.
func (t *DurationTable) Len() int { return len(t.durIdx) }

// Release does nothing: Bind allocates each table afresh, and a table is
// ordinary garbage once its replay is done. It remains because the
// benchmark harness (bench/sweep.go) calls it.
func (t *DurationTable) Release() {}

// ceilDiv is ceiling integer division for positive operands.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// allReduceTPArgs returns the (participants, intraNode) a tensor-parallel
// activation All-Reduce presents to the communication model. A group wider
// than one node reduces hierarchically: ranks sharing a node combine over
// NVSwitch first, so the Eq. 1 inter-node phase rings over the
// participating *nodes* at per-node bandwidth, not over every rank.
func allReduceTPArgs(plan parallel.Plan, gpn int) (int, bool) {
	if plan.Tensor <= gpn {
		return plan.Tensor, true
	}
	return ceilDiv(plan.Tensor, gpn), false
}

// allReduceDPArgs is allReduceTPArgs for a data-parallel gradient
// All-Reduce. Under Megatron placement consecutive group members sit t
// ranks apart, so the d-member group spans ceil(d*t/gpn) nodes — but never
// more nodes than members (with t > gpn each member owns a distinct node).
//
// Modelling gap: the stage is ignored, so a stage whose ranks straddle a
// node boundary is priced as if its group stayed on one node (t=2, d=3,
// p=2 on 8-GPU nodes: stage 1's group {6, 8, 10} spans nodes 0 and 1 but
// is priced as (3, intraNode)); see ARCHITECTURE.md, "Topology and
// contention".
func allReduceDPArgs(plan parallel.Plan, gpn int) (int, bool) {
	stride := plan.Tensor * plan.Data
	if stride <= gpn {
		return plan.Data, true
	}
	return min(plan.Data, ceilDiv(plan.Data*plan.Tensor, gpn)), false
}

// stageNode is the server node of a pipeline stage's representative
// replica (tensor rank 0, data rank 0). Megatron places each stage's t*d
// ranks contiguously, so stage s starts at rank s*t*d. With
// allReduceTPArgs and allReduceDPArgs it states the placement rule once,
// for Bind and BindContention alike.
func stageNode(stage int, plan parallel.Plan, gpn int) int {
	return stage * plan.Tensor * plan.Data / gpn
}

// operatorFor composes the profiler operator of a compute descriptor for
// one concrete plan: a WeightUpdate's shard is the stage's parameters over
// the tensor width (integer division, minimum 1).
func (d *durDesc) operatorFor(g *Graph, plan parallel.Plan) profiler.Operator {
	op := profiler.Operator{
		Kind:       d.op,
		Model:      g.Model,
		MicroBatch: plan.MicroBatch,
		Tensor:     plan.Tensor,
	}
	if d.stageParams != 0 {
		op.Params = max(d.stageParams/uint64(plan.Tensor), 1)
	}
	return op
}

// Bind resolves the graph's duration descriptors against the profiler and
// the communication model for one concrete plan, producing the
// DurationTable that Replay combines with the shared structure. Every
// descriptor is priced once (the profiler memoizes kernel decompositions
// per operator shape), so binding is O(#descriptors), never O(#tasks).
//
// Binding never mutates the graph, so many goroutines may bind one shared
// structural graph concurrently — the property shape-keyed caching relies
// on.
func (g *Graph) Bind(prof *profiler.Profiler, cm CommTimer, plan parallel.Plan, c hw.Cluster) *DurationTable {
	vals := make([]descVal, len(g.descs))
	tbl := &DurationTable{vals: vals, durIdx: g.durIdx}

	// Every per-plan number is derived here, from the plan and the
	// shape-invariant descriptors: operator-graph nodes carry none.
	gpn := c.Node.GPUsPerNode
	actBytes := 2 * float64(plan.MicroBatch) * float64(g.Model.SeqLen) * float64(g.Model.Hidden)

	for i := range g.descs {
		d := &g.descs[i]
		switch d.kind {
		case descOperator:
			var dur, flops float64
			for _, k := range prof.Profile(d.operatorFor(g, plan)) {
				dur += k.Duration
				flops += k.Kernel.FLOPs
			}
			vals[i] = descVal{dur, flops}
		case descKernel:
			k := prof.Profile(d.operatorFor(g, plan))[d.kernel]
			vals[i] = descVal{k.Duration, k.Kernel.FLOPs}
		case descAllReduceTP:
			n, intra := allReduceTPArgs(plan, gpn)
			vals[i] = descVal{dur: cm.AllReduce(actBytes, n, intra)}
		case descAllReduceDP:
			bucketParams := d.stageParams / uint64(plan.Tensor) / uint64(d.buckets)
			n, intra := allReduceDPArgs(plan, gpn)
			vals[i] = descVal{dur: cm.AllReduce(2*float64(bucketParams), n, intra)}
		case descP2P:
			same := stageNode(int(d.from), plan, gpn) == stageNode(int(d.to), plan, gpn)
			vals[i] = descVal{dur: cm.SendRecv(actBytes, same)}
		}
	}
	return tbl
}
