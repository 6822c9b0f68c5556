package taskgraph

import (
	"fmt"

	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

// LowerPlan lowers the operator graph of (m, plan) on c into a structural
// task graph as the opgraph builder emits it, never storing the operator
// graph. It validates as opgraph.Build does, and builds the graph Lower
// builds from opgraph.Build(m, plan, c).
func LowerPlan(m model.Config, plan parallel.Plan, c hw.Cluster, fid Fidelity) (*Graph, error) {
	lw := newLowering(m, plan.Pipeline, fid)
	if err := opgraph.Emit(m, plan, c, lw); err != nil {
		return nil, err
	}
	return lw.finish(), nil
}

// TraceLabels lowers (m, plan) on c at fid as LowerPlan does and returns
// each task's trace label by task id: its operator's label, qualified at
// task granularity by the kernel name prof gives the plan's tensor shapes.
// They name the tasks of every graph of the plan's shape, disk-loaded too.
func TraceLabels(m model.Config, plan parallel.Plan, c hw.Cluster, fid Fidelity, prof *profiler.Profiler) ([]string, error) {
	lw := newLowering(m, plan.Pipeline, fid)
	lw.labels = []string{}
	if err := opgraph.Emit(m, plan, c, lw); err != nil {
		return nil, err
	}
	g := lw.finish()
	for id, di := range g.durIdx {
		if d := &g.descs[di]; d.kind == descKernel {
			lw.labels[id] += "/" + prof.Profile(d.operatorFor(g, plan))[d.kernel].Kernel.Name
		}
	}
	return lw.labels, nil
}

// Lower translates the operator graph into a structural task graph: tasks,
// dependencies, and one duration descriptor per task — no durations. The
// result depends only on the plan's structural shape (schedule, pipeline
// depth, micro-batch count, interleaving, layer split, fidelity), so it can
// be cached and shared across every plan of that shape; Bind resolves the
// descriptors into per-plan durations. It walks og into the lowering that
// LowerPlan uses.
//
// The profiler parameter is unused: kernel counts are static per operator
// kind (profiler.KernelCount), and durations bind later.
func Lower(og *opgraph.Graph, _ *profiler.Profiler, fid Fidelity) *Graph {
	lw := newLowering(og.Model, og.Stages, fid)
	for id := range og.NumNodes() {
		lw.Node(og.Node(id))
		for _, d := range og.Deps(id) {
			lw.Dep(d)
		}
	}
	return lw.finish()
}

// lowering is the structural opgraph.Sink of both fidelities: each node
// becomes its profiled kernels. A communication node, and every node at
// OperatorLevel, becomes one task. At TaskLevel a compute node of k > 1
// kernels becomes a chain of k kernel tasks; the node's dependencies are
// its first task's, each from the dependency's last task. Provisional task
// ids follow node order, kernels in order, and each task's dependency row
// is written in id order into finalize's scratch, so the rest of a chain is
// appended once the node's own row is complete: when the next node arrives,
// or at finish. Each task's class follows from its descriptor (see
// indexClasses).
type lowering struct {
	g   *Graph
	fid Fidelity
	sc  *finalizeScratch
	// chain is the first task of the last node, and chainLen its kernel
	// count: the chain's other tasks are pending.
	chain    provTask
	chainLen int32
	// Descriptors intern in first-appearance order. opDesc caches one plus
	// the first descriptor of each operator kind's expansion (0 = not seen)
	// for operators without stage parameters, and tpDesc one plus the
	// tensor-parallel descriptor. The operator kinds are a dense enum, so
	// only parameter-bearing descriptors (a handful per graph) reach the map.
	opDesc [profiler.WeightUpdate + 1]int32
	tpDesc int32
	descID map[durDesc]int32
	// labels, when non-nil, collects each task's operator label for
	// TraceLabels: by provisional id, then by task id after finish.
	labels []string
}

// newLowering starts a lowering over devices stages of m. Its temporaries
// come from a pool: sweeps lower many graphs, and a pooled scratch that a
// large task-level lowering grew serves the next lowering without growing
// again.
func newLowering(m model.Config, devices int, fid Fidelity) *lowering {
	sc := finalizeScratchPool.Get().(*finalizeScratch)
	sc.tasks, sc.last, sc.depStart, sc.deps = sc.tasks[:0], sc.last[:0], sc.depStart[:0], sc.deps[:0]
	return &lowering{g: &Graph{Devices: devices, Model: m}, fid: fid, sc: sc}
}

// internDesc returns the index of d, interning it on first sight together
// with the k-1 descriptors of its operator's later kernels, which are
// always emitted with it.
func (lw *lowering) internDesc(d durDesc, k int32) int32 {
	if di, ok := lw.descID[d]; ok {
		return di
	}
	if lw.descID == nil {
		lw.descID = make(map[durDesc]int32)
	}
	di := int32(len(lw.g.descs))
	lw.descID[d] = di
	for ; d.kernel < k; d.kernel++ {
		lw.g.descs = append(lw.g.descs, d)
	}
	return di
}

// addTask appends a task, opening its dependency row.
func (sc *finalizeScratch) addTask(t provTask) {
	sc.depStart = append(sc.depStart, int32(len(sc.deps)))
	sc.tasks = append(sc.tasks, t)
}

// expandChain appends the pending tasks of the last node's kernel chain,
// each depending on the task before it.
func (lw *lowering) expandChain() {
	for i := int32(1); i < lw.chainLen; i++ {
		lw.sc.addTask(provTask{lw.chain.slot, lw.chain.desc + i})
		lw.sc.deps = append(lw.sc.deps, int32(len(lw.sc.tasks)-2))
		if lw.labels != nil {
			lw.labels = append(lw.labels, lw.labels[len(lw.labels)-1])
		}
	}
	lw.chainLen = 0
}

// Node lowers one operator-graph node into its task or kernel chain.
func (lw *lowering) Node(nd *opgraph.Node) {
	lw.expandChain()
	k, di, stream := int32(1), int32(0), CommStream
	switch nd.Kind {
	case opgraph.Compute:
		op := nd.Op
		if k = int32(profiler.KernelCount(op)); k == 0 {
			panic(fmt.Sprintf("taskgraph: unknown operator kind %v", op))
		}
		kind := descKernel
		if k == 1 || lw.fid == OperatorLevel {
			k, kind = 1, descOperator
		}
		if di = lw.opDesc[op] - 1; di < 0 || nd.StageParams != 0 {
			di = lw.internDesc(durDesc{kind: kind, op: op, stageParams: nd.StageParams}, k)
			if nd.StageParams == 0 {
				lw.opDesc[op] = di + 1
			}
		}
		stream = ComputeStream
	case opgraph.AllReduceTP:
		if lw.tpDesc == 0 {
			lw.tpDesc = lw.internDesc(durDesc{kind: descAllReduceTP}, 1) + 1
		}
		di = lw.tpDesc - 1
	case opgraph.AllReduceDP:
		di = lw.internDesc(durDesc{kind: descAllReduceDP, stageParams: nd.StageParams, buckets: nd.Buckets}, 1)
	case opgraph.P2P:
		di = lw.internDesc(durDesc{kind: descP2P, from: nd.FromStage, to: nd.Stage}, 1)
	default:
		panic(fmt.Sprintf("taskgraph: unknown node kind %v", nd.Kind))
	}
	sc := lw.sc
	lw.chain, lw.chainLen = provTask{2*nd.Stage + int32(stream), di}, k
	sc.addTask(lw.chain)
	sc.last = append(sc.last, int32(len(sc.tasks))-2+k)
	if lw.labels != nil {
		lw.labels = append(lw.labels, nd.Label())
	}
}

// Dep records that the node received last depends on node from: an edge
// from from's last task to the node's first.
func (lw *lowering) Dep(from int32) { lw.sc.deps = append(lw.sc.deps, lw.sc.last[from]) }

// finish expands the last pending chain, closes the dependency CSR and
// fixes the dispatch order, placing any collected labels in it.
func (lw *lowering) finish() *Graph {
	lw.expandChain()
	sc := lw.sc
	sc.depStart = append(sc.depStart, int32(len(sc.deps)))
	if err := sc.finalize(lw.g, sc.tasks, sc.depStart, sc.deps); err != nil {
		panic(err) // unreachable: operator-graph dependencies point backward
	}
	if lw.labels != nil {
		labels := make([]string, len(sc.order))
		for id, o := range sc.order {
			labels[id] = lw.labels[o]
		}
		lw.labels = labels
	}
	finalizeScratchPool.Put(sc)
	lw.g.indexClasses()
	return lw.g
}
