package taskgraph

import (
	"fmt"
	"slices"

	"vtrain/internal/opgraph"
	"vtrain/internal/profiler"
)

// Lower translates the operator graph into a structural task graph: tasks,
// dependency edges, and one duration descriptor per task — no durations.
// The result depends only on the plan's structural shape (schedule,
// pipeline depth, micro-batch count, interleaving, layer split, fidelity),
// so it can be cached and shared across every plan of that shape; Bind
// resolves the descriptors into per-plan durations.
//
// Both fidelities share one loop: each node becomes its profiled kernels.
// A communication node, and every node at OperatorLevel, becomes one task.
// At TaskLevel a compute node of k > 1 kernels becomes a chain of k kernel
// tasks, and a dependency edge runs from the dependency's last task to the
// node's first. Provisional task ids follow node order, kernels in order,
// and each task's out-edges are emitted in node order, from which finalize
// derives the dispatch order. Each task's class follows from its
// descriptor (see indexClasses).
//
// The profiler parameter is unused: kernel counts are static per operator
// kind (profiler.KernelCount), and durations bind later.
func Lower(og *opgraph.Graph, _ *profiler.Profiler, fid Fidelity) *Graph {
	n := og.NumNodes()
	g := &Graph{
		Devices: og.Stages,
		Model:   og.Model,
	}
	// Sweeps lower many operator-level graphs, so their temporaries are
	// pooled. Task-level lowerings are one-offs several times larger,
	// whose temporaries a pool would pin: they are counted, allocated
	// exactly, and left to the collector.
	var sc *finalizeScratch
	var last []int32 // each node's last task, when nodes expand
	if fid == OperatorLevel {
		sc = finalizeScratchPool.Get().(*finalizeScratch)
		defer finalizeScratchPool.Put(sc)
		sc.tasks = slices.Grow(sc.tasks[:0], n)
	} else {
		nTasks, nEdges := 0, 0
		for id := 0; id < n; id++ {
			k := 1
			if nd := og.Node(id); nd.Kind == opgraph.Compute {
				k = max(profiler.KernelCount(nd.Op), 1)
			}
			nTasks += k
			nEdges += k - 1 + len(og.Deps(id))
		}
		sc = &finalizeScratch{tasks: make([]provTask, 0, nTasks), edges: make([][2]int32, 0, nEdges)}
		last = make([]int32, n)
	}
	tasks, edges := sc.tasks[:0], sc.edges[:0]

	// Descriptors intern in first-appearance order. Intern cache, -1 = not
	// seen: the first descriptor of each operator kind's expansion (for
	// operators without stage parameters). The operator kinds are a dense
	// enum, so only parameter-bearing descriptors (a handful per graph)
	// reach the map.
	var opDesc [profiler.WeightUpdate + 1]int32
	for i := range opDesc {
		opDesc[i] = -1
	}
	tpDesc := int32(-1)
	var descID map[durDesc]int32

	// internDesc returns the index of d, interning it on first sight
	// together with the k-1 descriptors of its operator's later kernels,
	// which are always emitted with it.
	internDesc := func(d durDesc, k int32) int32 {
		if di, ok := descID[d]; ok {
			return di
		}
		if descID == nil {
			descID = make(map[durDesc]int32)
		}
		di := int32(len(g.descs))
		descID[d] = di
		for ; d.kernel < k; d.kernel++ {
			g.descs = append(g.descs, d)
		}
		return di
	}

	for id := 0; id < n; id++ {
		nd := og.Node(id)
		first := int32(len(tasks))
		for _, d := range og.Deps(id) {
			if last != nil {
				d = last[d]
			}
			edges = append(edges, [2]int32{d, first})
		}
		if nd.Kind == opgraph.Compute {
			op := nd.Op
			k := int32(profiler.KernelCount(op))
			if k == 0 {
				panic(fmt.Sprintf("taskgraph: unknown operator kind %v", op))
			}
			kind := descKernel
			if k == 1 || fid == OperatorLevel {
				k, kind = 1, descOperator
			}
			di := opDesc[op]
			if di < 0 || nd.StageParams != 0 {
				di = internDesc(durDesc{kind: kind, op: op, stageParams: nd.StageParams}, k)
				if nd.StageParams == 0 {
					opDesc[op] = di
				}
			}
			slot := 2*nd.Stage + int32(ComputeStream)
			tasks = append(tasks, provTask{slot, int32(id), di})
			for i := int32(1); i < k; i++ {
				edges = append(edges, [2]int32{first + i - 1, first + i})
				tasks = append(tasks, provTask{slot, int32(id), di + i})
			}
		} else {
			var di int32
			switch nd.Kind {
			case opgraph.AllReduceTP:
				if tpDesc < 0 {
					tpDesc = internDesc(durDesc{kind: descAllReduceTP}, 1)
				}
				di = tpDesc
			case opgraph.AllReduceDP:
				di = internDesc(durDesc{kind: descAllReduceDP, stageParams: nd.StageParams, buckets: nd.Buckets}, 1)
			case opgraph.P2P:
				di = internDesc(durDesc{kind: descP2P, from: nd.FromStage, to: nd.Stage}, 1)
			default:
				panic(fmt.Sprintf("taskgraph: unknown node kind %v", nd.Kind))
			}
			tasks = append(tasks, provTask{2*nd.Stage + int32(CommStream), int32(id), di})
		}
		if last != nil {
			last[id] = int32(len(tasks)) - 1
		}
	}

	sc.tasks, sc.edges = tasks, edges
	if err := sc.finalize(g, tasks, edges); err != nil {
		panic(err) // unreachable: operator-graph dependencies point backward
	}
	g.indexClasses()
	return g
}
