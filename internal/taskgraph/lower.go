package taskgraph

import (
	"fmt"

	"vtrain/internal/opgraph"
)

// lowerOperatorLevel is the operator-granularity lowering fast path. At
// OperatorLevel every operator-graph node lowers to exactly one task, so
// before finalize orders it the task graph is isomorphic to the operator
// graph: provisional task id == node id, and the edges are the dependency
// lists. That lets the lowering write finalize's inputs directly — no
// builder, no per-task map lookups — while producing a Graph identical
// (task for task, edge for edge, descriptor for descriptor) to what the
// builder path would build:
//
//   - edges are emitted per consumer node in ascending id, per dependency
//     in Deps order, which is the builder's edge-insertion order, so
//     finalize derives the same dispatch order;
//   - classes and descriptors intern in first-appearance order, like the
//     builder's maps — but through tiny per-kind caches (the operator kinds
//     are a dense enum) with a map fallback only for the rare
//     parameter-bearing descriptors.
func lowerOperatorLevel(og *opgraph.Graph) *Graph {
	n := og.NumNodes()
	g := &Graph{
		Devices: og.Stages,
		Model:   og.Model,
	}
	sc := finalizeScratchPool.Get().(*finalizeScratch)
	defer finalizeScratchPool.Put(sc)
	sc.tasks = fitRaw(sc.tasks, n, false)
	tasks, edges := sc.tasks, sc.edges[:0]

	// Per-kind intern caches, -1 = not seen. opClass/opDesc cover the dense
	// profiler.OpKind range; kindClass covers the communication node kinds.
	// Parameter-bearing descriptors (WeightUpdate, AllReduceDP, P2P — a
	// handful per graph) fall back to a map keyed by the full descriptor.
	var opClass, opDesc [16]int32
	var kindClass [8]int32
	for i := range opClass {
		opClass[i], opDesc[i] = -1, -1
	}
	for i := range kindClass {
		kindClass[i] = -1
	}
	tpDesc := int32(-1)
	var descID map[durDesc]int32

	internClass := func(name string) int32 {
		for ci, c := range g.classes {
			if c == name {
				return int32(ci)
			}
		}
		g.classes = append(g.classes, name)
		return int32(len(g.classes) - 1)
	}
	internDesc := func(d durDesc) int32 {
		if di, ok := descID[d]; ok {
			return di
		}
		if descID == nil {
			descID = make(map[durDesc]int32)
		}
		di := int32(len(g.descs))
		g.descs = append(g.descs, d)
		descID[d] = di
		return di
	}

	for id := 0; id < n; id++ {
		nd := og.Node(id)
		for _, d := range og.Deps(id) {
			edges = append(edges, [2]int32{int32(d), int32(id)})
		}
		stream := ComputeStream
		var ci, di int32
		switch nd.Kind {
		case opgraph.Compute:
			op := int(nd.Op)
			ci = -1
			if op >= 0 && op < len(opClass) {
				ci = opClass[op]
			}
			if ci < 0 {
				ci = internClass(nd.Op.String())
				if op >= 0 && op < len(opClass) {
					opClass[op] = ci
				}
			}
			di = -1
			if nd.StageParams == 0 && op >= 0 && op < len(opDesc) {
				di = opDesc[op]
			}
			if di < 0 {
				di = internDesc(durDesc{kind: descOperator, op: nd.Op, stageParams: nd.StageParams})
				if nd.StageParams == 0 && op >= 0 && op < len(opDesc) {
					opDesc[op] = di
				}
			}
		case opgraph.AllReduceTP:
			stream = CommStream
			ci = kindClass[nd.Kind]
			if ci < 0 {
				ci = internClass(nd.Kind.String())
				kindClass[nd.Kind] = ci
			}
			if tpDesc < 0 {
				tpDesc = internDesc(durDesc{kind: descAllReduceTP})
			}
			di = tpDesc
		case opgraph.AllReduceDP:
			stream = CommStream
			ci = kindClass[nd.Kind]
			if ci < 0 {
				ci = internClass(nd.Kind.String())
				kindClass[nd.Kind] = ci
			}
			di = internDesc(durDesc{kind: descAllReduceDP, stageParams: nd.StageParams, buckets: nd.Buckets})
		case opgraph.P2P:
			stream = CommStream
			ci = kindClass[nd.Kind]
			if ci < 0 {
				ci = internClass(nd.Kind.String())
				kindClass[nd.Kind] = ci
			}
			di = internDesc(durDesc{kind: descP2P, from: nd.FromStage, to: nd.Stage})
		default:
			panic(fmt.Sprintf("taskgraph: unknown node kind %v", nd.Kind))
		}
		tasks[id] = provTask{ci, 2*nd.Stage + int32(stream), int32(id), di}
	}

	sc.edges = edges
	if err := sc.finalize(g, tasks, edges); err != nil {
		panic(err) // unreachable: operator-graph dependencies point backward
	}
	return g
}
