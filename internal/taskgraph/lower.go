package taskgraph

import (
	"fmt"

	"vtrain/internal/opgraph"
)

// lowerOperatorLevel is the operator-granularity lowering fast path. At
// OperatorLevel every operator-graph node lowers to exactly one task, so the
// task graph is isomorphic to the operator graph: task id == node id, the
// children CSR is the transpose of the dependency CSR, and indeg[i] is
// len(Deps(i)). That lets the lowering write the graph's flat slices
// directly — no builder, no edge list, no per-task map lookups — while
// producing a Graph identical (task for task, edge for edge, descriptor for
// descriptor) to what the builder path would build:
//
//   - children of task f are filled by scanning nodes in ascending id and
//     appending each to its dependencies' child lists, which reproduces the
//     builder's edge-insertion order (edges were emitted per consumer node
//     in ascending id, per dependency in Deps order);
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
	g.classOf = make([]int32, n)
	g.durIdx = make([]int32, n)
	g.indeg = make([]int32, n)
	g.slotOf = make([]int32, n)
	g.childStart = make([]int32, n+1)

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

	nEdges := 0
	for id := 0; id < n; id++ {
		nd := og.Node(id)
		deps := og.Deps(id)
		nEdges += len(deps)
		g.indeg[id] = int32(len(deps))
		for _, d := range deps {
			g.childStart[d+1]++
		}

		// Task id lowers from node id (the isomorphism): Source is the
		// identity mapping, which the Graph encodes as a nil sources slab.
		stream := ComputeStream
		switch nd.Kind {
		case opgraph.Compute:
			op := int(nd.Op)
			ci := int32(-1)
			if op >= 0 && op < len(opClass) {
				ci = opClass[op]
			}
			if ci < 0 {
				ci = internClass(nd.Op.String())
				if op >= 0 && op < len(opClass) {
					opClass[op] = ci
				}
			}
			di := int32(-1)
			if nd.StageParams == 0 && op >= 0 && op < len(opDesc) {
				di = opDesc[op]
			}
			if di < 0 {
				di = internDesc(durDesc{kind: descOperator, op: nd.Op, stageParams: nd.StageParams})
				if nd.StageParams == 0 && op >= 0 && op < len(opDesc) {
					opDesc[op] = di
				}
			}
			g.classOf[id], g.durIdx[id] = ci, di
		case opgraph.AllReduceTP:
			stream = CommStream
			ci := kindClass[nd.Kind]
			if ci < 0 {
				ci = internClass(nd.Kind.String())
				kindClass[nd.Kind] = ci
			}
			if tpDesc < 0 {
				tpDesc = internDesc(durDesc{kind: descAllReduceTP})
			}
			g.classOf[id], g.durIdx[id] = ci, tpDesc
		case opgraph.AllReduceDP:
			stream = CommStream
			ci := kindClass[nd.Kind]
			if ci < 0 {
				ci = internClass(nd.Kind.String())
				kindClass[nd.Kind] = ci
			}
			di := internDesc(durDesc{kind: descAllReduceDP, stageParams: nd.StageParams, buckets: nd.Buckets})
			g.classOf[id], g.durIdx[id] = ci, di
		case opgraph.P2P:
			stream = CommStream
			ci := kindClass[nd.Kind]
			if ci < 0 {
				ci = internClass(nd.Kind.String())
				kindClass[nd.Kind] = ci
			}
			di := internDesc(durDesc{kind: descP2P, from: nd.FromStage, to: nd.Stage})
			g.classOf[id], g.durIdx[id] = ci, di
		default:
			panic(fmt.Sprintf("taskgraph: unknown node kind %v", nd.Kind))
		}
		g.slotOf[id] = 2*nd.Stage + int32(stream)
	}

	for i := 0; i < n; i++ {
		g.childStart[i+1] += g.childStart[i]
	}
	g.children = make([]int32, nEdges)
	cursor := make([]int32, n)
	copy(cursor, g.childStart[:n])
	for id := 0; id < n; id++ {
		for _, d := range og.Deps(id) {
			g.children[cursor[d]] = int32(id)
			cursor[d]++
		}
	}
	for i := 0; i < n; i++ {
		if g.indeg[i] == 0 {
			g.roots = append(g.roots, int32(i))
		}
	}
	return g
}
