package comm

import "vtrain/internal/hw"

// This file resolves which physical links of the cluster's two-level
// fat tree a communication task occupies, and how sharing those links with
// concurrent flows derates it. The isolated-environment model (comm.Model)
// prices every collective on an uncontended link — the fidelity gap the
// paper itself measures (Section IV: NCCL primitives run ~30% slower during
// real training than in isolation). The contention fidelity level closes it
// at replay time: taskgraph.BindContention resolves, once per plan, the
// Path of each stage's collectives and of each pipeline transfer here and
// keeps its link classes; the replay counts which of those routes are
// simultaneously in flight on each link class, multiplying durations by
// Congestion.Derate.
//
// The topology is the paper's testbed generalized: each node's GPUs share
// one NVSwitch fabric; each node attaches to a leaf switch through
// hw.Cluster.NetworkLinks HCAs; leaves connect through a spine layer with
// an hw.Cluster.Oversubscription uplink ratio. Three link classes follow:
//
//   - the NVSwitch of each node (intra-node collectives and same-node P2P);
//   - the HCA bundle of each node (every inter-node flow enters and leaves
//     through its endpoints' HCAs);
//   - the shared spine (flows whose endpoints sit under different leaves).

// Path is the set of fat-tree link classes one communication task occupies.
// Node indices refer to the replayed graph's folded representative replica
// set (stage*stride/GPUsPerNode); a negative index means "class unused".
type Path struct {
	// NVNode is the node whose NVSwitch the flow traverses, for flows that
	// never leave a node; -1 otherwise.
	NVNode int
	// HCANodes are the nodes whose HCA bundles an inter-node flow occupies:
	// one entry for a collective (its representative node), two for a
	// cross-node point-to-point transfer. -1 = unused.
	HCANodes [2]int
	// Spine reports whether the flow crosses leaf switches.
	Spine bool
}

// Congestion holds the per-link-class derate weights of one cluster's
// fat tree: the fractional slowdown each *additional* concurrent flow on a
// shared link class inflicts. All weights are non-negative, so derating is
// monotone — more concurrent flows never speed a transfer up.
type Congestion struct {
	// Links is the per-node HCA count (at least 1).
	Links int
	// NodesPerLeaf is the leaf radix; 0 means one leaf spans the cluster.
	NodesPerLeaf int
	// NVShare is the slowdown per concurrent flow on a node's NVSwitch.
	// The default is calibrated to the paper's Section IV observation that
	// NCCL collectives run ~30% slower under real training contention.
	NVShare float64
	// HCAShare is the slowdown per concurrent flow on a node's HCA bundle:
	// with L links, a second flow can route over an idle HCA, so each
	// additional flow costs 1/L of the bundle.
	HCAShare float64
	// SpineShare is the slowdown per concurrent flow crossing the spine:
	// zero on a non-blocking tree, (ratio-1)/Links per flow when the
	// uplinks are oversubscribed.
	SpineShare float64
}

// DefaultNVShare anchors NVSwitch contention to the paper's measured ~30%
// training-time collective slowdown.
const DefaultNVShare = 0.3

// NewCongestion derives the derate weights from the cluster's topology
// description, applying the documented defaults for zero-valued fields
// (one aggregated link, single leaf, non-blocking spine).
func NewCongestion(c hw.Cluster) Congestion {
	links := c.NetworkLinks
	if links <= 0 {
		links = 1
	}
	over := c.Oversubscription
	if over <= 0 {
		over = 1
	}
	spine := 0.0
	if over > 1 {
		spine = (over - 1) / float64(links)
	}
	return Congestion{
		Links:        links,
		NodesPerLeaf: c.NodesPerLeaf,
		NVShare:      DefaultNVShare,
		HCAShare:     1 / float64(links),
		SpineShare:   spine,
	}
}

// leaf returns the leaf switch a node attaches to.
func (cg Congestion) leaf(node int) int {
	if cg.NodesPerLeaf <= 0 {
		return 0
	}
	return node / cg.NodesPerLeaf
}

// CollectivePath resolves the links an All-Reduce at representative node
// occupies. spanNodes is the number of nodes the collective's participants
// cover: 1 keeps the flow on the node's NVSwitch; more pushes it through
// the node's HCAs, and through the spine once the span outgrows one leaf.
func (cg Congestion) CollectivePath(node, spanNodes int) Path {
	if spanNodes <= 1 {
		return Path{NVNode: node, HCANodes: [2]int{-1, -1}}
	}
	return Path{
		NVNode:   -1,
		HCANodes: [2]int{node, -1},
		Spine:    cg.NodesPerLeaf > 0 && spanNodes > cg.NodesPerLeaf,
	}
}

// SendRecvPath resolves the links a point-to-point pipeline transfer from
// one node to another occupies: the NVSwitch when both stages share a node,
// both endpoints' HCA bundles otherwise, plus the spine when the endpoints
// sit under different leaves.
func (cg Congestion) SendRecvPath(fromNode, toNode int) Path {
	if fromNode == toNode {
		return Path{NVNode: fromNode, HCANodes: [2]int{-1, -1}}
	}
	return Path{
		NVNode:   -1,
		HCANodes: [2]int{fromNode, toNode},
		Spine:    cg.leaf(fromNode) != cg.leaf(toNode),
	}
}

// Derate returns the multiplicative slowdown of a flow that shares its
// link classes with nv concurrent NVSwitch flows, hca concurrent HCA-bundle
// flows, and spine concurrent spine flows. Zero concurrency returns exactly
// 1, and the factor is nondecreasing in every count — the monotonicity the
// contention property tests pin.
func (cg Congestion) Derate(nv, hca, spine int) float64 {
	return 1 + cg.NVShare*float64(nv) + cg.HCAShare*float64(hca) + cg.SpineShare*float64(spine)
}
