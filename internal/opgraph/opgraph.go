// Package opgraph constructs the operator-granularity execution graph of
// one LLM training iteration (Section III-B of the paper).
//
// A graph vertex (layer-node) is either a computation operator (profiled by
// internal/profiler) or a communication operator inserted by the 3D
// parallelism plan:
//
//   - data parallelism inserts gradient All-Reduce operators, either one per
//     gradient bucket overlapping the backward pass (Fig. 5a) or a single
//     one at the end (Fig. 5b);
//   - tensor parallelism inserts an All-Reduce after the MHA and FFN blocks
//     of every layer, in both forward and backward passes (Fig. 6);
//   - pipeline parallelism inserts Send-Receive operators at stage
//     boundaries, ordered by the GPipe or 1F1B schedule (Fig. 7), with
//     intra-GPU slot order and cross-GPU micro-batch dependencies both
//     enforced (Fig. 8).
//
// Beyond the paper's two schedules, the builder also supports Megatron-LM's
// interleaved 1F1B: each device hosts v model chunks (virtual pipeline
// stages), shrinking the bubble at the cost of v times more inter-stage
// communication.
//
// Following the paper's Fig. 8 abstraction, the d data-parallel replicas and
// t tensor-parallel ranks execute identical work in lockstep, so the graph
// instantiates one logical device per pipeline stage: tensor parallelism
// appears as sharded operator shapes plus intra-node All-Reduce vertices,
// data parallelism as gradient All-Reduce vertices.
//
// # Representation
//
// The graph is built for the same sweep-heavy workload the replay engine in
// internal/taskgraph serves: thousands of (t, d, p) plans constructed and
// lowered back to back. The builder emits through a Sink, so a lowering
// can consume the graph without storing it (Emit); the sink reads each
// node in place, through the builder's own node (see Sink). Build stores
// it: nodes are plain values in one pooled slice (no per-node heap
// allocation), each node's dependencies are appended to a CSR-style index
// slice as the node is emitted, and node labels are lazy — a node carries
// only its (kind, op, stage, chunk, micro, layer) coordinates, and
// Node.Label composes the human-readable string on demand for trace
// rendering and tests. Nodes also carry no per-plan numbers (transfer
// sizes, shard sizes, group widths, node placement): every field is the
// same for all plans sharing the graph's structural shape, and duration
// binding in internal/taskgraph derives the numbers for a concrete plan. A
// built Graph is immutable: nothing in this package mutates it after Build
// returns, so it is safe to share across goroutines.
package opgraph

import (
	"fmt"
	"math"

	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

// NodeKind classifies graph vertices.
type NodeKind int

const (
	// Compute is a profiled computation operator.
	Compute NodeKind = iota
	// AllReduceTP is the tensor-parallel activation All-Reduce.
	AllReduceTP
	// AllReduceDP is the data-parallel gradient(-bucket) All-Reduce.
	AllReduceDP
	// P2P is the pipeline-parallel Send-Receive at a stage boundary,
	// charged on the receiving stage's communication stream.
	P2P
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case Compute:
		return "Compute"
	case AllReduceTP:
		return "AllReduceTP"
	case AllReduceDP:
		return "AllReduceDP"
	case P2P:
		return "P2P"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is one layer-node of the operator-granularity graph. Nodes are plain
// values stored in the graph's node slice, where a node's index is its ID;
// they carry no label string (see Node.Label), no adjacency (see
// Graph.Deps), and only shape-invariant fields: nothing that depends on the
// plan's tensor or data width or micro-batch size. A Node is immutable once
// Build returns.
type Node struct {
	// Kind classifies the vertex.
	Kind NodeKind
	// Stage is the pipeline stage (logical device) executing the node.
	Stage int32
	// Micro is the micro-batch index, or -1 for per-iteration nodes
	// (gradient All-Reduce, weight update).
	Micro int32
	// Chunk is the model-chunk index under interleaving (0 otherwise).
	Chunk int32
	// Layer is the global decoder-layer index for per-layer nodes; for
	// AllReduceDP nodes it is the first layer of the gradient bucket.
	Layer int32
	// LayerEnd is one past the last layer of an AllReduceDP bucket.
	LayerEnd int32
	// Bucket is the gradient-bucket index of an AllReduceDP node.
	Bucket int32
	// Buckets is the gradient-bucket count of the node's stage (AllReduceDP
	// nodes). Together with StageParams it lets a lowering price the bucket
	// for any plan sharing this graph's structural shape.
	Buckets int32
	// FromStage is the producing pipeline stage of a P2P node, from which
	// duration binding derives node placement for the bound plan.
	FromStage int32
	// label selects the lazy label format (see label.go).
	label labelKind
	// Op is the computation operator kind (Kind == Compute).
	Op profiler.OpKind
	// StageParams is the unsharded parameter count of the node's whole
	// pipeline stage (WeightUpdate and AllReduceDP nodes): the
	// tensor-width-independent quantity from which any plan sharing this
	// graph's structure derives its shard and gradient-bucket sizes.
	StageParams uint64
}

// Graph is the operator-granularity execution graph of one iteration: a
// slice of value-typed nodes plus CSR-style dependency slices. Build returns
// it complete and it is never mutated afterwards, so one Graph may be shared
// and lowered from any number of goroutines.
type Graph struct {
	nodes []Node
	// CSR dependencies: the dependencies of node i are
	// deps[depStart[i]:depStart[i+1]], in emission order.
	depStart []int32
	deps     []int32

	// Stages is the number of logical devices (pipeline depth).
	Stages int
	// Plan and Model record what the graph was built from.
	Plan  parallel.Plan
	Model model.Config
}

// NumNodes returns the number of nodes; IDs are dense in [0, NumNodes).
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Node returns the node with the given ID. The returned pointer aliases the
// graph's node slice and must be treated as read-only.
func (g *Graph) Node(id int) *Node { return &g.nodes[id] }

// Deps returns the IDs of the nodes that must finish before node id starts.
// The slice aliases the graph's CSR storage and must not be modified. IDs
// are topologically ordered: every dependency precedes its dependent.
func (g *Graph) Deps(id int) []int32 {
	return g.deps[g.depStart[id]:g.depStart[id+1]]
}

// Label composes the human-readable label of node id on demand; see
// Node.Label for the laziness contract.
func (g *Graph) Label(id int) string { return g.nodes[id].Label() }

// Validate checks (m, plan, c) exactly as Build does, without constructing
// the graph. Callers that skip Build — e.g. a structural-graph cache serving
// a plan whose shape was already lowered — use it so invalid plans are still
// rejected per plan, not per shape.
func Validate(m model.Config, plan parallel.Plan, c hw.Cluster) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if err := plan.Validate(m, c); err != nil {
		return err
	}
	if plan.MicroBatches() < 1 {
		return fmt.Errorf("opgraph: plan %s yields zero micro-batches", plan)
	}
	if !fitsIDs(m, plan) {
		return fmt.Errorf("opgraph: plan %s with %d micro-batches could exceed %d tasks, the task id limit",
			plan, plan.MicroBatches(), math.MaxInt32)
	}
	return nil
}

// fitsIDs reports whether every lowering of plan's graph numbers its tasks
// within int32, the id type of the operator graph, the task graph and the
// artifact. A graph has at most nmb·(4·p·v + 12·L) + L + p nodes, each
// lowering to at most as many tasks as the largest kernel count.
// plan.Validate guarantees p·v ≤ L, so once L is within the limit no term
// below overflows.
func fitsIDs(m model.Config, plan parallel.Plan) bool {
	k := 0
	for op := range profiler.WeightUpdate + 1 {
		k = max(k, profiler.KernelCount(op))
	}
	limit := math.MaxInt32 / k
	L, p, v := m.Layers, plan.Pipeline, max(plan.VirtualStages, 1)
	if L > limit || L+p > limit {
		return false
	}
	return plan.MicroBatches() <= (limit-L-p)/(4*p*v+12*L)
}

// Sink receives the graph as the builder emits it: each node through Node,
// then its dependencies through Dep. The i-th node emitted is node i, and
// every dependency names an earlier node. The *Node is the builder's own
// and valid only for the duration of the call: the builder rewrites it for
// the next node, so a sink that keeps a node copies it, and the builder
// never copies a node into the call.
type Sink interface {
	Node(n *Node)
	Dep(from int32)
}

// Emit validates (m, plan, c) as Build does and emits the execution graph
// of one training iteration into s without storing it.
func Emit(m model.Config, plan parallel.Plan, c hw.Cluster, s Sink) error {
	if err := Validate(m, plan, c); err != nil {
		return err
	}
	b := newBuilder(m, plan, s)
	b.build()
	b.s = nil
	builderPool.Put(b)
	return nil
}

// graphSink is Build's Sink: the graph's own node slice and dependency CSR.
type graphSink Graph

func (g *graphSink) Node(n *Node) {
	g.nodes = append(g.nodes, *n)
	g.depStart = append(g.depStart, int32(len(g.deps)))
}

func (g *graphSink) Dep(from int32) { g.deps = append(g.deps, from) }

// Build constructs the execution graph for one training iteration of m
// under plan on cluster c. The returned graph is immutable.
func Build(m model.Config, plan parallel.Plan, c hw.Cluster) (*Graph, error) {
	g := graphPool.Get().(*Graph)
	*g = Graph{nodes: g.nodes[:0], depStart: g.depStart[:0], deps: g.deps[:0], Stages: plan.Pipeline, Plan: plan, Model: m}
	if err := Emit(m, plan, c, (*graphSink)(g)); err != nil {
		return nil, err
	}
	g.depStart = append(g.depStart, int32(len(g.deps))) // close the last row
	return g, nil
}

// Recycle returns the graph's storage (node and dependency slices) to the
// construction pool for reuse by a future Build. Only an exclusive owner may
// call it, and the graph — including every Node pointer and Deps slice
// obtained from it — is invalid afterwards. Callers of taskgraph.Lower,
// which copies what it needs, recycle it to keep allocation flat; a graph
// that is retained must simply never be recycled.
func (g *Graph) Recycle() {
	graphPool.Put(g)
}
