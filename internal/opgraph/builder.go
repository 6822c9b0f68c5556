package opgraph

import (
	"fmt"
	"sync"

	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

// builder emits nodes into a Sink through a small API: node starts the
// next node in b.nd, add emits it, and dep records a dependency of the node
// added last. Nodes are emitted one at a time, each with all its
// dependencies, so a sink sees every node's dependencies in final order and
// needs no sorting. All cross-references during construction are node
// indices, never pointers; -1 means "absent".
//
// Builders (and, via Graph.Recycle, graph storage) are pooled: a sweep
// building thousands of graphs back to back reuses the same schedule
// buffers and node and dependency slices instead of reallocating them per
// plan.
type builder struct {
	s Sink
	n int32 // nodes emitted so far
	// nd is the node being emitted. The sink reads it in place, so each
	// node is written once, here, and never copied into the call.
	nd   Node
	m    model.Config
	plan parallel.Plan
	nmb  int
	v    int // virtual stages per device (1 = no interleaving)

	// fwdOut / bwdOut hold the terminal node of each emitted
	// (virtual stage, micro) pass — the producers cross-stage P2P
	// receives depend on. Indexed by virtualStage*nmb + micro; -1 until
	// the pass is emitted (the emittability test of the deadlock check).
	fwdOut []int32
	bwdOut []int32
	// lastBwdOfLayer, indexed by stage*Layers + layer, is the
	// final-micro-batch backward operator producing the layer's gradients
	// (gradient-bucket All-Reduce dependencies); -1 until emitted.
	lastBwdOfLayer []int32

	// Pooled construction scratch: the per-stage previous-slot cursor and
	// the pending schedule lists with their backing slot storage.
	prevSlotEnd []int32
	pend        []pending
	slotBuf     []slot
}

// pending tracks how far a stage's schedule has been emitted.
type pending struct {
	slots []slot
	next  int
}

var builderPool = sync.Pool{New: func() any { return new(builder) }}

// graphPool recycles graph storage (node and dependency slices) between
// Recycle and the next Build.
var graphPool = sync.Pool{New: func() any { return new(Graph) }}

func newBuilder(m model.Config, plan parallel.Plan, s Sink) *builder {
	v, nmb := max(plan.VirtualStages, 1), plan.MicroBatches()
	b := builderPool.Get().(*builder)
	b.s, b.n = s, 0
	b.m, b.plan = m, plan
	b.nmb, b.v = nmb, v
	b.fwdOut = fitRaw(b.fwdOut, plan.Pipeline*v*nmb)
	b.bwdOut = fitRaw(b.bwdOut, plan.Pipeline*v*nmb)
	b.lastBwdOfLayer = fitRaw(b.lastBwdOfLayer, plan.Pipeline*m.Layers)
	fill(b.fwdOut, -1)
	fill(b.bwdOut, -1)
	fill(b.lastBwdOfLayer, -1)
	return b
}

func fill(s []int32, v int32) {
	for i := range s {
		s[i] = v
	}
}

// fitRaw returns a slice of length n, reusing s when its capacity is
// adequate: the pooled builder keeps what it grew, and sync.Pool releases
// it once idle. The caller fully overwrites the slice before reading it.
func fitRaw[T int32 | slot](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// node zeroes b.nd and stores the fields every node carries, for the
// caller to complete before add. It assigns no composite literal, which
// the compiler would stage on the stack and then copy.
func (b *builder) node(kind NodeKind, stage, micro int, lk labelKind) *Node {
	n := &b.nd
	*n = Node{}
	n.Kind, n.Stage, n.Micro, n.label = kind, int32(stage), int32(micro), lk
	return n
}

// add emits b.nd, opening its dependency row, and returns its ID.
func (b *builder) add() int32 {
	b.s.Node(&b.nd)
	b.n++
	return b.n - 1
}

// dep records that the node added last depends on node from; from < 0 is
// "no dependency".
func (b *builder) dep(from int32) {
	if from >= 0 {
		b.s.Dep(from)
	}
}

// out indexes fwdOut/bwdOut by (stage, chunk, micro).
func (b *builder) out(stage, chunk, micro int) int {
	return b.virtualStage(stage, chunk)*b.nmb + micro
}

// virtualStage flattens (chunk, device) into Megatron's virtual stage id.
func (b *builder) virtualStage(stage, chunk int) int { return chunk*b.plan.Pipeline + stage }

// virtualCoords inverts virtualStage.
func (b *builder) virtualCoords(s int) (stage, chunk int) {
	return s % b.plan.Pipeline, s / b.plan.Pipeline
}

// lastVirtual is the id of the final virtual stage.
func (b *builder) lastVirtual() int { return b.plan.Pipeline*b.v - 1 }

// chunkRange returns the global index of the first decoder layer of
// (stage, chunk) and the number of layers it holds.
func (b *builder) chunkRange(stage, chunk int) (first, count int) {
	if b.v > 1 {
		cl := b.m.Layers / (b.plan.Pipeline * b.v)
		return b.virtualStage(stage, chunk) * cl, cl
	}
	for i := 0; i < stage; i++ {
		first += b.plan.StageLayers(b.m, i)
	}
	return first, b.plan.StageLayers(b.m, stage)
}

func (b *builder) build() {
	p := b.plan.Pipeline
	// Per-stage index of the previous slot's terminal node: enforces the
	// intra-GPU execution order of the schedule.
	prevSlotEnd := fitRaw(b.prevSlotEnd, p)
	b.prevSlotEnd = prevSlotEnd
	fill(prevSlotEnd, -1)

	// Interleave construction stage-major but resolve cross-stage
	// dependencies through fwdOut/bwdOut, which are filled in slot order.
	// Build in global "schedule round" order so that a receive's
	// dependency node already exists: construct per-stage slot lists and
	// emit slots in topological waves. Every stage's schedule has exactly
	// 2·nmb·v slots (each micro-batch of each chunk appears as one forward
	// and one backward), so the lists are carved from one pooled buffer.
	per := 2 * b.nmb * b.v
	buf := fitRaw(b.slotBuf, p*per)
	b.slotBuf = buf
	if cap(b.pend) < p {
		b.pend = make([]pending, p)
	}
	pend := b.pend[:p]
	for i := 0; i < p; i++ {
		pend[i] = pending{slots: scheduleSlots(b.plan, i, p, b.nmb, buf[i*per:i*per:(i+1)*per])}
	}
	// Emit until all slots are placed. A slot is emittable when its
	// cross-stage producer has been emitted: a forward needs the previous
	// virtual stage's forward of the same micro-batch, a backward needs
	// the next virtual stage's backward. Emitted passes are looked up by
	// index in fwdOut/bwdOut (-1 = not yet emitted), so the deadlock
	// check never touches node pointers.
	for remaining := p * per; remaining > 0; {
		progress := false
		for i := 0; i < p; i++ {
			for pend[i].next < len(pend[i].slots) {
				s := pend[i].slots[pend[i].next]
				vs := b.virtualStage(i, s.chunk)
				if s.forward && vs > 0 {
					if b.fwdOut[(vs-1)*b.nmb+s.micro] < 0 {
						break
					}
				}
				if !s.forward && vs < b.lastVirtual() {
					if b.bwdOut[(vs+1)*b.nmb+s.micro] < 0 {
						break
					}
				}
				prevSlotEnd[i] = b.emitSlot(i, s, prevSlotEnd[i])
				pend[i].next++
				remaining--
				progress = true
			}
		}
		if !progress {
			panic(fmt.Sprintf("opgraph: schedule deadlock building %s", b.plan))
		}
	}

	b.emitGradientSync(prevSlotEnd)
}

// emitSlot builds the operator chain of one forward or backward slot and
// returns the index of its terminal node.
func (b *builder) emitSlot(stage int, s slot, prev int32) int32 {
	if s.forward {
		return b.emitForward(stage, s.chunk, s.micro, prev)
	}
	return b.emitBackward(stage, s.chunk, s.micro, prev)
}

// tpAllReduce chains a tensor-parallel All-Reduce after tail (a no-op when
// t = 1) and returns the new tail index.
func (b *builder) tpAllReduce(stage, chunk, micro, layer int, tail int32, lk labelKind) int32 {
	if b.plan.Tensor <= 1 {
		return tail
	}
	n := b.node(AllReduceTP, stage, micro, lk)
	n.Chunk, n.Layer = int32(chunk), int32(layer)
	id := b.add()
	b.dep(tail)
	return id
}

// compute chains a computation operator after tail and returns its index.
func (b *builder) compute(stage, chunk, micro, layer int, kind profiler.OpKind, tail int32, lk labelKind) int32 {
	n := b.node(Compute, stage, micro, lk)
	n.Chunk, n.Layer, n.Op = int32(chunk), int32(layer), kind
	id := b.add()
	b.dep(tail)
	return id
}

// recv emits the P2P vertex receiving an activation (or gradient) produced
// by device from, sequenced after prev on the receiving device.
func (b *builder) recv(stage, chunk, micro, from int, producer, prev int32, lk labelKind) int32 {
	n := b.node(P2P, stage, micro, lk)
	n.Chunk, n.FromStage = int32(chunk), int32(from)
	id := b.add()
	b.dep(producer)
	b.dep(prev) // a stage cannot consume a future slot early
	return id
}

func (b *builder) emitForward(stage, chunk, micro int, prev int32) int32 {
	vs := b.virtualStage(stage, chunk)
	tail := prev
	if vs == 0 {
		tail = b.compute(stage, chunk, micro, 0, profiler.FwdEmbedding, tail, lbFwdEmbedding)
	} else {
		ps, pc := b.virtualCoords(vs - 1)
		tail = b.recv(stage, chunk, micro, ps, b.fwdOut[b.out(ps, pc, micro)], prev, lbRecvFwd)
	}
	first, layers := b.chunkRange(stage, chunk)
	for l := 0; l < layers; l++ {
		gl := first + l
		tail = b.compute(stage, chunk, micro, gl, profiler.FwdMHA, tail, lbFwdMHA)
		tail = b.tpAllReduce(stage, chunk, micro, gl, tail, lbARTPFwdMHA)
		tail = b.compute(stage, chunk, micro, gl, profiler.FwdFFN, tail, lbFwdFFN)
		tail = b.tpAllReduce(stage, chunk, micro, gl, tail, lbARTPFwdFFN)
	}
	if vs == b.lastVirtual() {
		tail = b.compute(stage, chunk, micro, 0, profiler.FwdLMHead, tail, lbFwdLMHead)
	}
	b.fwdOut[b.out(stage, chunk, micro)] = tail
	return tail
}

func (b *builder) emitBackward(stage, chunk, micro int, prev int32) int32 {
	vs := b.virtualStage(stage, chunk)
	tail := prev
	if vs == b.lastVirtual() {
		tail = b.compute(stage, chunk, micro, 0, profiler.BwdLMHead, tail, lbBwdLMHead)
	} else {
		ns, nc := b.virtualCoords(vs + 1)
		tail = b.recv(stage, chunk, micro, ns, b.bwdOut[b.out(ns, nc, micro)], prev, lbRecvBwd)
	}
	// The backward of (chunk, micro) consumes its forward activations.
	b.dep(b.fwdOut[b.out(stage, chunk, micro)])
	first, layers := b.chunkRange(stage, chunk)
	for l := layers - 1; l >= 0; l-- {
		gl := first + l
		if b.plan.Recompute {
			// Full activation recomputation: re-execute the layer's
			// forward pass (including its tensor-parallel
			// All-Reduces) from the checkpointed input before
			// running its backward.
			tail = b.compute(stage, chunk, micro, gl, profiler.FwdMHA, tail, lbRecompMHA)
			tail = b.tpAllReduce(stage, chunk, micro, gl, tail, lbARTPRecompMHA)
			tail = b.compute(stage, chunk, micro, gl, profiler.FwdFFN, tail, lbRecompFFN)
			tail = b.tpAllReduce(stage, chunk, micro, gl, tail, lbARTPRecompFFN)
		}
		tail = b.compute(stage, chunk, micro, gl, profiler.BwdFFN, tail, lbBwdFFN)
		tail = b.tpAllReduce(stage, chunk, micro, gl, tail, lbARTPBwdFFN)
		tail = b.compute(stage, chunk, micro, gl, profiler.BwdMHA, tail, lbBwdMHA)
		tail = b.tpAllReduce(stage, chunk, micro, gl, tail, lbARTPBwdMHA)
		if micro == b.nmb-1 {
			b.lastBwdOfLayer[stage*b.m.Layers+gl] = tail
		}
	}
	if vs == 0 {
		tail = b.compute(stage, chunk, micro, 0, profiler.BwdEmbedding, tail, lbBwdEmbedding)
	}
	b.bwdOut[b.out(stage, chunk, micro)] = tail
	return tail
}

// stageLayerList returns the global layer indices a device owns, in
// ascending-chunk order.
func (b *builder) stageLayerList(stage int) []int {
	var out []int
	for c := 0; c < b.v; c++ {
		first, count := b.chunkRange(stage, c)
		for l := 0; l < count; l++ {
			out = append(out, first+l)
		}
	}
	return out
}

// emitGradientSync inserts the data-parallel gradient All-Reduce operators
// (bucketed per Fig. 5a, or a single one per Fig. 5b) and the weight-update
// operator on every stage.
func (b *builder) emitGradientSync(lastSlotEnd []int32) {
	h := uint64(b.m.Hidden)
	perLayerParams := 12*h*h + 13*h
	for stage := 0; stage < b.plan.Pipeline; stage++ {
		layerList := b.stageLayerList(stage)
		layers := len(layerList)
		stageParams := uint64(layers) * perLayerParams
		if stage == 0 || stage == b.plan.Pipeline-1 {
			stageParams += uint64(b.m.Vocab) * h // embedding / tied LM head
		}

		// The stage's gradient All-Reduces are the last `buckets` nodes
		// emitted before its weight update.
		buckets := 0
		if b.plan.Data > 1 {
			buckets = max(b.plan.GradientBuckets, 1) // Fig. 5b: one All-Reduce at backward end
			if b.v > 1 && buckets > 1 {
				// Interleaved devices synchronize per model chunk.
				buckets = b.v
			}
			buckets = min(buckets, layers)
			// Partition the stage's layers into contiguous buckets.
			// Buckets covering later layers become ready earlier in
			// the backward pass (Fig. 5a) because backward visits
			// layers in reverse.
			for bk := 0; bk < buckets; bk++ {
				lo := layerList[bk*layers/buckets]
				hi := layerList[(bk+1)*layers/buckets-1] + 1
				nd := b.node(AllReduceDP, stage, -1, lbARDP)
				nd.Layer, nd.LayerEnd = int32(lo), int32(hi)
				nd.Bucket, nd.Buckets, nd.StageParams = int32(bk), int32(buckets), stageParams
				b.add()
				// Ready when the earliest layer of the bucket has
				// produced its gradient in the final micro-batch.
				if n := b.lastBwdOfLayer[stage*b.m.Layers+lo]; n >= 0 {
					b.dep(n)
				} else {
					b.dep(lastSlotEnd[stage])
				}
			}
		}

		nd := b.node(Compute, stage, -1, lbWeightUpdate)
		nd.Op, nd.StageParams = profiler.WeightUpdate, stageParams
		wu := b.add()
		b.dep(lastSlotEnd[stage])
		for ar := wu - int32(buckets); ar < wu; ar++ {
			b.dep(ar)
		}
	}
}
