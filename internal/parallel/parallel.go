// Package parallel describes 3D-parallel training plans: (t, d, p)-way
// tensor/data/pipeline parallelism with micro-batched pipeline schedules,
// following Section II-B of the paper.
//
// A Plan is validated against a model and a cluster: the product t·d·p must
// equal the GPU count, tensor parallelism must divide attention heads and
// stay within a node (the paper places TP intra-node on NVLink), pipeline
// parallelism must not exceed the layer count, and the global batch must
// decompose into micro-batches.
package parallel

import (
	"fmt"
	"math"
	"math/bits"

	"vtrain/internal/hw"
	"vtrain/internal/model"
)

// Schedule selects the pipeline scheduling policy of Fig. 7.
type Schedule int

const (
	// OneFOneB is PipeDream's one-forward-one-backward schedule; each
	// stage holds at most p micro-batches in flight.
	OneFOneB Schedule = iota
	// GPipe runs all forward passes then all backward passes; all
	// micro-batches are in flight at the peak.
	GPipe
)

// String implements fmt.Stringer.
func (s Schedule) String() string {
	switch s {
	case OneFOneB:
		return "1F1B"
	case GPipe:
		return "GPipe"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// Plan is a complete 3D-parallel training configuration.
type Plan struct {
	// Tensor is t, the tensor-parallel width (intra-node).
	Tensor int
	// Data is d, the data-parallel width.
	Data int
	// Pipeline is p, the pipeline-parallel depth.
	Pipeline int
	// MicroBatch is m, the per-micro-batch size in sequences per
	// data-parallel replica.
	MicroBatch int
	// GlobalBatch is the iteration batch size in sequences across the
	// whole system.
	GlobalBatch int
	// Schedule is the pipeline schedule (1F1B by default; the zero value
	// is 1F1B which is what Megatron-DeepSpeed uses).
	Schedule Schedule
	// GradientBuckets is the number of data-parallel gradient buckets
	// (Fig. 5). Zero disables bucketing: a single All-Reduce at the end
	// of the backward pass.
	GradientBuckets int
	// Recompute enables full activation recomputation (Megatron
	// "--recompute-granularity full"): each stage stores only layer
	// inputs and re-executes the forward pass during backward, trading
	// ~1/3 extra compute for a much smaller activation footprint.
	Recompute bool
	// VirtualStages is Megatron-LM's interleaved pipeline schedule: each
	// device hosts v model chunks, shrinking the pipeline bubble from
	// (p-1)/(n+p-1) toward (p-1)/(v·n+p-1) at the cost of v times more
	// inter-stage communication. Values 0 and 1 mean no interleaving.
	// Requires the 1F1B schedule, layers divisible by p·v, and a
	// micro-batch count divisible by p.
	VirtualStages int
}

// GPUs returns the total GPU count t·d·p.
func (p Plan) GPUs() int { return p.Tensor * p.Data * p.Pipeline }

// MicroBatches returns the number of micro-batches each pipeline executes
// per iteration: GlobalBatch / (Data · MicroBatch).
func (p Plan) MicroBatches() int {
	den := p.Data * p.MicroBatch
	if den == 0 {
		return 0
	}
	return p.GlobalBatch / den
}

// Interleaved reports whether the plan uses virtual pipeline stages.
func (p Plan) Interleaved() bool { return p.VirtualStages > 1 }

// InFlight returns the peak number of in-flight micro-batches per stage
// under the plan's schedule, used by the memory model. Interleaving keeps
// roughly p + (p-1)/v whole-stage activations resident (p·v + p - 1 chunk
// activations, each 1/v of a stage).
func (p Plan) InFlight() int {
	nmb := p.MicroBatches()
	if p.Schedule == GPipe {
		return nmb
	}
	inflight := p.Pipeline
	if p.Interleaved() {
		v := p.VirtualStages
		inflight = (p.Pipeline*v + p.Pipeline - 1 + v - 1) / v
	}
	if inflight > nmb {
		inflight = nmb
	}
	return inflight
}

// String implements fmt.Stringer in the paper's (t,d,p) notation.
func (p Plan) String() string {
	if p.Interleaved() {
		return fmt.Sprintf("(t=%d,d=%d,p=%d,m=%d,B=%d,%s,v=%d)",
			p.Tensor, p.Data, p.Pipeline, p.MicroBatch, p.GlobalBatch, p.Schedule, p.VirtualStages)
	}
	return fmt.Sprintf("(t=%d,d=%d,p=%d,m=%d,B=%d,%s)",
		p.Tensor, p.Data, p.Pipeline, p.MicroBatch, p.GlobalBatch, p.Schedule)
}

// ChunkLayers returns the decoder layers per model chunk under
// interleaving (stage layers when not interleaved). Valid plans divide
// evenly.
func (p Plan) ChunkLayers(m model.Config) int {
	if !p.Interleaved() {
		return p.MaxStageLayers(m)
	}
	return m.Layers / (p.Pipeline * p.VirtualStages)
}

// Validate checks the plan against a model and cluster. It enforces the
// structural rules only; memory feasibility is checked separately so design
// space exploration can report OOM points distinctly.
func (p Plan) Validate(m model.Config, c hw.Cluster) error {
	if p.Tensor < 1 || p.Data < 1 || p.Pipeline < 1 {
		return fmt.Errorf("parallel: degrees must be >= 1, got %s", p)
	}
	if p.MicroBatch < 1 {
		return fmt.Errorf("parallel: micro-batch must be >= 1, got %d", p.MicroBatch)
	}
	if p.GlobalBatch < 1 {
		return fmt.Errorf("parallel: global batch must be >= 1, got %d", p.GlobalBatch)
	}
	if got, want := p.GPUs(), c.TotalGPUs(); got > want {
		return fmt.Errorf("parallel: plan %s needs %d GPUs but cluster has %d", p, got, want)
	}
	// Tensor parallelism normally stays on NVLink; the paper's design
	// space additionally explores t up to 16 (two full nodes), which we
	// allow as whole-node multiples — the communication model then prices
	// those All-Reduces with the inter-node analytical model.
	if p.Tensor <= c.Node.GPUsPerNode {
		if c.Node.GPUsPerNode%p.Tensor != 0 {
			return fmt.Errorf("parallel: tensor parallelism %d does not divide node size %d",
				p.Tensor, c.Node.GPUsPerNode)
		}
	} else if p.Tensor%c.Node.GPUsPerNode != 0 {
		return fmt.Errorf("parallel: tensor parallelism %d spanning nodes must be a multiple of node size %d",
			p.Tensor, c.Node.GPUsPerNode)
	}
	if m.Heads%p.Tensor != 0 {
		return fmt.Errorf("parallel: tensor parallelism %d does not divide %d attention heads",
			p.Tensor, m.Heads)
	}
	if p.Pipeline > m.Layers {
		return fmt.Errorf("parallel: pipeline depth %d exceeds %d layers", p.Pipeline, m.Layers)
	}
	if p.GlobalBatch%(p.Data*p.MicroBatch) != 0 {
		return fmt.Errorf("parallel: global batch %d not divisible by data-parallel %d x micro-batch %d",
			p.GlobalBatch, p.Data, p.MicroBatch)
	}
	if p.GradientBuckets < 0 {
		return fmt.Errorf("parallel: gradient buckets must be >= 0, got %d", p.GradientBuckets)
	}
	if p.VirtualStages < 0 {
		return fmt.Errorf("parallel: virtual stages must be >= 0, got %d", p.VirtualStages)
	}
	if p.Interleaved() {
		v := p.VirtualStages
		if p.Schedule != OneFOneB {
			return fmt.Errorf("parallel: interleaving requires the 1F1B schedule")
		}
		if p.Pipeline < 2 {
			return fmt.Errorf("parallel: interleaving requires pipeline parallelism, got p=%d", p.Pipeline)
		}
		if m.Layers%(p.Pipeline*v) != 0 {
			return fmt.Errorf("parallel: %d layers not divisible by p*v = %d", m.Layers, p.Pipeline*v)
		}
		if p.MicroBatches()%p.Pipeline != 0 {
			return fmt.Errorf("parallel: interleaving requires micro-batch count %d divisible by pipeline depth %d",
				p.MicroBatches(), p.Pipeline)
		}
	}
	// Tokens per iteration must fit a uint64, and the profiler sizes one
	// micro-batch's kernels in int element counts: the widest per-layer
	// tensors have b·s rows and 4h (FFN), V (LM head) or n·s (attention
	// scores) columns. 2^62 leaves headroom for tile rounding.
	b, s := uint64(p.MicroBatch), uint64(m.SeqLen)
	if !within(math.MaxUint64, uint64(p.GlobalBatch), s) {
		return fmt.Errorf("parallel: global batch %d x sequence length %d overflows the tokens per iteration",
			p.GlobalBatch, m.SeqLen)
	}
	if !within(1<<62, b, s, 4, uint64(m.Hidden)) || !within(1<<62, b, s, uint64(m.Vocab)) || !within(1<<62, b, s, uint64(m.Heads), s) {
		return fmt.Errorf("parallel: micro-batch %d of %d-token sequences overflows the kernel element counts of %s",
			p.MicroBatch, m.SeqLen, m.Name)
	}
	return nil
}

// within reports whether the product of xs is at most limit, checked with
// math/bits so no intermediate product wraps.
func within(limit uint64, xs ...uint64) bool {
	prod := uint64(1)
	for _, x := range xs {
		hi, lo := bits.Mul64(prod, x)
		if hi != 0 || lo > limit {
			return false
		}
		prod = lo
	}
	return true
}

// StageLayers returns the number of decoder layers assigned to pipeline
// stage idx (0-based) for a model with L layers: layers are distributed as
// evenly as possible with earlier stages taking the remainder, matching
// Megatron's partitioning.
func (p Plan) StageLayers(m model.Config, idx int) int {
	base := m.Layers / p.Pipeline
	rem := m.Layers % p.Pipeline
	if idx < rem {
		return base + 1
	}
	return base
}

// MaxStageLayers returns the layer count of the most loaded stage.
func (p Plan) MaxStageLayers(m model.Config) int { return p.StageLayers(m, 0) }

// PeakMemoryBytes returns the plan's estimated per-GPU peak memory,
// honoring activation recomputation.
func (p Plan) PeakMemoryBytes(m model.Config) uint64 {
	if p.Recompute {
		return m.PeakMemoryBytesRecompute(p.MicroBatch, p.Tensor, p.Pipeline, p.InFlight())
	}
	return m.PeakMemoryBytes(p.MicroBatch, p.Tensor, p.Pipeline, p.InFlight())
}

// FitsMemory reports whether the plan's peak per-GPU memory fits the
// device, using the Megatron-style memory model.
func (p Plan) FitsMemory(m model.Config, g hw.GPU) bool {
	return p.PeakMemoryBytes(m) <= g.MemCapacity
}
