package model

// Memory modeling follows Megatron-LM's mixed-precision training recipe,
// which the paper's testbed (Megatron-DeepSpeed, FP16) uses:
//
//   - model states: 18 bytes per parameter (FP16 weights 2 + FP16 gradients 2
//     + FP32 master weights 4 + Adam first/second moments 8), sharded across
//     tensor-parallel and pipeline-parallel ranks;
//   - activations: per micro-batch, per layer, s·b·h·(34 + 5·n·s/h) bytes
//     without tensor parallelism (Korthikanti et al.), with the
//     tensor-parallel shardable portion divided by t.
//
// These numbers prune infeasible (t,d,p,m) points during design-space
// exploration exactly as real Megatron runs would OOM. Every byte count
// saturates at math.MaxUint64 instead of wrapping, so an oversized plan
// simply does not fit.

import (
	"math"
	"math/bits"
)

// BytesPerParamState is the mixed-precision Adam state size per parameter.
const BytesPerParamState = 18

// BytesPerParamCheckpoint is the per-parameter size of the state a
// checkpoint must persist to resume training exactly: FP16 weights (2) +
// FP32 master weights (4) + Adam first/second moments (8). Gradients are
// recomputed on restart, so the checkpoint is 4 bytes/param smaller than
// the resident BytesPerParamState.
const BytesPerParamCheckpoint = 14

// CheckpointBytes returns the size of one full training checkpoint: every
// parameter's persistent optimizer state, independent of how the model is
// sharded (each rank writes its shard, the aggregate is the whole model).
// internal/resilience derives checkpoint-write time from it.
func (c Config) CheckpointBytes() uint64 {
	return satMul(c.Params(), BytesPerParamCheckpoint)
}

// satMul returns a·b, saturating at math.MaxUint64 instead of wrapping.
func satMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 {
		return math.MaxUint64
	}
	return lo
}

// satAdd returns a+b, saturating at math.MaxUint64 instead of wrapping.
func satAdd(a, b uint64) uint64 {
	sum, carry := bits.Add64(a, b, 0)
	if carry != 0 {
		return math.MaxUint64
	}
	return sum
}

// ModelStateBytes returns the per-GPU bytes of weights, gradients, and
// optimizer state when the model is sharded t-way tensor parallel and p-way
// pipeline parallel. Data parallelism replicates states, so d does not
// appear. Embeddings shard across t like everything else in Megatron.
func (c Config) ModelStateBytes(t, p int) uint64 {
	if t < 1 {
		t = 1
	}
	if p < 1 {
		p = 1
	}
	// The pipeline partitions layers; the first stage additionally holds
	// the embedding and the last the LM head (tied weights). Charge the
	// worst stage: ceil(L/p) layers plus the embedding table.
	h := uint64(c.Hidden)
	layersPerStage := (uint64(c.Layers) + uint64(p) - 1) / uint64(p)
	perLayer := satAdd(satMul(12, satMul(h, h)), satMul(13, h))
	stageParams := satAdd(satMul(layersPerStage, perLayer), satMul(uint64(c.Vocab)+uint64(c.SeqLen), h))
	bytes := satMul(stageParams, BytesPerParamState)
	if bytes == math.MaxUint64 {
		return bytes
	}
	return bytes / uint64(t)
}

// ActivationBytesPerMicroBatch returns the activation memory of one
// micro-batch of microBatch sequences resident on one pipeline stage, with
// t-way tensor parallelism and no activation recomputation.
func (c Config) ActivationBytesPerMicroBatch(microBatch, t, p int) uint64 {
	if t < 1 {
		t = 1
	}
	if p < 1 {
		p = 1
	}
	s := float64(c.SeqLen)
	b := float64(microBatch)
	h := float64(c.Hidden)
	n := float64(c.Heads)
	tf := float64(t)
	// Per-layer: sbh·(10 + 24/t + 5ns/(ht)); the constant 10 covers the
	// unshardable LayerNorm/dropout/residual tensors.
	perLayer := s * b * h * (10 + 24/tf + 5*n*s/(h*tf))
	layersPerStage := (c.Layers + p - 1) / p
	if perLayer >= 1<<64 {
		return math.MaxUint64
	}
	return satMul(uint64(perLayer), uint64(layersPerStage))
}

// PeakMemoryBytes estimates per-GPU peak memory for a training configuration:
// model states plus activations for the number of in-flight micro-batches
// (inFlight = pipeline depth p under 1F1B, total micro-batch count under
// GPipe).
func (c Config) PeakMemoryBytes(microBatch, t, p, inFlight int) uint64 {
	if inFlight < 1 {
		inFlight = 1
	}
	return satAdd(c.ModelStateBytes(t, p), satMul(uint64(inFlight), c.ActivationBytesPerMicroBatch(microBatch, t, p)))
}

// RecomputeActivationBytesPerMicroBatch returns the stored activation
// memory per in-flight micro-batch under full activation recomputation:
// only each layer's FP16 input (2·s·b·h bytes, sharded across t by sequence
// parallelism in modern Megatron; we keep the unsharded checkpoint as the
// conservative classic behavior).
func (c Config) RecomputeActivationBytesPerMicroBatch(microBatch, t, p int) uint64 {
	if p < 1 {
		p = 1
	}
	layersPerStage := (c.Layers + p - 1) / p
	perLayer := satMul(satMul(2*uint64(c.SeqLen), uint64(microBatch)), uint64(c.Hidden))
	return satMul(perLayer, uint64(layersPerStage))
}

// PeakMemoryBytesRecompute is PeakMemoryBytes under full activation
// recomputation: checkpointed layer inputs for every in-flight micro-batch
// plus one layer's full working set (the layer currently being recomputed).
func (c Config) PeakMemoryBytesRecompute(microBatch, t, p, inFlight int) uint64 {
	if inFlight < 1 {
		inFlight = 1
	}
	// ActivationBytesPerMicroBatch charges a full stage; p = Layers makes
	// that exactly one layer — the recompute working set.
	working := c.ActivationBytesPerMicroBatch(microBatch, t, c.Layers)
	stored := satMul(uint64(inFlight), c.RecomputeActivationBytesPerMicroBatch(microBatch, t, p))
	return satAdd(satAdd(c.ModelStateBytes(t, p), stored), working)
}
