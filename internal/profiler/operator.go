// Package profiler is vTrain's profiling module (Section III-C): it
// determines which low-level kernels ("tasks") each high-level operator
// decomposes into and how long each kernel runs on the target GPU, building
// the operator-to-task lookup table.
//
// On real hardware this is done by executing each operator once under CUPTI
// and attributing kernels to operators with Daydream's task-to-layer
// mapping. Here the target GPU is the analytical device model in
// internal/gpu, so "executing" an operator means asking the device model
// for each kernel the operator's Megatron implementation would launch. The
// decompositions follow Megatron-LM's FP16 transformer blocks.
//
// The necessary-operator optimization is implemented exactly as described:
// operators are cached by their shape key, so a model with L identical
// decoder layers and N micro-batches profiles each distinct operator once
// (O(1) rather than O(L·N)).
package profiler

import (
	"fmt"

	"vtrain/internal/model"
)

// OpKind enumerates the computation operators of a decoder-only LLM's
// training iteration (Fig. 2 / Fig. 4 of the paper).
type OpKind int

const (
	// FwdEmbedding looks up word+position embeddings for a micro-batch.
	FwdEmbedding OpKind = iota
	// BwdEmbedding scatters gradients into the embedding tables.
	BwdEmbedding
	// FwdMHA is the forward multi-head-attention block including its
	// leading LayerNorm, QKV/output projections, and dropout+residual.
	FwdMHA
	// BwdMHA is the corresponding backward pass.
	BwdMHA
	// FwdFFN is the forward feed-forward block including its LayerNorm,
	// the two FC layers, GELU, and dropout+residual.
	FwdFFN
	// BwdFFN is the corresponding backward pass.
	BwdFFN
	// FwdLMHead projects final hidden states onto the vocabulary and
	// evaluates the softmax cross-entropy loss.
	FwdLMHead
	// BwdLMHead is the corresponding backward pass.
	BwdLMHead
	// WeightUpdate is the fused Adam step over a parameter shard.
	WeightUpdate
)

// opKindNames is indexed by OpKind; the kinds are dense from FwdEmbedding.
// An array (not a map) keeps String allocation- and hash-free — lowering
// interns a class string per task, so this sits on the sweep hot path.
var opKindNames = [...]string{
	FwdEmbedding: "FwdEmbedding",
	BwdEmbedding: "BwdEmbedding",
	FwdMHA:       "FwdMHA",
	BwdMHA:       "BwdMHA",
	FwdFFN:       "FwdFFN",
	BwdFFN:       "BwdFFN",
	FwdLMHead:    "FwdLMHead",
	BwdLMHead:    "BwdLMHead",
	WeightUpdate: "WeightUpdate",
}

// kernelCounts is indexed by OpKind: the length of the kernel sequence
// Profile returns for the kind, which no operator dimension changes.
var kernelCounts = [...]int{
	FwdEmbedding: 3,
	BwdEmbedding: 2,
	FwdMHA:       9,
	BwdMHA:       13,
	FwdFFN:       5,
	BwdFFN:       7,
	FwdLMHead:    4,
	BwdLMHead:    4,
	WeightUpdate: 1,
}

// KernelCount returns the number of kernels an operator of kind k
// decomposes into, or 0 for an unknown kind.
func KernelCount(k OpKind) int {
	if k >= 0 && int(k) < len(kernelCounts) {
		return kernelCounts[k]
	}
	return 0
}

// String implements fmt.Stringer.
func (k OpKind) String() string {
	if k >= 0 && int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// IsForward reports whether the operator belongs to the forward pass.
func (k OpKind) IsForward() bool {
	switch k {
	case FwdEmbedding, FwdMHA, FwdFFN, FwdLMHead:
		return true
	}
	return false
}

// Operator is a layer-node's computation: one operator instance executed on
// one GPU. Its key fields fully determine the kernel decomposition, which is
// what makes the necessary-operator cache sound.
type Operator struct {
	// Kind selects the decomposition.
	Kind OpKind
	// Model supplies (h, s, n, V).
	Model model.Config
	// MicroBatch is the per-replica micro-batch size in sequences.
	MicroBatch int
	// Tensor is the tensor-parallel width sharding this operator.
	Tensor int
	// Params is the parameter count for WeightUpdate operators (the
	// shard owned by one GPU); zero otherwise.
	Params uint64
}

// Key is the shape signature the profile cache is indexed by. Two operators
// with equal keys launch identical kernel sequences — the paper's
// "identically shaped decoder layer stacked repeatedly" observation.
type Key struct {
	Kind       OpKind
	Hidden     int
	SeqLen     int
	Heads      int
	Vocab      int
	MicroBatch int
	Tensor     int
	Params     uint64
}

// Key returns the cache signature of the operator.
func (o Operator) Key() Key {
	return Key{
		Kind:       o.Kind,
		Hidden:     o.Model.Hidden,
		SeqLen:     o.Model.SeqLen,
		Heads:      o.Model.Heads,
		Vocab:      o.Model.Vocab,
		MicroBatch: o.MicroBatch,
		Tensor:     o.Tensor,
		Params:     o.Params,
	}
}

// String implements fmt.Stringer.
func (o Operator) String() string {
	return fmt.Sprintf("%s[h=%d,s=%d,b=%d,t=%d]", o.Kind, o.Model.Hidden, o.Model.SeqLen, o.MicroBatch, o.Tensor)
}
