// Package model describes decoder-only transformer LLM architectures and the
// analytic quantities vTrain derives from them: parameter counts, FLOP
// counts, and activation-memory footprints.
//
// A model is characterized exactly as in Section II-A of the paper: hidden
// size h, number of decoder layers L, maximum sequence length s, number of
// attention heads n, plus the vocabulary size V that sizes the embedding and
// LM head.
package model

import (
	"fmt"
	"math"
)

// Config is a decoder-only transformer architecture.
type Config struct {
	// Name labels the configuration in reports.
	Name string
	// Hidden is the hidden size h.
	Hidden int
	// Layers is the number of decoder layers L.
	Layers int
	// SeqLen is the maximum sequence length s (tokens per sample).
	SeqLen int
	// Heads is the number of attention heads n; Hidden must be divisible
	// by Heads.
	Heads int
	// Vocab is the vocabulary size V. Megatron pads the vocabulary to a
	// multiple of 128*t; we keep the nominal size and let callers round.
	Vocab int
}

// Validate reports an error for inconsistent architectures.
func (c Config) Validate() error {
	switch {
	case c.Hidden <= 0:
		return fmt.Errorf("model %s: hidden size must be positive, got %d", c.Name, c.Hidden)
	case c.Layers <= 0:
		return fmt.Errorf("model %s: layer count must be positive, got %d", c.Name, c.Layers)
	case c.SeqLen <= 0:
		return fmt.Errorf("model %s: sequence length must be positive, got %d", c.Name, c.SeqLen)
	case c.Heads <= 0:
		return fmt.Errorf("model %s: head count must be positive, got %d", c.Name, c.Heads)
	case c.Vocab <= 0:
		return fmt.Errorf("model %s: vocabulary must be positive, got %d", c.Name, c.Vocab)
	case c.Hidden%c.Heads != 0:
		return fmt.Errorf("model %s: hidden size %d not divisible by %d heads", c.Name, c.Hidden, c.Heads)
	case satMul(c.Params(), BytesPerParamState) == math.MaxUint64:
		// 2^64-1 is odd, so an exact product never equals it: the
		// saturated value means the state size does not fit a uint64.
		return fmt.Errorf("model %s: parameter state at %d bytes per parameter overflows 64 bits (h=%d, L=%d, s=%d, V=%d)",
			c.Name, BytesPerParamState, c.Hidden, c.Layers, c.SeqLen, c.Vocab)
	}
	return nil
}

// HeadDim returns the per-head dimension h/n.
func (c Config) HeadDim() int { return c.Hidden / c.Heads }

// Params returns the total parameter count: L·(12h²+13h) for the decoder
// stack (QKV + attention output projections = 4h², FFN = 8h², plus biases
// and the two LayerNorms), the tied word embedding V·h, positional
// embeddings s·h, and the final LayerNorm. The count saturates at
// math.MaxUint64 instead of wrapping.
func (c Config) Params() uint64 {
	h := uint64(c.Hidden)
	perLayer := satAdd(satMul(12, satMul(h, h)), satMul(13, h))
	return satAdd(satMul(uint64(c.Layers), perLayer), satMul(uint64(c.Vocab)+uint64(c.SeqLen)+2, h))
}

// ParamsBillions returns Params in units of 1e9, convenient for reports.
func (c Config) ParamsBillions() float64 { return float64(c.Params()) / 1e9 }

// FLOPsPerIteration returns the total FLOPs of one training iteration over a
// global batch of batchSeqs sequences, using the Megatron-LM analytic model
// (Narayanan et al., SC'21):
//
//	F = 96·B·s·L·h² · (1 + s/(6h) + V/(16·L·h))
//
// which accounts for forward+backward matmuls (factor 6 over the 16·B·s·L·h²
// forward GEMM FLOPs), the quadratic attention term, and the LM head.
func (c Config) FLOPsPerIteration(batchSeqs int) float64 {
	b := float64(batchSeqs)
	s := float64(c.SeqLen)
	l := float64(c.Layers)
	h := float64(c.Hidden)
	v := float64(c.Vocab)
	return 96 * b * s * l * h * h * (1 + s/(6*h) + v/(16*l*h))
}

// TokensPerIteration returns batch tokens for a given global batch size in
// sequences.
func (c Config) TokensPerIteration(batchSeqs int) uint64 {
	return uint64(batchSeqs) * uint64(c.SeqLen)
}

// Iterations returns the number of training iterations needed to consume
// totalTokens with the given global batch (sequences), rounding up.
func (c Config) Iterations(totalTokens uint64, batchSeqs int) uint64 {
	per := c.TokensPerIteration(batchSeqs)
	if per == 0 {
		return 0
	}
	// Divide, then round up: adding per-1 first would wrap near 2^64.
	q := totalTokens / per
	if totalTokens%per != 0 {
		q++
	}
	return q
}

// String implements fmt.Stringer.
func (c Config) String() string {
	return fmt.Sprintf("%s(h=%d,L=%d,s=%d,n=%d,V=%d,%.1fB)",
		c.Name, c.Hidden, c.Layers, c.SeqLen, c.Heads, c.Vocab, c.ParamsBillions())
}
