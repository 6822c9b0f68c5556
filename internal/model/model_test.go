package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"valid", func(c *Config) {}, false},
		{"zero hidden", func(c *Config) { c.Hidden = 0 }, true},
		{"negative hidden", func(c *Config) { c.Hidden = -1 }, true},
		{"zero layers", func(c *Config) { c.Layers = 0 }, true},
		{"zero seq", func(c *Config) { c.SeqLen = 0 }, true},
		{"zero heads", func(c *Config) { c.Heads = 0 }, true},
		{"zero vocab", func(c *Config) { c.Vocab = 0 }, true},
		{"heads not dividing hidden", func(c *Config) { c.Heads = 7 }, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := GPT3175B()
			tc.mutate(&c)
			err := c.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() error = %v, wantErr = %v", err, tc.wantErr)
			}
		})
	}
}

func TestParamsMatchPublishedCounts(t *testing.T) {
	// The catalog names embed the published parameter counts; the
	// analytic formula must reproduce them within 2 %.
	tests := []struct {
		cfg  Config
		want float64 // billions
	}{
		{GPT3175B(), 175},
		{MTNLG530B(), 530},
		{Megatron3_6B(), 3.6},
		{Megatron18_4B(), 18.4},
		{Megatron39_1B(), 39.1},
		{Megatron81_2B(), 81.2},
	}
	for _, tc := range tests {
		got := tc.cfg.ParamsBillions()
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.02 {
			t.Errorf("%s: params = %.2fB, want %.2fB (rel err %.1f%%)", tc.cfg.Name, got, tc.want, 100*rel)
		}
	}
}

func TestHeadDim(t *testing.T) {
	c := GPT3175B()
	if got, want := c.HeadDim(), 128; got != want {
		t.Fatalf("HeadDim() = %d, want %d", got, want)
	}
}

func TestFLOPsPerIterationAgainstSixND(t *testing.T) {
	// The Megatron analytic FLOPs must exceed the 6·N·D lower bound
	// (it adds attention and LM-head terms) but stay within ~1.6x.
	for _, c := range []Config{GPT3175B(), MTNLG530B(), Megatron18_4B()} {
		batch := 1024
		got := c.FLOPsPerIteration(batch)
		lower := 6 * float64(c.Params()) * float64(c.TokensPerIteration(batch))
		if got < lower {
			t.Errorf("%s: FLOPs %.3g below 6·N·D bound %.3g", c.Name, got, lower)
		}
		if got > 1.6*lower {
			t.Errorf("%s: FLOPs %.3g implausibly above 6·N·D bound %.3g", c.Name, got, lower)
		}
	}
}

func TestIterations(t *testing.T) {
	c := MTNLG530B()
	// MT-NLG: 270B tokens at batch 1920 x 2048 tokens -> ~68,000 iters
	// (the paper's Section V-A).
	iters := c.Iterations(270e9, 1920)
	if iters < 65000 || iters > 71000 {
		t.Fatalf("Iterations = %d, want ~68,000", iters)
	}
}

func TestIterationsRoundsUp(t *testing.T) {
	c := Config{Name: "t", Hidden: 64, Layers: 2, SeqLen: 10, Heads: 2, Vocab: 100}
	for _, tc := range []struct {
		tokens, want uint64
	}{
		{25, 3}, // 10 tokens/iter, 25 tokens
		{0, 0},
		{30, 3},                               // exact multiple
		{9, 1},                                // one token short of an iteration
		{math.MaxUint64, 1844674407370955162}, // rounds up without wrapping
	} {
		if got := c.Iterations(tc.tokens, 1); got != tc.want {
			t.Errorf("Iterations(%d, 1) = %d, want %d", tc.tokens, got, tc.want)
		}
	}
}

func TestTokensPerIterationZeroBatchGuard(t *testing.T) {
	c := GPT3175B()
	if got := c.Iterations(100, 0); got != 0 {
		t.Fatalf("Iterations with zero batch = %d, want 0", got)
	}
}

func TestParamsMonotoneInDimensions(t *testing.T) {
	// Property: params grow monotonically in hidden size and layers.
	f := func(h8, l uint8) bool {
		h := (int(h8)%32 + 1) * 128
		layers := int(l)%48 + 1
		base := Config{Name: "p", Hidden: h, Layers: layers, SeqLen: 512, Heads: 1, Vocab: 1000}
		bigger := base
		bigger.Hidden += 128
		deeper := base
		deeper.Layers++
		return bigger.Params() > base.Params() && deeper.Params() > base.Params()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableIII(t *testing.T) {
	rows := TableIII()
	if len(rows) != 3 {
		t.Fatalf("TableIII has %d rows, want 3", len(rows))
	}
	wantBatch := []int{1024, 1536, 1792}
	for i, r := range rows {
		if err := r.Config.Validate(); err != nil {
			t.Errorf("row %d: %v", i, err)
		}
		if r.Batch != wantBatch[i] {
			t.Errorf("row %d: batch %d, want %d", i, r.Batch, wantBatch[i])
		}
	}
}

func TestCustomUsesMegatronVocab(t *testing.T) {
	c := Custom(1024, 24, 2048, 16)
	if c.Vocab != megatronVocab {
		t.Fatalf("Custom vocab = %d, want %d", c.Vocab, megatronVocab)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStringIncludesShape(t *testing.T) {
	s := GPT3175B().String()
	for _, want := range []string{"h=12288", "L=96", "174.6B"} {
		if !contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestValidateParamStateBoundary pins the overflow check at its exact
// bound: a one-layer model of hidden size 1 has V+28 parameters, so the
// largest vocabulary whose 18-byte state fits a uint64 passes and the next
// one fails. The repro with h = s = 2^62, whose wrapped count read as 0.0B
// parameters, is rejected too.
func TestValidateParamStateBoundary(t *testing.T) {
	c := Config{Name: "edge", Hidden: 1, Layers: 1, SeqLen: 1, Heads: 1}
	c.Vocab = int(math.MaxUint64/BytesPerParamState) - 28
	if err := c.Validate(); err != nil {
		t.Fatalf("largest fitting vocabulary rejected: %v", err)
	}
	c.Vocab++
	if err := c.Validate(); err == nil {
		t.Fatalf("vocabulary %d overflows the parameter state but was accepted", c.Vocab)
	}
	huge := Config{Name: "huge", Hidden: 1 << 62, Layers: 1, SeqLen: 1 << 62, Heads: 1, Vocab: 1}
	if err := huge.Validate(); err == nil {
		t.Fatal("h = s = 2^62 accepted")
	}
	if got := huge.Params(); got != math.MaxUint64 {
		t.Fatalf("Params() = %d, want saturation at MaxUint64", got)
	}
}
