package profiler

import (
	"strings"
	"testing"

	"vtrain/internal/gpu"
	"vtrain/internal/hw"
	"vtrain/internal/model"
)

func newProfiler() *Profiler {
	return New(gpu.NewDevice(hw.A100SXM80GB()))
}

func op(kind OpKind, m model.Config, b, t int) Operator {
	return Operator{Kind: kind, Model: m, MicroBatch: b, Tensor: t}
}

func TestDecompositionKernelCounts(t *testing.T) {
	p := newProfiler()
	m := model.Megatron18_4B()
	tests := []struct {
		kind OpKind
		min  int
	}{
		{FwdEmbedding, 2},
		{BwdEmbedding, 2},
		{FwdMHA, 8},  // LN, QKV, QK^T, scale, softmax, dropout, SV, proj, residual
		{BwdMHA, 10}, // each GEMM doubles into dgrad+wgrad
		{FwdFFN, 5},
		{BwdFFN, 6},
		{FwdLMHead, 3},
		{BwdLMHead, 3},
	}
	for _, tc := range tests {
		tasks := p.Profile(op(tc.kind, m, 2, 4))
		if len(tasks) < tc.min {
			t.Errorf("%v: %d kernels, want >= %d", tc.kind, len(tasks), tc.min)
		}
		for _, task := range tasks {
			if task.Duration <= 0 {
				t.Errorf("%v: kernel %s has non-positive duration", tc.kind, task.Kernel.Name)
			}
		}
	}
}

// TestKernelCountMatchesProfile pins KernelCount to the decompositions:
// every kind launches exactly that many kernels at any shape, which is what
// lets artifact decoding bound kernel descriptor indices without a profiler.
func TestKernelCountMatchesProfile(t *testing.T) {
	p := newProfiler()
	for _, m := range []model.Config{model.Megatron3_6B(), model.GPT3175B()} {
		for kind := FwdEmbedding; kind <= WeightUpdate; kind++ {
			for _, tp := range []int{1, 8} {
				o := op(kind, m, 2, tp)
				o.Params = 1 << 20
				if got, want := len(p.Profile(o)), KernelCount(kind); got != want {
					t.Errorf("%v (t=%d): %d kernels, KernelCount says %d", kind, tp, got, want)
				}
			}
		}
	}
	if KernelCount(-1) != 0 || KernelCount(WeightUpdate+1) != 0 {
		t.Error("unknown kinds must count 0 kernels")
	}
}

func TestBackwardCostsRoughlyTwiceForward(t *testing.T) {
	p := newProfiler()
	m := model.Megatron39_1B()
	fwd := p.Duration(op(FwdFFN, m, 2, 8))
	bwd := p.Duration(op(BwdFFN, m, 2, 8))
	ratio := bwd / fwd
	if ratio < 1.6 || ratio > 2.6 {
		t.Fatalf("BwdFFN/FwdFFN = %.2f, want ~2 (dgrad + wgrad)", ratio)
	}
}

func TestTensorParallelismShrinksOperators(t *testing.T) {
	p := newProfiler()
	m := model.MTNLG530B()
	t1 := p.Duration(op(FwdMHA, m, 1, 1))
	t8 := p.Duration(op(FwdMHA, m, 1, 8))
	// 8-way sharding should cut the per-GPU time by 4-8x (GEMMs scale,
	// LayerNorm and residual do not).
	if t8 >= t1/3 {
		t.Fatalf("t=8 MHA %.4g not meaningfully faster than t=1 %.4g", t8, t1)
	}
}

func TestNecessaryOperatorCacheIsO1(t *testing.T) {
	// Profiling the same decoder-layer operator for many layers and
	// micro-batches must execute the device model exactly once — the
	// paper's O(1) necessary-operator claim.
	p := newProfiler()
	m := model.GPT3175B()
	for layer := 0; layer < 96; layer++ {
		for micro := 0; micro < 32; micro++ {
			p.Profile(op(FwdMHA, m, 2, 8))
			p.Profile(op(BwdMHA, m, 2, 8))
		}
	}
	misses, hits := p.CacheStats()
	if misses != 2 {
		t.Fatalf("distinct profiles = %d, want 2 (FwdMHA, BwdMHA)", misses)
	}
	if hits != 96*32*2-2 {
		t.Fatalf("cache hits = %d, want %d", hits, 96*32*2-2)
	}
}

func TestDifferentShapesProfileSeparately(t *testing.T) {
	p := newProfiler()
	p.Profile(op(FwdMHA, model.Megatron18_4B(), 1, 1))
	p.Profile(op(FwdMHA, model.Megatron39_1B(), 1, 1))
	p.Profile(op(FwdMHA, model.Megatron18_4B(), 2, 1)) // different micro-batch
	p.Profile(op(FwdMHA, model.Megatron18_4B(), 1, 2)) // different tensor width
	misses, _ := p.CacheStats()
	if misses != 4 {
		t.Fatalf("distinct profiles = %d, want 4", misses)
	}
}

func TestWeightUpdateScalesWithParams(t *testing.T) {
	p := newProfiler()
	m := model.Megatron18_4B()
	small := Operator{Kind: WeightUpdate, Model: m, MicroBatch: 1, Tensor: 1, Params: 1 << 20}
	large := Operator{Kind: WeightUpdate, Model: m, MicroBatch: 1, Tensor: 1, Params: 1 << 30}
	if p.Duration(large) <= p.Duration(small) {
		t.Fatal("Adam step must scale with parameter count")
	}
}

func TestDurationIncludesLaunchOverhead(t *testing.T) {
	dev := gpu.NewDevice(hw.A100SXM80GB())
	p := New(dev)
	o := op(FwdFFN, model.Megatron3_6B(), 1, 1)
	tasks := p.Profile(o)
	for _, task := range tasks {
		if task.Duration < task.Kernel.Duration+dev.Spec.KernelLaunchOverhead-1e-15 {
			t.Fatalf("task %s missing launch overhead", task.Kernel.Name)
		}
	}
}

func TestFLOPsAccounting(t *testing.T) {
	p := newProfiler()
	m := model.Megatron18_4B()
	// Per-layer forward GEMM FLOPs with t=1 are ~ 24·b·s·h² plus the
	// 4·b·s²·h attention terms; the decomposition must land within 20%.
	b, s, h := 1, float64(m.SeqLen), float64(m.Hidden)
	want := 24*float64(b)*s*h*h + 4*float64(b)*s*s*h
	got := p.FLOPs(op(FwdMHA, m, b, 1)) + p.FLOPs(op(FwdFFN, m, b, 1))
	if got < 0.8*want || got > 1.25*want {
		t.Fatalf("layer forward FLOPs = %.3g, want ~%.3g", got, want)
	}
}

func TestTableSortedAndComplete(t *testing.T) {
	p := newProfiler()
	m := model.Megatron3_6B()
	p.Profile(op(FwdFFN, m, 1, 1))
	p.Profile(op(FwdMHA, m, 1, 1))
	entries := p.Table()
	if len(entries) != 2 {
		t.Fatalf("table has %d entries, want 2", len(entries))
	}
	if entries[0].Key.Kind > entries[1].Key.Kind {
		t.Fatal("table not sorted by operator kind")
	}
}

func TestOpKindString(t *testing.T) {
	if FwdMHA.String() != "FwdMHA" || WeightUpdate.String() != "WeightUpdate" {
		t.Fatal("operator kind names changed")
	}
	if !strings.Contains(OpKind(42).String(), "42") {
		t.Fatal("unknown kind formatting changed")
	}
	if !FwdEmbedding.IsForward() || BwdMHA.IsForward() {
		t.Fatal("IsForward misclassifies")
	}
}

func TestKernelNamesLookLikeCUDA(t *testing.T) {
	p := newProfiler()
	tasks := p.Profile(op(FwdMHA, model.Megatron3_6B(), 1, 1))
	foundGEMM := false
	for _, task := range tasks {
		if strings.Contains(task.Kernel.Name, "gemm") {
			foundGEMM = true
		}
	}
	if !foundGEMM {
		t.Fatal("MHA decomposition must contain GEMM kernels")
	}
}

func TestUnknownOperatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown operator kind must panic")
		}
	}()
	newProfiler().Profile(Operator{Kind: OpKind(99), Model: model.Megatron3_6B(), MicroBatch: 1, Tensor: 1})
}
