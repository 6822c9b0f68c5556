package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestModelStateBytesSharding(t *testing.T) {
	c := Megatron18_4B()
	full := c.ModelStateBytes(1, 1)
	// 18 bytes per parameter, single shard: within 5% of 18 * params
	// (the single-stage shard also charges embeddings once).
	if lo, hi := 17*c.Params(), 19*c.Params(); full < lo || full > hi {
		t.Fatalf("ModelStateBytes(1,1) = %d, want in [%d, %d]", full, lo, hi)
	}
	// Tensor parallelism divides states exactly.
	if got, want := c.ModelStateBytes(8, 1), full/8; got != want {
		t.Fatalf("ModelStateBytes(8,1) = %d, want %d", got, want)
	}
	// Pipeline parallelism shrinks the per-stage share.
	if got := c.ModelStateBytes(1, 8); got >= full {
		t.Fatalf("ModelStateBytes(1,8) = %d, not smaller than %d", got, full)
	}
}

func TestModelStateBytesClampsDegrees(t *testing.T) {
	c := Megatron3_6B()
	if c.ModelStateBytes(0, 0) != c.ModelStateBytes(1, 1) {
		t.Fatal("degrees below 1 must clamp to 1")
	}
}

func TestActivationBytesScaleWithMicroBatch(t *testing.T) {
	c := Megatron18_4B()
	one := c.ActivationBytesPerMicroBatch(1, 1, 1)
	four := c.ActivationBytesPerMicroBatch(4, 1, 1)
	if four < 3*one || four > 5*one {
		t.Fatalf("activations should scale ~linearly with micro-batch: 1->%d, 4->%d", one, four)
	}
}

func TestActivationBytesShrinkWithTensorParallel(t *testing.T) {
	c := Megatron18_4B()
	t1 := c.ActivationBytesPerMicroBatch(1, 1, 1)
	t8 := c.ActivationBytesPerMicroBatch(1, 8, 1)
	if t8 >= t1 {
		t.Fatalf("tensor parallelism must shrink activations: t=1 %d, t=8 %d", t1, t8)
	}
	// The unshardable portion keeps t8 above a naive 1/8.
	if t8 < t1/8 {
		t.Fatalf("t=8 activations %d below the shardable floor %d", t8, t1/8)
	}
}

func TestRecomputeShrinksActivations(t *testing.T) {
	c := MTNLG530B()
	full := c.ActivationBytesPerMicroBatch(1, 8, 35)
	ckpt := c.RecomputeActivationBytesPerMicroBatch(1, 8, 35)
	if ckpt >= full {
		t.Fatalf("recompute checkpoint %d not smaller than full activations %d", ckpt, full)
	}
	// Checkpoint keeps exactly 2·s·b·h per layer.
	layers := (c.Layers + 34) / 35
	want := uint64(2*c.SeqLen*c.Hidden) * uint64(layers)
	if ckpt != want {
		t.Fatalf("checkpoint bytes = %d, want %d", ckpt, want)
	}
}

func TestMTNLGPlanFitsOnlyWithRecompute(t *testing.T) {
	// The paper's (8, 8, 35) MT-NLG plan exceeds 80 GB without
	// activation recomputation and fits with it — the reason MT-NLG
	// trained with checkpointing.
	c := MTNLG530B()
	const cap80 = 80 << 30
	without := c.PeakMemoryBytes(1, 8, 35, 35)
	with := c.PeakMemoryBytesRecompute(1, 8, 35, 35)
	if without <= cap80 {
		t.Errorf("without recompute: %d bytes unexpectedly fits 80 GiB", without)
	}
	if with > cap80 {
		t.Errorf("with recompute: %d bytes does not fit 80 GiB", with)
	}
}

func TestPeakMemoryMonotoneInInFlight(t *testing.T) {
	f := func(inflight uint8) bool {
		c := Megatron18_4B()
		n := int(inflight)%16 + 1
		return c.PeakMemoryBytes(1, 2, 4, n+1) >= c.PeakMemoryBytes(1, 2, 4, n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPeakMemoryInFlightClamp(t *testing.T) {
	c := Megatron3_6B()
	if c.PeakMemoryBytes(1, 1, 1, 0) != c.PeakMemoryBytes(1, 1, 1, 1) {
		t.Fatal("inFlight below 1 must clamp to 1")
	}
	if c.PeakMemoryBytesRecompute(1, 1, 1, 0) != c.PeakMemoryBytesRecompute(1, 1, 1, 1) {
		t.Fatal("recompute inFlight below 1 must clamp to 1")
	}
}

func TestRecomputePeakBelowFullPeakWhenDeepPipeline(t *testing.T) {
	// With many in-flight micro-batches, recompute must always win.
	c := Megatron39_1B()
	full := c.PeakMemoryBytes(2, 4, 8, 8)
	rec := c.PeakMemoryBytesRecompute(2, 4, 8, 8)
	if rec >= full {
		t.Fatalf("recompute peak %d >= full peak %d", rec, full)
	}
}

// TestCheckpointBytes pins the checkpoint sizing: 14 bytes per parameter
// (FP16 weights + FP32 master + Adam moments, no gradients), independent of
// sharding, and strictly below the resident 18-byte training state.
func TestCheckpointBytes(t *testing.T) {
	m := MTNLG530B()
	if got, want := m.CheckpointBytes(), m.Params()*BytesPerParamCheckpoint; got != want {
		t.Fatalf("CheckpointBytes = %d, want Params x %d = %d", got, BytesPerParamCheckpoint, want)
	}
	if BytesPerParamCheckpoint >= BytesPerParamState {
		t.Fatal("checkpoint must be smaller than resident state (gradients are not persisted)")
	}
	// MT-NLG 530B: ~530e9 params x 14 B = ~7.4 TB, the scale that makes
	// checkpoint bandwidth matter at 2,240 GPUs.
	if tb := float64(m.CheckpointBytes()) / 1e12; tb < 7 || tb > 8 {
		t.Errorf("MT-NLG checkpoint = %.2f TB, want ~7.4 TB", tb)
	}
}

// TestMemorySaturates: byte counts saturate at MaxUint64 instead of
// wrapping. With t = 8, Megatron 3.6B's per-layer activation is a whole
// number of bytes well below 2^64 for a micro-batch of 3,711,431,655
// sequences, but 30 layers of it overflow — and a wrapped product would
// land at 0.28 GiB and fit any GPU.
func TestMemorySaturates(t *testing.T) {
	c := Megatron3_6B()
	const b = 3711431655
	if got := c.ActivationBytesPerMicroBatch(b, 8, c.Layers); got == math.MaxUint64 {
		t.Fatal("one layer's activation saturated; the case needs it to fit")
	}
	for name, got := range map[string]uint64{
		"ActivationBytesPerMicroBatch":          c.ActivationBytesPerMicroBatch(b, 8, 1),
		"PeakMemoryBytes":                       c.PeakMemoryBytes(b, 8, 1, 1),
		"RecomputeActivationBytesPerMicroBatch": c.RecomputeActivationBytesPerMicroBatch(1<<50, 8, 1),
		"PeakMemoryBytesRecompute":              c.PeakMemoryBytesRecompute(b, 8, 1, 1<<40),
		"ModelStateBytes":                       Config{Hidden: 1 << 40, Layers: 1 << 20, SeqLen: 1, Heads: 1, Vocab: 1}.ModelStateBytes(1, 1),
		"CheckpointBytes":                       Config{Hidden: 1 << 40, Layers: 1 << 20, SeqLen: 1, Heads: 1, Vocab: 1}.CheckpointBytes(),
	} {
		if got != math.MaxUint64 {
			t.Errorf("%s = %d, want saturation at MaxUint64", name, got)
		}
	}
}
