package parallel

import (
	"testing"
	"testing/quick"

	"vtrain/internal/hw"
	"vtrain/internal/model"
)

func validPlan() Plan {
	return Plan{Tensor: 8, Data: 8, Pipeline: 8, MicroBatch: 1, GlobalBatch: 512}
}

func TestPlanGPUs(t *testing.T) {
	p := Plan{Tensor: 8, Data: 12, Pipeline: 21}
	if got, want := p.GPUs(), 2016; got != want {
		t.Fatalf("GPUs() = %d, want %d (Table I 'our findings' row 1)", got, want)
	}
}

func TestMicroBatches(t *testing.T) {
	// MT-NLG: batch 1920 sequences, d=8, m=1 -> 240 micro-batches.
	p := Plan{Tensor: 8, Data: 8, Pipeline: 35, MicroBatch: 1, GlobalBatch: 1920}
	if got := p.MicroBatches(); got != 240 {
		t.Fatalf("MicroBatches() = %d, want 240", got)
	}
	if z := (Plan{}).MicroBatches(); z != 0 {
		t.Fatalf("zero plan MicroBatches() = %d, want 0", z)
	}
}

func TestInFlight(t *testing.T) {
	p := Plan{Tensor: 1, Data: 1, Pipeline: 4, MicroBatch: 1, GlobalBatch: 16}
	if got := p.InFlight(); got != 4 { // 1F1B caps at pipeline depth
		t.Fatalf("1F1B InFlight = %d, want 4", got)
	}
	p.Schedule = GPipe
	if got := p.InFlight(); got != 16 { // GPipe holds all micro-batches
		t.Fatalf("GPipe InFlight = %d, want 16", got)
	}
	p.Schedule = OneFOneB
	p.Pipeline = 32 // deeper than micro-batch count
	if got := p.InFlight(); got != 16 {
		t.Fatalf("shallow-batch InFlight = %d, want 16", got)
	}
}

func TestValidate(t *testing.T) {
	m := model.Megatron18_4B()
	c := hw.PaperCluster(64)
	tests := []struct {
		name    string
		mutate  func(*Plan)
		wantErr bool
	}{
		{"valid", func(p *Plan) {}, false},
		{"zero tensor", func(p *Plan) { p.Tensor = 0 }, true},
		{"zero micro", func(p *Plan) { p.MicroBatch = 0 }, true},
		{"zero batch", func(p *Plan) { p.GlobalBatch = 0 }, true},
		{"too many gpus", func(p *Plan) { p.Data = 1000 }, true},
		{"tensor not dividing node", func(p *Plan) { p.Tensor = 3; p.Data = 4 }, true},
		{"tensor not dividing heads", func(p *Plan) { p.Tensor = 32; p.Data = 2 }, true}, // 48 heads % 32 != 0
		{"pipeline deeper than layers", func(p *Plan) { p.Pipeline = 41; p.Data = 1 }, true},
		{"batch not divisible", func(p *Plan) { p.GlobalBatch = 513 }, true},
		{"negative buckets", func(p *Plan) { p.GradientBuckets = -1 }, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := validPlan()
			tc.mutate(&p)
			err := p.Validate(m, c)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate(%s) error = %v, wantErr %v", p, err, tc.wantErr)
			}
		})
	}
}

func TestValidateTensorAcrossNodes(t *testing.T) {
	// The Fig. 10 design space sweeps t up to 16 = two full nodes.
	m := model.MTNLG530B() // 128 heads: divisible by 16
	c := hw.PaperCluster(420)
	p := Plan{Tensor: 16, Data: 8, Pipeline: 15, MicroBatch: 1, GlobalBatch: 1920}
	if err := p.Validate(m, c); err != nil {
		t.Fatalf("t=16 spanning two nodes should validate: %v", err)
	}
	p.Tensor = 12 // not a node multiple
	p.Data = 1
	if err := p.Validate(m, c); err == nil {
		t.Fatal("t=12 spanning nodes should be rejected")
	}
}

func TestStageLayersPartition(t *testing.T) {
	m := model.MTNLG530B() // 105 layers
	p := Plan{Tensor: 8, Data: 8, Pipeline: 35}
	total := 0
	for i := 0; i < p.Pipeline; i++ {
		total += p.StageLayers(m, i)
	}
	if total != m.Layers {
		t.Fatalf("stage layers sum to %d, want %d", total, m.Layers)
	}
	if got := p.StageLayers(m, 0); got != 3 {
		t.Fatalf("105/35: StageLayers(0) = %d, want 3", got)
	}
}

func TestStageLayersUnevenPartition(t *testing.T) {
	m := model.Config{Name: "u", Hidden: 128, Layers: 10, SeqLen: 64, Heads: 2, Vocab: 100}
	p := Plan{Tensor: 1, Data: 1, Pipeline: 4}
	want := []int{3, 3, 2, 2}
	total := 0
	for i, w := range want {
		if got := p.StageLayers(m, i); got != w {
			t.Errorf("StageLayers(%d) = %d, want %d", i, got, w)
		}
		total += p.StageLayers(m, i)
	}
	if total != m.Layers {
		t.Fatalf("uneven partition sums to %d, want %d", total, m.Layers)
	}
	if p.MaxStageLayers(m) != 3 {
		t.Fatalf("MaxStageLayers = %d, want 3", p.MaxStageLayers(m))
	}
}

func TestStageLayersAlwaysPartition(t *testing.T) {
	// Property: for any (L, p) with p <= L, stage layers are a partition
	// with max-min <= 1.
	f := func(l8, p8 uint8) bool {
		layers := int(l8)%120 + 1
		depth := int(p8)%layers + 1
		m := model.Config{Name: "q", Hidden: 64, Layers: layers, SeqLen: 8, Heads: 1, Vocab: 10}
		pl := Plan{Tensor: 1, Data: 1, Pipeline: depth}
		sum, mn, mx := 0, layers+1, 0
		for i := 0; i < depth; i++ {
			s := pl.StageLayers(m, i)
			sum += s
			if s < mn {
				mn = s
			}
			if s > mx {
				mx = s
			}
		}
		return sum == layers && mx-mn <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFitsMemoryRecomputeRescuesMTNLG(t *testing.T) {
	m := model.MTNLG530B()
	g := hw.A100SXM80GB()
	p := Plan{Tensor: 8, Data: 8, Pipeline: 35, MicroBatch: 1, GlobalBatch: 1920}
	if p.FitsMemory(m, g) {
		t.Fatal("MT-NLG (8,8,35) without recompute should not fit 80 GiB")
	}
	p.Recompute = true
	if !p.FitsMemory(m, g) {
		t.Fatal("MT-NLG (8,8,35) with recompute should fit 80 GiB")
	}
}

func TestScheduleString(t *testing.T) {
	if OneFOneB.String() != "1F1B" || GPipe.String() != "GPipe" {
		t.Fatal("schedule names changed")
	}
	if Schedule(9).String() != "Schedule(9)" {
		t.Fatal("unknown schedule formatting changed")
	}
}

// TestValidateOverflowBoundaries pins both overflow checks at their exact
// bounds. Tokens per iteration: with s = 2^11, a global batch of 2^53-1
// sequences fits a uint64 and 2^53 does not. Kernel element counts: with a
// 2^20-token vocabulary as the widest column and s = 1, a micro-batch of
// 2^42 sequences reaches the 2^62 bound and one more passes it.
func TestValidateOverflowBoundaries(t *testing.T) {
	c := hw.PaperCluster(1)
	m := model.Megatron3_6B()
	p := Plan{Tensor: 8, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 1<<53 - 1}
	if err := p.Validate(m, c); err != nil {
		t.Fatalf("largest fitting global batch rejected: %v", err)
	}
	p.GlobalBatch++
	if err := p.Validate(m, c); err == nil {
		t.Fatalf("global batch 2^53 x 2048 tokens accepted")
	}

	wide := model.Config{Name: "wide", Hidden: 8, Layers: 1, SeqLen: 1, Heads: 1, Vocab: 1 << 20}
	p = Plan{Tensor: 1, Data: 1, Pipeline: 1, MicroBatch: 1 << 42, GlobalBatch: 1 << 42}
	if err := p.Validate(wide, c); err != nil {
		t.Fatalf("micro-batch at the kernel bound rejected: %v", err)
	}
	p.MicroBatch++
	p.GlobalBatch++
	if err := p.Validate(wide, c); err == nil {
		t.Fatalf("micro-batch past the kernel bound accepted")
	}
}

// TestOversizedPlanDoesNotFit: a plan whose tokens fit but whose memory
// overflows 64 bits validates and reports that it does not fit, rather than
// fitting at a wrapped footprint.
func TestOversizedPlanDoesNotFit(t *testing.T) {
	m := model.Megatron3_6B()
	p := Plan{Tensor: 8, Data: 1, Pipeline: 1, MicroBatch: 3711431655, GlobalBatch: 3711431655}
	if err := p.Validate(m, hw.PaperCluster(1)); err != nil {
		t.Fatal(err)
	}
	if p.FitsMemory(m, hw.A100SXM80GB()) {
		t.Fatalf("%s fits at %d bytes, want a saturated footprint", p, p.PeakMemoryBytes(m))
	}
}
