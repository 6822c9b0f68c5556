package core

import (
	"math"
	"strings"
	"testing"

	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/taskgraph"
)

func sim(t *testing.T, nodes int, opts ...Option) *Simulator {
	t.Helper()
	s, err := New(hw.PaperCluster(nodes), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsBadCluster(t *testing.T) {
	c := hw.PaperCluster(4)
	c.Alpha = 0
	if _, err := New(c); err == nil {
		t.Fatal("invalid cluster must be rejected")
	}
}

func TestSimulateRejectsBadPlan(t *testing.T) {
	s := sim(t, 4)
	_, err := s.Simulate(model.Megatron3_6B(), parallel.Plan{})
	if err == nil {
		t.Fatal("zero plan must be rejected")
	}
}

// TestSimulateRejectsPlanPastTaskIDLimit: a plan that passes the parallel
// checks but whose graph could number more tasks than int32 holds is an
// error, not a panic, on a fresh simulator and on a repeat request.
func TestSimulateRejectsPlanPastTaskIDLimit(t *testing.T) {
	plan := parallel.Plan{Tensor: 8, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 1 << 40}
	s := sim(t, 1)
	for i := 0; i < 2; i++ {
		if _, err := s.Simulate(model.Megatron39_1B(), plan); err == nil || !strings.Contains(err.Error(), "task id limit") {
			t.Fatalf("Simulate(%s) = %v, want the task id limit error", plan, err)
		}
	}
}

func TestMTNLGTableIBaseline(t *testing.T) {
	// Paper Table I, row 1: MT-NLG (8,8,35) on 2,240 GPUs: 42.59 s
	// iteration, 42.67 % utilization. Our substrate is a device model,
	// not the authors' silicon, so assert the reproduction band: within
	// 15 % on time and 8 points on utilization.
	s := sim(t, 280, WithFidelity(taskgraph.OperatorLevel))
	plan := parallel.Plan{
		Tensor: 8, Data: 8, Pipeline: 35, MicroBatch: 1, GlobalBatch: 1920,
		GradientBuckets: 2, Recompute: true,
	}
	rep, err := s.Simulate(model.MTNLG530B(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.IterTime-42.59)/42.59 > 0.15 {
		t.Errorf("iteration time = %.2f s, paper 42.59 s (outside 15%%)", rep.IterTime)
	}
	if math.Abs(rep.Utilization-0.4267) > 0.08 {
		t.Errorf("utilization = %.3f, paper 0.427 (outside 8 points)", rep.Utilization)
	}
	if !rep.FitsMemory {
		t.Error("recompute plan should fit 80 GiB")
	}
}

func TestVTrainPlanBeatsBaselineOnCost(t *testing.T) {
	// Table I's headline: (8,12,21) with 2,016 GPUs costs less in total
	// dollars than (8,8,35) with 2,240 GPUs despite a slightly longer
	// wall clock.
	s := sim(t, 280, WithFidelity(taskgraph.OperatorLevel))
	m := model.MTNLG530B()
	base := parallel.Plan{Tensor: 8, Data: 8, Pipeline: 35, MicroBatch: 1, GlobalBatch: 1920, GradientBuckets: 2, Recompute: true}
	ours := parallel.Plan{Tensor: 8, Data: 12, Pipeline: 21, MicroBatch: 1, GlobalBatch: 1920, GradientBuckets: 2, Recompute: true}

	_, trBase, err := s.Train(m, base, 270e9)
	if err != nil {
		t.Fatal(err)
	}
	_, trOurs, err := s.Train(m, ours, 270e9)
	if err != nil {
		t.Fatal(err)
	}
	if trOurs.TotalDollars >= trBase.TotalDollars {
		t.Errorf("vTrain plan $%.2fM not cheaper than baseline $%.2fM",
			trOurs.TotalDollars/1e6, trBase.TotalDollars/1e6)
	}
	if trOurs.Utilization <= trBase.Utilization {
		t.Errorf("vTrain plan utilization %.3f not above baseline %.3f",
			trOurs.Utilization, trBase.Utilization)
	}
	// The trade: slightly longer wall-clock (paper: +6.3%).
	if trOurs.Days <= trBase.Days || trOurs.Days > 1.2*trBase.Days {
		t.Errorf("wall-clock trade-off off: ours %.1f days vs base %.1f", trOurs.Days, trBase.Days)
	}
}

func TestUtilizationDecreasesWithData(t *testing.T) {
	// Table I: util drops monotonically as d grows at fixed (t,p).
	s := sim(t, 420, WithFidelity(taskgraph.OperatorLevel))
	m := model.MTNLG530B()
	prev := 1.0
	for _, d := range []int{8, 10, 12} {
		plan := parallel.Plan{Tensor: 8, Data: d, Pipeline: 35, MicroBatch: 1, GlobalBatch: 1920, GradientBuckets: 2, Recompute: true}
		rep, err := s.Simulate(m, plan)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Utilization >= prev {
			t.Fatalf("utilization not decreasing at d=%d: %.3f >= %.3f", d, rep.Utilization, prev)
		}
		prev = rep.Utilization
	}
}

func TestReportInternalConsistency(t *testing.T) {
	s := sim(t, 8)
	plan := parallel.Plan{Tensor: 2, Data: 4, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2}
	rep, err := s.Simulate(model.Megatron3_6B(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IterTime <= 0 || rep.Tasks <= 0 {
		t.Fatal("degenerate report")
	}
	if rep.ComputeSeconds > rep.IterTime {
		t.Errorf("mean compute %.4g exceeds iteration %.4g", rep.ComputeSeconds, rep.IterTime)
	}
	if rep.BubbleFraction < 0 || rep.BubbleFraction > 1 {
		t.Errorf("bubble fraction %.3f out of range", rep.BubbleFraction)
	}
	if rep.Utilization <= 0 || rep.Utilization > 1 {
		t.Errorf("utilization %.3f out of range", rep.Utilization)
	}
	if rep.HardwareFLOPs <= 0 {
		t.Error("hardware FLOPs missing")
	}
	// Hardware FLOPs must exceed the model-FLOPs lower bound ratio
	// implied by utilization accounting.
	modelFLOPs := 6 * float64(rep.Model.Params()) * float64(rep.Model.TokensPerIteration(plan.GlobalBatch))
	if rep.HardwareFLOPs < 0.8*modelFLOPs {
		t.Errorf("hardware FLOPs %.3g below model FLOPs %.3g", rep.HardwareFLOPs, modelFLOPs)
	}
}

func TestSharedProfileCacheAcrossSimulations(t *testing.T) {
	s := sim(t, 8, WithFidelity(taskgraph.OperatorLevel))
	m := model.Megatron3_6B()
	plan := parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8}
	if _, err := s.Simulate(m, plan); err != nil {
		t.Fatal(err)
	}
	missesBefore, _ := s.Profiler().CacheStats()
	if _, err := s.Simulate(m, plan); err != nil {
		t.Fatal(err)
	}
	missesAfter, _ := s.Profiler().CacheStats()
	if missesAfter != missesBefore {
		t.Fatalf("second simulation re-profiled: %d -> %d misses", missesBefore, missesAfter)
	}
}

func TestConcurrentSimulations(t *testing.T) {
	// Design-space exploration shares one simulator across goroutines.
	s := sim(t, 8, WithFidelity(taskgraph.OperatorLevel))
	m := model.Megatron3_6B()
	errc := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(d int) {
			plan := parallel.Plan{Tensor: 2, Data: 1 + d%4, Pipeline: 2, MicroBatch: 1, GlobalBatch: 24}
			_, err := s.Simulate(m, plan)
			errc <- err
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestTrainProjection(t *testing.T) {
	s := sim(t, 8, WithFidelity(taskgraph.OperatorLevel))
	m := model.Megatron3_6B()
	plan := parallel.Plan{Tensor: 2, Data: 4, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16}
	rep, tr, err := s.Train(m, plan, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	wantIters := m.Iterations(1e9, plan.GlobalBatch)
	if tr.Iterations != wantIters {
		t.Fatalf("iterations = %d, want %d", tr.Iterations, wantIters)
	}
	if math.Abs(tr.TotalSeconds-float64(wantIters)*rep.IterTime) > 1e-6 {
		t.Fatal("total time != iterations x iteration time")
	}
}

func TestTensorParallelismReducesIterTimeSmallScale(t *testing.T) {
	// On one node with a compute-heavy model, t=4 should beat t=1 for
	// the same GPU count devoted to TP vs DP at fixed global batch.
	s := sim(t, 1, WithFidelity(taskgraph.OperatorLevel))
	m := model.Megatron3_6B()
	dp := parallel.Plan{Tensor: 1, Data: 4, Pipeline: 1, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 1}
	tp := parallel.Plan{Tensor: 4, Data: 1, Pipeline: 1, MicroBatch: 2, GlobalBatch: 8}
	rdp, err := s.Simulate(m, dp)
	if err != nil {
		t.Fatal(err)
	}
	rtp, err := s.Simulate(m, tp)
	if err != nil {
		t.Fatal(err)
	}
	// Not asserting the winner (that is the DSE's job), just that both
	// run and produce sane, differing results.
	if rdp.IterTime == rtp.IterTime {
		t.Fatal("distinct plans produced identical times; model too coarse")
	}
}
