package vtrain_bench

// Ablation benchmarks for the design choices DESIGN.md calls out. These go
// beyond the paper's exhibits: they isolate the contribution of individual
// graph-construction features to the predicted iteration time.

import (
	"fmt"
	"testing"
	"time"

	"vtrain/internal/core"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/taskgraph"
)

// BenchmarkAblationGradientBucketing quantifies Fig. 5: overlapping the
// data-parallel gradient All-Reduce with the backward pass versus a single
// synchronization at the end.
func BenchmarkAblationGradientBucketing(b *testing.B) {
	sim := newSim(b, 32)
	m := model.Megatron18_4B()
	base := parallel.Plan{Tensor: 8, Data: 32, Pipeline: 1, MicroBatch: 4, GlobalBatch: 1024, Recompute: true}
	var with, without float64
	for i := 0; i < b.N; i++ {
		p := base
		p.GradientBuckets = 4
		rep, err := sim.Simulate(m, p)
		if err != nil {
			b.Fatal(err)
		}
		with = rep.IterTime
		p.GradientBuckets = 0
		rep, err = sim.Simulate(m, p)
		if err != nil {
			b.Fatal(err)
		}
		without = rep.IterTime
	}
	once("abl-bucket", func() {
		fmt.Printf("\nAblation — gradient bucketing (18.4B, (8,32,1)): bucketed %.3fs, single All-Reduce %.3fs (%.1f%% saved)\n",
			with, without, 100*(1-with/without))
	})
	if with > without {
		b.Fatalf("bucketing slower than single All-Reduce: %.4g vs %.4g", with, without)
	}
	b.ReportMetric(100*(1-with/without), "overlap_gain_pct")
}

// BenchmarkAblationSchedule quantifies Fig. 7: GPipe versus 1F1B at equal
// micro-batch counts — same bubble, very different memory.
func BenchmarkAblationSchedule(b *testing.B) {
	sim := newSim(b, 32)
	m := model.Megatron18_4B()
	base := parallel.Plan{Tensor: 8, Data: 2, Pipeline: 8, MicroBatch: 1, GlobalBatch: 64, GradientBuckets: 2}
	var r1, r2 core.Report
	for i := 0; i < b.N; i++ {
		p := base
		var err error
		if r1, err = sim.Simulate(m, p); err != nil {
			b.Fatal(err)
		}
		p.Schedule = parallel.GPipe
		if r2, err = sim.Simulate(m, p); err != nil {
			b.Fatal(err)
		}
	}
	once("abl-sched", func() {
		fmt.Printf("\nAblation — pipeline schedule (18.4B, (8,2,8), 32 micro-batches):\n")
		fmt.Printf("  1F1B : %.3fs, peak %.1f GiB\n", r1.IterTime, float64(r1.PeakMemoryBytes)/(1<<30))
		fmt.Printf("  GPipe: %.3fs, peak %.1f GiB (%.1fx the activation residency)\n",
			r2.IterTime, float64(r2.PeakMemoryBytes)/(1<<30),
			float64(r2.PeakMemoryBytes)/float64(r1.PeakMemoryBytes))
	})
	if r2.PeakMemoryBytes <= r1.PeakMemoryBytes {
		b.Fatal("GPipe must hold more activations than 1F1B")
	}
	b.ReportMetric(float64(r2.PeakMemoryBytes)/float64(r1.PeakMemoryBytes), "gpipe_memory_ratio")
}

// BenchmarkAblationRecompute quantifies the time/memory trade of full
// activation recomputation.
func BenchmarkAblationRecompute(b *testing.B) {
	sim := newSim(b, 32)
	m := model.Megatron18_4B()
	base := parallel.Plan{Tensor: 8, Data: 4, Pipeline: 8, MicroBatch: 1, GlobalBatch: 128, GradientBuckets: 2}
	var off, on core.Report
	for i := 0; i < b.N; i++ {
		p := base
		var err error
		if off, err = sim.Simulate(m, p); err != nil {
			b.Fatal(err)
		}
		p.Recompute = true
		if on, err = sim.Simulate(m, p); err != nil {
			b.Fatal(err)
		}
	}
	once("abl-recompute", func() {
		fmt.Printf("\nAblation — activation recomputation (18.4B, (8,4,8)):\n")
		fmt.Printf("  off: %.3fs, peak %.1f GiB\n", off.IterTime, float64(off.PeakMemoryBytes)/(1<<30))
		fmt.Printf("  on : %.3fs (+%.1f%%), peak %.1f GiB (%.1f%% of the un-checkpointed footprint)\n",
			on.IterTime, 100*(on.IterTime/off.IterTime-1),
			float64(on.PeakMemoryBytes)/(1<<30),
			100*float64(on.PeakMemoryBytes)/float64(off.PeakMemoryBytes))
	})
	overhead := on.IterTime/off.IterTime - 1
	if overhead <= 0 || overhead > 0.6 {
		b.Fatalf("recompute overhead %.2f outside the plausible (0, 0.6] band", overhead)
	}
	b.ReportMetric(100*overhead, "time_overhead_pct")
	b.ReportMetric(float64(off.PeakMemoryBytes-on.PeakMemoryBytes)/(1<<30), "memory_saved_GiB")
}

// BenchmarkAblationAlpha sweeps the bandwidth-effectiveness factor of
// Eq. 1 from 0.1 to 1.0, as Section IV does when fitting it.
func BenchmarkAblationAlpha(b *testing.B) {
	m := model.Megatron39_1B()
	plan := parallel.Plan{Tensor: 8, Data: 32, Pipeline: 2, MicroBatch: 4, GlobalBatch: 1536, GradientBuckets: 1, Recompute: true}
	alphas := []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	times := make([]float64, len(alphas))
	for i := 0; i < b.N; i++ {
		for j, a := range alphas {
			c := hw.PaperCluster(64)
			c.Alpha = a
			sim, err := core.New(c, core.WithFidelity(taskgraph.OperatorLevel))
			if err != nil {
				b.Fatal(err)
			}
			rep, err := sim.Simulate(m, plan)
			if err != nil {
				b.Fatal(err)
			}
			times[j] = rep.IterTime
		}
	}
	once("abl-alpha", func() {
		fmt.Printf("\nAblation — bandwidth-effectiveness factor alpha (39.1B, (8,32,2) on 512 GPUs):\n")
		for j, a := range alphas {
			fmt.Printf("  alpha %.2f: %.3fs\n", a, times[j])
		}
	})
	for j := 1; j < len(times); j++ {
		if times[j] > times[j-1]+1e-12 {
			b.Fatal("iteration time must be non-increasing in alpha")
		}
	}
	b.ReportMetric(times[0]/times[len(times)-1], "alpha0.1_vs_1.0_slowdown")
}

// BenchmarkAblationInterleaving quantifies Megatron-LM's virtual pipeline
// stages: bubble reduction per extra chunk at fixed (p, nmb).
func BenchmarkAblationInterleaving(b *testing.B) {
	sim := newSim(b, 64)
	m := model.Megatron39_1B() // 48 layers: divisible by p*v for v in {1,2,4}
	vs := []int{1, 2, 4}
	iters := make([]float64, len(vs))
	bubbles := make([]float64, len(vs))
	for i := 0; i < b.N; i++ {
		for j, v := range vs {
			plan := parallel.Plan{
				Tensor: 8, Data: 4, Pipeline: 4, MicroBatch: 1, GlobalBatch: 32,
				GradientBuckets: 2, Recompute: true,
			}
			if v > 1 {
				plan.VirtualStages = v
			}
			rep, err := sim.Simulate(m, plan)
			if err != nil {
				b.Fatal(err)
			}
			iters[j] = rep.IterTime
			bubbles[j] = rep.BubbleFraction
		}
	}
	once("abl-interleave", func() {
		fmt.Printf("\nAblation — interleaved pipeline schedule (39.1B, (8,4,4), 8 micro-batches):\n")
		for j, v := range vs {
			fmt.Printf("  v=%d: %.3fs, bubble %.1f%%\n", v, iters[j], 100*bubbles[j])
		}
	})
	if iters[1] >= iters[0] {
		b.Fatalf("v=2 (%.4g) not faster than v=1 (%.4g)", iters[1], iters[0])
	}
	b.ReportMetric(100*(1-iters[1]/iters[0]), "v2_speedup_pct")
	b.ReportMetric(100*(1-iters[2]/iters[0]), "v4_speedup_pct")
}

// BenchmarkAblationFidelity compares task-level and operator-level
// lowering: identical predictions, very different simulation cost.
func BenchmarkAblationFidelity(b *testing.B) {
	c := hw.PaperCluster(32)
	m := model.Megatron18_4B()
	plan := parallel.Plan{Tensor: 8, Data: 4, Pipeline: 8, MicroBatch: 1, GlobalBatch: 64, GradientBuckets: 2}
	var tTask, tOp time.Duration
	var iterTask, iterOp float64
	for i := 0; i < b.N; i++ {
		simT, err := core.New(c) // TaskLevel
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		repT, err := simT.Simulate(m, plan)
		if err != nil {
			b.Fatal(err)
		}
		tTask = time.Since(start)

		simO, err := core.New(c, core.WithFidelity(taskgraph.OperatorLevel))
		if err != nil {
			b.Fatal(err)
		}
		start = time.Now()
		repO, err := simO.Simulate(m, plan)
		if err != nil {
			b.Fatal(err)
		}
		tOp = time.Since(start)
		iterTask, iterOp = repT.IterTime, repO.IterTime
	}
	once("abl-fidelity", func() {
		fmt.Printf("\nAblation — lowering fidelity (18.4B, (8,4,8)): task-level %.4fs pred in %v, operator-level %.4fs pred in %v\n",
			iterTask, tTask.Round(time.Microsecond), iterOp, tOp.Round(time.Microsecond))
	})
	if d := iterTask - iterOp; d > 1e-9 || d < -1e-9 {
		b.Fatalf("fidelities disagree: %.9g vs %.9g", iterTask, iterOp)
	}
	b.ReportMetric(float64(tTask)/float64(tOp), "task_vs_operator_sim_cost")
}
