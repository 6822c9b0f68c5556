// Package vtrain_bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks. Each benchmark runs the experiment behind
// one exhibit, prints the regenerated rows once, and reports the headline
// quantities as benchmark metrics:
//
//	BenchmarkFigure1        — training days vs. GPU utilization (GPT-3 175B)
//	BenchmarkFigure9a       — single-node validation MAPE / R²
//	BenchmarkFigure9b       — multi-node validation MAPE / R²
//	BenchmarkFigure10       — MT-NLG (t,d,p) design-space sweep
//	BenchmarkFigure11       — t=8 slice: iteration time vs. utilization
//	BenchmarkTable1         — MT-NLG plans vs. vTrain findings, economics
//	BenchmarkTable2         — 64/256/512-GPU plan validation, [40] vs. ours
//	BenchmarkFigure12       — multi-tenant deadline satisfactory ratio
//	BenchmarkFigure13       — multi-tenant average JCT
//	BenchmarkFigure14       — multi-tenant makespan
//	BenchmarkTable4         — compute-optimal Chinchilla points
//
// Run with: go test -bench=. -benchmem
package vtrain_bench

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"vtrain/internal/chinchilla"
	"vtrain/internal/cluster"
	"vtrain/internal/core"
	"vtrain/internal/cost"
	"vtrain/internal/dse"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/taskgraph"
	"vtrain/internal/testbed"
	"vtrain/internal/trace"
	"vtrain/internal/validate"
)

// printOnce keys exhibit output so repeated b.N iterations print one table.
var printOnce sync.Map

func once(key string, f func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

func newSim(b *testing.B, nodes int) *core.Simulator {
	b.Helper()
	sim, err := core.New(hw.PaperCluster(nodes), core.WithFidelity(taskgraph.OperatorLevel))
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

func mtnlgPlan(t, d, p int) parallel.Plan {
	return parallel.Plan{
		Tensor: t, Data: d, Pipeline: p, MicroBatch: 1, GlobalBatch: 1920,
		GradientBuckets: 2, Recompute: true,
	}
}

// BenchmarkFigure1 regenerates Fig. 1: GPT-3 175B wall-clock training time
// as a function of GPU compute utilization on 1,024 A100s.
func BenchmarkFigure1(b *testing.B) {
	m := model.GPT3175B()
	g := hw.A100SXM80GB()
	var d40, d50 float64
	for i := 0; i < b.N; i++ {
		d40 = cost.TimeForUtilization(m, 300e9, 1024, 0.40, g)
		d50 = cost.TimeForUtilization(m, 300e9, 1024, 0.50, g)
	}
	once("fig1", func() {
		fmt.Println("\nFigure 1 — GPT-3 175B, 300B tokens, 1,024 A100s:")
		for u := 30; u <= 70; u += 10 {
			days := cost.TimeForUtilization(m, 300e9, 1024, float64(u)/100, g)
			c := days * 24 * 1024 * 5.0
			fmt.Printf("  util %2d%%: %6.1f days  ($%.2fM)\n", u, days, c/1e6)
		}
	})
	b.ReportMetric(d40-d50, "days_lost_50to40pct")
}

// BenchmarkFigure9a regenerates the single-node validation campaign.
func BenchmarkFigure9a(b *testing.B) {
	cases := validate.SingleNodeCases()
	var res validate.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = validate.Run(hw.PaperCluster(1), cases, testbed.DefaultConfig(), 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	once("fig9a", func() {
		fmt.Printf("\nFigure 9a — single-node validation: %d points, MAPE %.2f%%, R² %.4f (paper: 1,440 points, 8.37%%, 0.9896)\n",
			len(cases), res.MAPE, res.R2)
	})
	b.ReportMetric(res.MAPE, "MAPE_pct")
	b.ReportMetric(res.R2, "R2")
}

// BenchmarkFigure9b regenerates the multi-node validation campaign.
func BenchmarkFigure9b(b *testing.B) {
	cases := validate.MultiNodeCases()
	var res validate.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = validate.Run(hw.PaperCluster(64), cases, testbed.DefaultConfig(), 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	once("fig9b", func() {
		fmt.Printf("\nFigure 9b — multi-node validation: %d points, MAPE %.2f%%, R² %.4f (paper: 116 points, 14.73%%, 0.9887)\n",
			len(cases), res.MAPE, res.R2)
	})
	b.ReportMetric(res.MAPE, "MAPE_pct")
	b.ReportMetric(res.R2, "R2")
}

// figure10Space is a representative slice of the paper's full sweep (the
// complete tmax=16/dmax=32/pmax=105 space is cmd/vtrain-dse's job).
func figure10Space() dse.Space {
	return dse.Space{
		TensorWidths:    []int{4, 8, 16},
		DataWidths:      []int{4, 6, 8, 10, 12, 16, 20, 24, 32},
		PipelineDepths:  []int{3, 5, 7, 15, 21, 35},
		MicroBatches:    []int{1},
		GlobalBatch:     1920,
		GradientBuckets: 2,
		MaxMicroBatches: 512,
	}
}

// BenchmarkFigure10 regenerates the MT-NLG design-space exploration:
// iteration time and utilization across the (t,d,p) grid.
func BenchmarkFigure10(b *testing.B) {
	sim := newSim(b, 6720)
	m := model.MTNLG530B()
	var points []dse.Point
	var err error
	for i := 0; i < b.N; i++ {
		points, err = dse.Explore(sim, m, figure10Space())
		if err != nil {
			b.Fatal(err)
		}
	}
	once("fig10", func() {
		fast, _ := dse.Fastest(points)
		fmt.Printf("\nFigure 10 — MT-NLG design space (%d points):\n", len(points))
		fmt.Printf("  fastest plan: %s (%d GPUs) iter %.2fs util %.1f%%\n",
			fast.Plan, fast.Plan.GPUs(), fast.Report.IterTime, 100*fast.Report.Utilization)
		var bestUtil dse.Point
		for _, p := range points {
			if p.Report.Utilization > bestUtil.Report.Utilization {
				bestUtil = p
			}
		}
		fmt.Printf("  best utilization: %s (%d GPUs) iter %.2fs util %.1f%%\n",
			bestUtil.Plan, bestUtil.Plan.GPUs(), bestUtil.Report.IterTime, 100*bestUtil.Report.Utilization)
		// The paper's observation: the fastest point wastes GPUs.
		fmt.Printf("  fastest uses %.1fx the GPUs of the best-utilization point\n",
			float64(fast.Plan.GPUs())/float64(bestUtil.Plan.GPUs()))
	})
	fast, _ := dse.Fastest(points)
	b.ReportMetric(float64(len(points)), "design_points")
	b.ReportMetric(fast.Report.IterTime, "fastest_iter_s")
}

// BenchmarkFigure11 regenerates the t=8 slice: MT-NLG's three heuristic
// points versus the three vTrain-uncovered points in the (iteration time,
// utilization) plane.
func BenchmarkFigure11(b *testing.B) {
	sim := newSim(b, 420)
	m := model.MTNLG530B()
	baselines := []parallel.Plan{mtnlgPlan(8, 8, 35), mtnlgPlan(8, 10, 35), mtnlgPlan(8, 12, 35)}
	findings := []parallel.Plan{mtnlgPlan(8, 12, 21), mtnlgPlan(8, 16, 21), mtnlgPlan(8, 20, 21)}
	reports := make([]core.Report, 6)
	for i := 0; i < b.N; i++ {
		for j, p := range append(append([]parallel.Plan{}, baselines...), findings...) {
			rep, err := sim.Simulate(m, p)
			if err != nil {
				b.Fatal(err)
			}
			reports[j] = rep
		}
	}
	once("fig11", func() {
		fmt.Println("\nFigure 11 — t=8 slice, iteration time vs. utilization:")
		labels := []string{"MT-NLG (8,8,35)", "MT-NLG (8,10,35)", "MT-NLG (8,12,35)",
			"ours (8,12,21)", "ours (8,16,21)", "ours (8,20,21)"}
		for j, r := range reports {
			fmt.Printf("  %-18s iter %6.2fs  util %5.2f%%\n", labels[j], r.IterTime, 100*r.Utilization)
		}
	})
	// Headline: every "ours" point has higher utilization than its
	// GPU-budget-matched baseline.
	gain := 0.0
	for j := 0; j < 3; j++ {
		gain += reports[3+j].Utilization - reports[j].Utilization
	}
	b.ReportMetric(100*gain/3, "avg_util_gain_points")
}

// BenchmarkTable1 regenerates Table I: full economics of the six plans.
func BenchmarkTable1(b *testing.B) {
	sim := newSim(b, 420)
	m := model.MTNLG530B()
	rows := []struct {
		label string
		plan  parallel.Plan
	}{
		{"MT-NLG (8,8,35)", mtnlgPlan(8, 8, 35)},
		{"MT-NLG (8,10,35)", mtnlgPlan(8, 10, 35)},
		{"MT-NLG (8,12,35)", mtnlgPlan(8, 12, 35)},
		{"ours (8,12,21)", mtnlgPlan(8, 12, 21)},
		{"ours (8,16,21)", mtnlgPlan(8, 16, 21)},
		{"ours (8,20,21)", mtnlgPlan(8, 20, 21)},
	}
	trainings := make([]cost.Training, len(rows))
	for i := 0; i < b.N; i++ {
		for j, r := range rows {
			rep, err := sim.Simulate(m, r.plan)
			if err != nil {
				b.Fatal(err)
			}
			trainings[j] = cost.Train(m, 1920, rep.IterTime, r.plan.GPUs(), 270e9, sim.Cluster())
		}
	}
	once("table1", func() {
		fmt.Println("\nTable I — MT-NLG training plans vs. vTrain findings (270B tokens):")
		fmt.Printf("  %-18s %6s %9s %8s %7s %9s %10s\n", "plan", "GPUs", "iter(s)", "days", "util%", "$/hour", "$total(M)")
		for j, r := range rows {
			tr := trainings[j]
			fmt.Printf("  %-18s %6d %9.2f %8.2f %7.2f %9.0f %10.2f\n",
				r.label, r.plan.GPUs(), tr.IterTime, tr.Days, 100*tr.Utilization, tr.DollarsPerHour, tr.TotalDollars/1e6)
		}
		fmt.Printf("  (paper row 1: 42.59s / 33.52d / 42.67%% / $9.01M vs 45.29s / 35.64d / 44.58%% / $8.62M)\n")
	})
	b.ReportMetric(trainings[0].TotalDollars/1e6, "baseline_cost_M")
	b.ReportMetric(trainings[3].TotalDollars/1e6, "ours_cost_M")
}

// BenchmarkTable2 regenerates Table II: Megatron-LM's published plans vs.
// plans uncovered by vTrain's exact-GPU search, validated against the
// testbed ("measured").
func BenchmarkTable2(b *testing.B) {
	type row struct {
		m        model.Config
		gpus     int
		batch    int
		megatron parallel.Plan
	}
	rows := []row{
		// The 3.6B plan's 16-sequence micro-batch forces activation
		// checkpointing under the Megatron memory model.
		{model.Megatron3_6B(), 64, 512,
			parallel.Plan{Tensor: 2, Data: 32, Pipeline: 1, MicroBatch: 16, GlobalBatch: 512, GradientBuckets: 2, Recompute: true}},
		{model.Megatron18_4B(), 256, 1024,
			parallel.Plan{Tensor: 8, Data: 32, Pipeline: 1, MicroBatch: 4, GlobalBatch: 1024, GradientBuckets: 2, Recompute: true}},
		{model.Megatron39_1B(), 512, 1536,
			parallel.Plan{Tensor: 8, Data: 32, Pipeline: 2, MicroBatch: 4, GlobalBatch: 1536, GradientBuckets: 2, Recompute: true}},
	}
	sim := newSim(b, 64)
	tb := testbed.New(sim.Cluster(), testbed.DefaultConfig(), 42)

	type result struct {
		megaPred, megaMeas, ourPred, ourMeas float64
		ourPlan                              parallel.Plan
	}
	results := make([]result, len(rows))
	for i := 0; i < b.N; i++ {
		for j, r := range rows {
			rep, err := sim.Simulate(r.m, r.megatron)
			if err != nil {
				b.Fatal(err)
			}
			meas, err := tb.Measure(r.m, r.megatron)
			if err != nil {
				b.Fatal(err)
			}
			space := dse.DefaultSpace(r.m, r.batch)
			space.ExactGPUs = r.gpus
			space.TensorWidths = []int{1, 2, 4, 8}
			space.MaxMicroBatches = 256
			// Exact-GPU searches need the full data-parallel range
			// (the paper's 3.6B finding is (1, 64, 1, 8)).
			space.DataWidths = nil
			for d := 1; d <= 64; d++ {
				if r.batch%d == 0 {
					space.DataWidths = append(space.DataWidths, d)
				}
			}
			points, err := dse.Explore(sim, r.m, space)
			if err != nil {
				b.Fatal(err)
			}
			best, ok := dse.Fastest(points)
			if !ok {
				b.Fatalf("no plan for %s on %d GPUs", r.m.Name, r.gpus)
			}
			ourMeas, err := tb.Measure(r.m, best.Plan)
			if err != nil {
				b.Fatal(err)
			}
			results[j] = result{
				megaPred: rep.IterTime, megaMeas: meas,
				ourPred: best.Report.IterTime, ourMeas: ourMeas,
				ourPlan: best.Plan,
			}
		}
	}
	once("table2", func() {
		fmt.Println("\nTable II — [40] plans vs. vTrain-uncovered plans (predicted / measured iteration seconds):")
		for j, r := range rows {
			res := results[j]
			fmt.Printf("  %-15s %4d GPUs  [40] %-34.34s %7.3f / %7.3f\n", r.m.Name, r.gpus,
				r.megatron, res.megaPred, res.megaMeas)
			fmt.Printf("  %-15s %9s  ours %-34.34s %7.3f / %7.3f  (%.0f%% / %.0f%% faster)\n", "", "",
				res.ourPlan, res.ourPred, res.ourMeas,
				100*(1-res.ourPred/res.megaPred), 100*(1-res.ourMeas/res.megaMeas))
		}
	})
	// Headline: ours is at least as fast on BOTH predicted and measured.
	for j := range rows {
		if results[j].ourPred > results[j].megaPred*1.0001 || results[j].ourMeas > results[j].megaMeas*1.01 {
			b.Fatalf("row %d: vTrain plan not consistently faster", j)
		}
	}
	b.ReportMetric(100*(1-results[2].ourMeas/results[2].megaMeas), "row3_measured_gain_pct")
}

// clusterProfiles builds the case-study-2 offline profiles once.
var (
	clusterOnce sync.Once
	clusterBase *cluster.ProfileSet
	clusterVT   *cluster.ProfileSet
	clusterErr  error
)

func clusterSetup(b *testing.B) (*cluster.ProfileSet, *cluster.ProfileSet) {
	b.Helper()
	clusterOnce.Do(func() {
		var sim *core.Simulator
		sim, clusterErr = core.New(hw.PaperCluster(128), core.WithFidelity(taskgraph.OperatorLevel))
		if clusterErr != nil {
			return
		}
		clusterBase, clusterErr = cluster.BuildProfiles(sim, cluster.Baseline, 1024)
		if clusterErr != nil {
			return
		}
		clusterVT, clusterErr = cluster.BuildProfiles(sim, cluster.VTrainEnabled, 1024)
	})
	if clusterErr != nil {
		b.Fatal(clusterErr)
	}
	return clusterBase, clusterVT
}

// BenchmarkFigure12 regenerates the deadline-satisfactory-ratio experiment.
func BenchmarkFigure12(b *testing.B) {
	base, vt := clusterSetup(b)
	b.ResetTimer()
	type ratios struct{ base, vt float64 }
	results := map[int][]ratios{}
	for i := 0; i < b.N; i++ {
		results = map[int][]ratios{}
		for _, n := range []int{64, 128} {
			for id := 1; id <= 3; id++ {
				jobs, err := trace.Generate(id, trace.DefaultOptions(n))
				if err != nil {
					b.Fatal(err)
				}
				ob, err := cluster.NewScheduler(1024, base).Run(jobs)
				if err != nil {
					b.Fatal(err)
				}
				ov, err := cluster.NewScheduler(1024, vt).Run(jobs)
				if err != nil {
					b.Fatal(err)
				}
				results[n] = append(results[n], ratios{ob.DeadlineSatisfactoryRatio, ov.DeadlineSatisfactoryRatio})
			}
		}
	}
	gain := map[int]float64{}
	once("fig12", func() {
		fmt.Println("\nFigure 12 — deadline satisfactory ratio (3 traces; paper avg gain: 1.09x @64, 1.23x @128):")
		for _, n := range []int{64, 128} {
			var sb, sv float64
			for id, r := range results[n] {
				fmt.Printf("  %3d jobs trace %d: ElasticFlow %.3f  vTrain %.3f\n", n, id+1, r.base, r.vt)
				sb += r.base
				sv += r.vt
			}
			fmt.Printf("  %3d jobs average gain: %.2fx\n", n, sv/sb)
		}
	})
	for _, n := range []int{64, 128} {
		var sb, sv float64
		for _, r := range results[n] {
			sb += r.base
			sv += r.vt
		}
		gain[n] = sv / sb
	}
	b.ReportMetric(gain[64], "gain_64jobs")
	b.ReportMetric(gain[128], "gain_128jobs")
}

// BenchmarkFigure13 regenerates the JCT experiment on deadline-free traces.
func BenchmarkFigure13(b *testing.B) {
	base, vt := clusterSetup(b)
	b.ResetTimer()
	opts := trace.DefaultOptions(32)
	opts.WithDeadlines = false
	var norm float64
	var norms []float64
	for i := 0; i < b.N; i++ {
		norms = norms[:0]
		for id := 1; id <= 3; id++ {
			jobs, err := trace.Generate(id, opts)
			if err != nil {
				b.Fatal(err)
			}
			ob, err := cluster.NewScheduler(1024, base).Run(jobs)
			if err != nil {
				b.Fatal(err)
			}
			ov, err := cluster.NewScheduler(1024, vt).Run(jobs)
			if err != nil {
				b.Fatal(err)
			}
			norms = append(norms, ov.AvgJCT/ob.AvgJCT)
		}
	}
	norm = 0
	for _, x := range norms {
		norm += x
	}
	norm /= float64(len(norms))
	once("fig13", func() {
		fmt.Printf("\nFigure 13 — normalized JCT over 3 deadline-free 32-job traces: %.3f (paper: 0.848 avg; lower is better)\n", norm)
	})
	b.ReportMetric(norm, "normalized_JCT")
}

// BenchmarkFigure14 regenerates the makespan experiment.
func BenchmarkFigure14(b *testing.B) {
	base, vt := clusterSetup(b)
	b.ResetTimer()
	jobCounts := []int{16, 32, 48, 64, 72}
	norms := make([]float64, len(jobCounts))
	for i := 0; i < b.N; i++ {
		for j, n := range jobCounts {
			jobs, err := trace.Generate(100+n, trace.Options{Jobs: n, MinIterations: 500, MaxIterations: 5000})
			if err != nil {
				b.Fatal(err)
			}
			ob, err := cluster.NewScheduler(1024, base).Run(jobs)
			if err != nil {
				b.Fatal(err)
			}
			ov, err := cluster.NewScheduler(1024, vt).Run(jobs)
			if err != nil {
				b.Fatal(err)
			}
			norms[j] = ov.Makespan / ob.Makespan
		}
	}
	once("fig14", func() {
		fmt.Println("\nFigure 14 — normalized makespan, simultaneous submissions (paper: up to 23% reduction):")
		for j, n := range jobCounts {
			fmt.Printf("  %3d jobs: %.3f\n", n, norms[j])
		}
	})
	b.ReportMetric(norms[len(norms)-1], "normalized_makespan_72jobs")
}

// BenchmarkSchedulerPolicies compares EDF (ElasticFlow's policy) against
// the FIFO and SRTF baselines on the same vTrain-informed profiles — an
// extension beyond the paper's exhibits.
func BenchmarkSchedulerPolicies(b *testing.B) {
	_, vt := clusterSetup(b)
	b.ResetTimer()
	jobs, err := trace.Generate(2, trace.DefaultOptions(128))
	if err != nil {
		b.Fatal(err)
	}
	policies := []cluster.Policy{cluster.EDF, cluster.FIFO, cluster.SRTF}
	ratios := make([]float64, len(policies))
	for i := 0; i < b.N; i++ {
		for j, pol := range policies {
			sched := cluster.NewScheduler(1024, vt)
			sched.Policy = pol
			out, err := sched.Run(jobs)
			if err != nil {
				b.Fatal(err)
			}
			ratios[j] = out.DeadlineSatisfactoryRatio
		}
	}
	once("sched-policies", func() {
		fmt.Println("\nScheduler policies — deadline satisfactory ratio, 128-job trace (vTrain profiles):")
		for j, pol := range policies {
			fmt.Printf("  %-5v %.3f\n", pol, ratios[j])
		}
	})
	if ratios[0] < ratios[1] {
		b.Fatalf("EDF (%.3f) below FIFO (%.3f) under deadline pressure", ratios[0], ratios[1])
	}
	b.ReportMetric(ratios[0]-ratios[1], "EDF_vs_FIFO_ratio_gain")
}

// BenchmarkTable4 regenerates the compute-optimal Chinchilla search.
func BenchmarkTable4(b *testing.B) {
	sim := newSim(b, 420)
	var res chinchilla.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = chinchilla.Search(sim, 3360, 3360, 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	once("table4", func() {
		fmt.Println("\nTable IV — Chinchilla points under effective utilization (3,360 GPUs, 30 days):")
		fmt.Printf("  naive point: %.2fB params, %.0fB tokens (paper: 145.61B, 2,912B)\n",
			res.NaiveParams/1e9, res.NaiveTokens/1e9)
		for _, p := range res.Points {
			fmt.Printf("  h=%5d L=%3d %8.2fB  (%d,%d,%d)  util %5.2f%%  %6.1f days\n",
				p.Model.Hidden, p.Model.Layers, p.Params/1e9,
				p.Plan.Tensor, p.Plan.Data, p.Plan.Pipeline,
				100*p.Utilization, p.Days)
		}
		fmt.Printf("  realistic optimum: %.2fB (%.0f%% below naive; paper: 76.04B, 48%% below)\n",
			res.Optimal.Params/1e9, 100*(1-res.Optimal.Params/res.NaiveParams))
	})
	b.ReportMetric(res.Optimal.Params/1e9, "optimal_params_B")
	b.ReportMetric(100*(1-res.Optimal.Params/res.NaiveParams), "shrink_vs_naive_pct")
}

// BenchmarkSimulatorThroughput measures raw Algorithm 1 replay speed on a
// large task graph (an engineering metric, not a paper exhibit). The
// plan-level report cache is disabled so every iteration binds durations
// and replays; the structural graph is lowered once and served from the
// shape-keyed cache thereafter, so this is the marginal cost a sweep pays
// per plan whose shape is already resident (the cold per-shape cost shows
// up in BenchmarkDSESweep's lowerings metric).
func BenchmarkSimulatorThroughput(b *testing.B) {
	sim, err := core.New(hw.PaperCluster(64), core.WithCacheSize(0)) // TaskLevel fidelity
	if err != nil {
		b.Fatal(err)
	}
	m := model.Megatron18_4B()
	plan := parallel.Plan{Tensor: 8, Data: 8, Pipeline: 8, MicroBatch: 1, GlobalBatch: 256, GradientBuckets: 2}
	var tasks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sim.Simulate(m, plan)
		if err != nil {
			b.Fatal(err)
		}
		tasks = rep.Tasks
	}
	b.ReportMetric(float64(tasks), "tasks_per_iteration")
}

// dseSweepSpace is the BenchmarkDSESweep search space: a realistic
// multi-hundred-point (t, d, p, m) grid over Megatron 39.1B. Many plans
// share a structural shape — the same (schedule, pipeline depth,
// micro-batch count, layer split) with different tensor/data widths — which
// is exactly the redundancy the simulator's shape-keyed structural cache
// exploits.
func dseSweepSpace() dse.Space {
	return dse.Space{
		TensorWidths:    []int{1, 2, 4, 8, 16},
		DataWidths:      []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64},
		PipelineDepths:  []int{1, 2, 4, 6, 8, 12},
		MicroBatches:    []int{1, 2, 3, 4},
		GlobalBatch:     384,
		GradientBuckets: 2,
		MaxMicroBatches: 64,
	}
}

// BenchmarkDSESweep measures one cold design-space sweep end to end: a
// fresh simulator (empty caches) evaluating every plan of dseSweepSpace with
// the plan-level report cache disabled, so each point pays its true
// simulation cost. One op = one whole sweep. The structural-cache metrics
// pin the shape-sharing win: lowerings counts the graphs actually lowered
// per sweep, struct_hit_pct the fraction of points served a shared
// structure.
func BenchmarkDSESweep(b *testing.B) {
	m := model.Megatron39_1B()
	cluster := hw.PaperCluster(256)
	var points []dse.Point
	var sim *core.Simulator
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		sim, err = core.New(cluster, core.WithFidelity(taskgraph.OperatorLevel), core.WithCacheSize(0))
		if err != nil {
			b.Fatal(err)
		}
		points, err = dse.Explore(sim, m, dseSweepSpace())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := sim.CacheStats()
	lowerings := float64(st.Lowerings)
	width := float64(st.BatchedPlans) / float64(max(st.BatchReplays, 1))
	b.ReportMetric(float64(len(points)), "design_points")
	b.ReportMetric(lowerings, "lowerings")
	b.ReportMetric(100*float64(st.StructHits)/float64(st.StructHits+st.StructMisses), "struct_hit_pct")
	b.ReportMetric(width, "batch_width")
	// The refactor's acceptance bar: structural sharing must cut lowering
	// invocations at least 3x versus one lowering per design point.
	if ratio := float64(len(points)) / lowerings; ratio < 3 {
		b.Fatalf("structural cache only saved %.1fx lowerings (%d points, %.0f lowerings), want >= 3x",
			ratio, len(points), lowerings)
	}
	// The batched-replay acceptance bar: the sweep must actually drive
	// multiple duration tables per structural walk.
	if width <= 1 {
		b.Fatalf("mean batch width %.2f (%d plans over %d replays), want > 1",
			width, st.BatchedPlans, st.BatchReplays)
	}
}

// BenchmarkDSESweepWarmDisk measures the persistent artifact tier: the
// same 563-point sweep as BenchmarkDSESweep, but served by a fresh
// simulator (empty memory caches — a new process, in effect) over an
// artifact directory a previous sweep populated. One op = one whole warm
// sweep. The acceptance bars are hard: every structural load must come
// from disk (disk_hit_pct = 100, zero lowerings), and the warm sweep must
// be at least 3x faster than a cold run with the artifact directory
// enabled — the run a user pays for once per machine, which lowers every
// structure AND persists it.
//
// The speedup gate (speedup_vs_cold) divides the fastest of seven cold
// sweeps by the fastest of seven warm ones, timed in this process after the
// timed loop in alternating pairs: each cold sweep fills a fresh directory
// that its warm twin then reads, and each sweep starts from a collected
// heap. On a shared host the noise is large and only ever adds time: on a
// 2-vCPU cloud VM, with wall clock equal to CPU time (no descheduling) and
// a CPU-bound calibration loop steady within 15%, identical warm sweeps in
// one process took 54-121 ms and cold sweeps 165-364 ms, every phase
// (artifact loads, Bind, replay) slowing together, so one pair's ratio
// read 2.1x-5.4x. Each side's fastest sweep is its least disturbed cost.
func BenchmarkDSESweepWarmDisk(b *testing.B) {
	m := model.Megatron39_1B()
	cluster := hw.PaperCluster(256)
	// sweep runs the whole sweep on a fresh simulator over the artifact
	// directory dir.
	sweep := func(dir string) ([]dse.Point, core.CacheStats, time.Duration) {
		start := time.Now()
		sim, err := core.New(cluster, core.WithFidelity(taskgraph.OperatorLevel), core.WithCacheSize(0), core.WithArtifactDir(dir))
		if err != nil {
			b.Fatal(err)
		}
		points, err := dse.Explore(sim, m, dseSweepSpace())
		if err != nil {
			b.Fatal(err)
		}
		return points, sim.CacheStats(), time.Since(start)
	}

	dir := b.TempDir()
	sweep(dir) // populate the directory the timed warm sweeps read
	var (
		points []dse.Point
		st     core.CacheStats
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, st, _ = sweep(dir)
	}
	b.StopTimer()
	hitPct := 100 * float64(st.DiskHits) / float64(max(st.DiskHits+st.DiskMisses, 1))
	b.ReportMetric(float64(len(points)), "design_points")
	b.ReportMetric(hitPct, "disk_hit_pct")
	b.ReportMetric(float64(st.Lowerings), "lowerings")
	if hitPct < 100 {
		b.Fatalf("disk hit rate %.1f%% (%d hits, %d misses), want 100%%", hitPct, st.DiskHits, st.DiskMisses)
	}
	if st.Lowerings != 0 {
		b.Fatalf("warm sweep lowered %d graphs, want 0", st.Lowerings)
	}

	// Untimed tail: the speedup bar over seven in-process cold/warm pairs.
	var cold, warm [7]time.Duration
	for i := range cold {
		// Each sweep starts from a collected heap, so the warm sweep does not
		// pay to collect the cold sweep's garbage.
		pairDir := b.TempDir()
		runtime.GC()
		_, _, cold[i] = sweep(pairDir)
		runtime.GC()
		_, _, warm[i] = sweep(pairDir)
		if err := os.RemoveAll(pairDir); err != nil {
			b.Fatal(err)
		}
	}
	bestCold, bestWarm := slices.Min(cold[:]), slices.Min(warm[:])
	speedup := bestCold.Seconds() / bestWarm.Seconds()
	b.ReportMetric(speedup, "speedup_vs_cold")
	if speedup < 3 {
		b.Fatalf("fastest warm sweep speedup %.1fx over cold (%v / %v), want >= 3x; cold %v, warm %v", speedup, bestCold, bestWarm, cold, warm)
	}
}

// BenchmarkSimulatorThroughputCached measures the same configuration served
// from the plan-level result cache — the cost repeated configurations pay
// inside design-space sweeps, scheduler profiling, and Chinchilla searches.
func BenchmarkSimulatorThroughputCached(b *testing.B) {
	sim, err := core.New(hw.PaperCluster(64)) // TaskLevel fidelity, default cache
	if err != nil {
		b.Fatal(err)
	}
	m := model.Megatron18_4B()
	plan := parallel.Plan{Tensor: 8, Data: 8, Pipeline: 8, MicroBatch: 1, GlobalBatch: 256, GradientBuckets: 2}
	if _, err := sim.Simulate(m, plan); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(m, plan); err != nil {
			b.Fatal(err)
		}
	}
	st := sim.CacheStats()
	if st.ReportMisses != 1 {
		b.Fatalf("cached benchmark re-simulated: %d misses, want 1 (the warm-up)", st.ReportMisses)
	}
}
