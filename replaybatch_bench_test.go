package vtrain_bench

import (
	"fmt"
	"testing"

	"vtrain/internal/comm"
	"vtrain/internal/core"
	"vtrain/internal/gpu"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
	"vtrain/internal/taskgraph"
)

// BenchmarkReplayBatch isolates the batched replay core: one structural
// graph (Megatron 3.6B, pipeline depth 4, 16 micro-batches at operator
// fidelity), replayed for 1, 4, and 16 bound duration tables per pass. The
// ms_per_plan metric is the per-plan cost of a replay at that width — the
// drop from width 1 to 16 is the structural walk (FIFO traversal, CSR
// decoding, dependency counting) amortizing across lanes while each lane's
// float work stays constant. The mixed case alternates graph sizes to show
// any re-made replay scratch in B/op.
func BenchmarkReplayBatch(b *testing.B) {
	m := model.Megatron3_6B()
	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	cm := comm.NewModel(c)

	// All tables bind one structure: tensor and data widths never change
	// the graph, so the batch mimics a sweep's shape group.
	base := parallel.Plan{Pipeline: 4, MicroBatch: 1, GlobalBatch: 64, GradientBuckets: 2}
	og, err := opgraph.Build(m, withWidths(base, 1, 1), c)
	if err != nil {
		b.Fatal(err)
	}
	g := taskgraph.Lower(og, prof, taskgraph.OperatorLevel)

	var tables []*taskgraph.DurationTable
	for _, t := range []int{1, 2, 4, 8} {
		for _, d := range []int{1, 2, 4, 8} {
			tables = append(tables, g.Bind(prof, cm, withWidths(base, t, d), c))
		}
	}

	for _, width := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			batch := tables[:width]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.ReplayBatchContended(batch, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			perPlan := b.Elapsed().Seconds() * 1e3 / float64(b.N) / float64(width)
			b.ReportMetric(perPlan, "ms_per_plan")
		})
	}

	// mixed alternates one width-16 replay of the large graph with 16
	// width-1 replays of a small one (one stage, 8 micro-batches), the size
	// swings of a sweep over shape groups. Run with -benchmem: the pooled
	// replay scratch keeps what the large graph grew, so B/op counts only
	// the results, and any re-made scratch slab shows up in it.
	small := withWidths(parallel.Plan{Pipeline: 1, MicroBatch: 1, GlobalBatch: 8}, 1, 1)
	sog, err := opgraph.Build(m, small, c)
	if err != nil {
		b.Fatal(err)
	}
	sg := taskgraph.Lower(sog, prof, taskgraph.OperatorLevel)
	stbl := []*taskgraph.DurationTable{sg.Bind(prof, cm, small, c)}
	b.Run("mixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.ReplayBatchContended(tables[:16], nil); err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 16; j++ {
				if _, err := sg.ReplayBatchContended(stbl, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkLower isolates the cold path a sweep pays per structural shape:
// one plan of each of dseSweepSpace's distinct shapes (140 for Megatron
// 39.1B), lowered through taskgraph.LowerPlan, the path core takes on a
// structural-cache miss. The operator sub-benchmark lowers at the sweeps'
// OperatorLevel; the task sub-benchmark at TaskLevel, the default of
// core.New, vtrain and every server request. ns_per_task is the lowering
// cost per task of the lowered graphs; run it with -benchmem, since the
// pooled lowering scratch keeps its allocations near the graphs' own slabs.
func BenchmarkLower(b *testing.B) {
	m := model.Megatron39_1B()
	c := hw.PaperCluster(256)
	sim, err := core.New(c, core.WithFidelity(taskgraph.OperatorLevel))
	if err != nil {
		b.Fatal(err)
	}
	seen := make(map[core.Shape]bool)
	var plans []parallel.Plan
	for _, p := range dseSweepSpace().Enumerate(m, sim) {
		if s := sim.PlanShape(m, p); !seen[s] {
			seen[s] = true
			plans = append(plans, p)
		}
	}
	for _, fc := range []struct {
		name string
		fid  taskgraph.Fidelity
	}{{"operator", taskgraph.OperatorLevel}, {"task", taskgraph.TaskLevel}} {
		b.Run(fc.name, func(b *testing.B) {
			tasks := 0
			for i := 0; i < b.N; i++ {
				tasks = 0
				for _, p := range plans {
					g, err := taskgraph.LowerPlan(m, p, c, fc.fid)
					if err != nil {
						b.Fatal(err)
					}
					tasks += g.NumTasks()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(plans)), "shapes")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tasks), "ns_per_task")
		})
	}
}

// withWidths returns base with the given tensor and data widths, keeping
// the micro-batch count fixed by scaling the global batch with d.
func withWidths(base parallel.Plan, t, d int) parallel.Plan {
	p := base
	p.Tensor, p.Data = t, d
	p.GlobalBatch = base.GlobalBatch * d
	return p
}
