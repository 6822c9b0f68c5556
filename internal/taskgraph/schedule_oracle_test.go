package taskgraph

import (
	"fmt"
	"testing"

	"vtrain/internal/hw"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

// oracleTable prices g by hand so that every pipeline schedule's iteration
// time has a closed form: each forward-layer kernel (FwdMHA, FwdFFN) costs
// 1, each backward-layer kernel (BwdMHA, BwdFFN) costs 2, and everything
// else (embedding, LM head, weight update, every communication task) costs
// 0. An operator-level task costs its kernel count times its kernel price.
// All prices are small integers, so every sum the replay forms is exact.
func oracleTable(g *Graph) *DurationTable {
	tbl := &DurationTable{vals: make([]descVal, len(g.descs)), durIdx: g.durIdx}
	for i, d := range g.descs {
		if d.kind != descOperator && d.kind != descKernel {
			continue
		}
		price := 0.0
		switch d.op {
		case profiler.FwdMHA, profiler.FwdFFN:
			price = 1
		case profiler.BwdMHA, profiler.BwdFFN:
			price = 2
		}
		if d.kind == descOperator {
			price *= float64(profiler.KernelCount(d.op))
		}
		tbl.vals[i].dur = price
	}
	return tbl
}

// TestScheduleClosedForms is an oracle for the pipeline schedules that
// shares no code with the opgraph builders. Under oracleTable's prices a
// layer's forward costs f and its backward b, communication is free, and
// stages are balanced, so a schedule's iteration time is its critical
// path in chunk steps: (nmb + p - 1)·(L/p)·(f + b) for GPipe and 1F1B,
// and (nmb·v + p - 1)·(L/(p·v))·(f + b) for the interleaved 1F1B
// schedule. Every plan of the grid, at both fidelities, must replay to
// exactly that time.
func TestScheduleClosedForms(t *testing.T) {
	f := float64(profiler.KernelCount(profiler.FwdMHA) + profiler.KernelCount(profiler.FwdFFN))
	b := 2 * float64(profiler.KernelCount(profiler.BwdMHA)+profiler.KernelCount(profiler.BwdFFN))
	c := hw.PaperCluster(1)
	checked := 0
	for _, fid := range []Fidelity{OperatorLevel, TaskLevel} {
		for _, layers := range []int{8, 12, 24} {
			m := deepModel()
			m.Layers = layers
			for _, p := range []int{1, 2, 3, 4, 6, 8} {
				if layers%p != 0 {
					continue
				}
				for _, nmb := range []int{1, 2, 3, 4, 5, 8, 12, 16} {
					base := parallel.Plan{Tensor: 1, Data: 1, Pipeline: p, MicroBatch: 1, GlobalBatch: nmb}
					var plans []parallel.Plan
					for _, s := range []parallel.Schedule{parallel.GPipe, parallel.OneFOneB} {
						plan := base
						plan.Schedule = s
						plans = append(plans, plan)
					}
					for _, v := range []int{2, 3} {
						if p > 1 && layers%(p*v) == 0 && nmb%p == 0 {
							plan := base
							plan.VirtualStages = v
							plans = append(plans, plan)
						}
					}
					for _, plan := range plans {
						v := max(plan.VirtualStages, 1)
						want := float64((nmb*v+p-1)*(layers/(p*v))) * (f + b)
						name := fmt.Sprintf("fidelity %d L=%d %s", fid, layers, plan)
						g, err := LowerPlan(m, plan, c, fid)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						res, err := g.Replay(oracleTable(g), nil)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if res.IterTime != want {
							t.Errorf("%s: IterTime %v, want %v", name, res.IterTime, want)
						}
						checked++
					}
				}
			}
		}
	}
	if checked != 2*289 {
		t.Fatalf("checked %d plans, want %d", checked, 2*289)
	}
}
