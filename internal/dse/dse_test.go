package dse

import (
	"testing"

	"vtrain/internal/core"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/taskgraph"
)

func newSim(t *testing.T, nodes int) *core.Simulator {
	t.Helper()
	s, err := core.New(hw.PaperCluster(nodes), core.WithFidelity(taskgraph.OperatorLevel))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// smallSpace keeps unit-test sweeps quick.
func smallSpace(batch int) Space {
	return Space{
		TensorWidths:    []int{1, 2, 4, 8},
		DataWidths:      []int{1, 2, 4, 8},
		PipelineDepths:  []int{1, 2, 4},
		MicroBatches:    []int{1, 2},
		GlobalBatch:     batch,
		GradientBuckets: 2,
	}
}

func TestDefaultSpaceShape(t *testing.T) {
	m := model.MTNLG530B()
	s := DefaultSpace(m, 1920)
	// tmax = 16 per the paper's sweep.
	if got := s.TensorWidths[len(s.TensorWidths)-1]; got != 16 {
		t.Fatalf("tmax = %d, want 16", got)
	}
	// Pipeline depths are divisors of L=105 up to 105.
	for _, p := range s.PipelineDepths {
		if m.Layers%p != 0 {
			t.Fatalf("pipeline depth %d does not divide %d layers", p, m.Layers)
		}
	}
	if got := s.PipelineDepths[len(s.PipelineDepths)-1]; got != 105 {
		t.Fatalf("pmax = %d, want 105", got)
	}
	// Data widths divide the global batch, dmax = 32.
	for _, d := range s.DataWidths {
		if 1920%d != 0 {
			t.Fatalf("data width %d does not divide batch", d)
		}
	}
}

func TestEnumerateRespectsConstraints(t *testing.T) {
	sim := newSim(t, 8)
	m := model.Megatron3_6B()
	s := smallSpace(16)
	s.MaxGPUs = 16
	plans := s.Enumerate(m, sim)
	if len(plans) == 0 {
		t.Fatal("no plans enumerated")
	}
	for _, p := range plans {
		if p.GPUs() > 16 {
			t.Fatalf("plan %s exceeds MaxGPUs", p)
		}
		if err := p.Validate(m, sim.Cluster()); err != nil {
			t.Fatalf("enumerated invalid plan: %v", err)
		}
		if !p.FitsMemory(m, sim.Cluster().Node.GPU) {
			t.Fatalf("enumerated OOM plan %s", p)
		}
	}
}

func TestEnumerateExactGPUs(t *testing.T) {
	sim := newSim(t, 8)
	s := smallSpace(16)
	s.ExactGPUs = 16
	for _, p := range s.Enumerate(model.Megatron3_6B(), sim) {
		if p.GPUs() != 16 {
			t.Fatalf("plan %s does not use exactly 16 GPUs", p)
		}
	}
}

func TestEnumerateMaxMicroBatches(t *testing.T) {
	sim := newSim(t, 8)
	s := smallSpace(64)
	s.MaxMicroBatches = 8
	for _, p := range s.Enumerate(model.Megatron3_6B(), sim) {
		if p.MicroBatches() > 8 {
			t.Fatalf("plan %s has %d micro-batches, cap 8", p, p.MicroBatches())
		}
	}
}

func TestEnumerateAutoRecompute(t *testing.T) {
	// MT-NLG plans on one node's worth of parallelism never fit without
	// recomputation; Enumerate must flip the flag rather than drop them.
	sim := newSim(t, 280)
	m := model.MTNLG530B()
	s := Space{
		TensorWidths:   []int{8},
		DataWidths:     []int{8},
		PipelineDepths: []int{35},
		MicroBatches:   []int{1},
		GlobalBatch:    1920,
	}
	plans := s.Enumerate(m, sim)
	if len(plans) != 1 {
		t.Fatalf("plans = %d, want 1", len(plans))
	}
	if !plans[0].Recompute {
		t.Fatal("MT-NLG (8,8,35) must auto-enable recomputation")
	}
}

func TestExploreSortedAndFeasible(t *testing.T) {
	sim := newSim(t, 8)
	points, err := Explore(sim, model.Megatron3_6B(), smallSpace(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 5 {
		t.Fatalf("explored only %d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Report.IterTime < points[i-1].Report.IterTime {
			t.Fatal("points not sorted by iteration time")
		}
	}
	best, ok := Fastest(points)
	if !ok {
		t.Fatal("no fastest point")
	}
	if best.Report.IterTime != points[0].Report.IterTime {
		t.Fatal("Fastest disagrees with sort order")
	}
}

func TestExploreBestMatchesFastest(t *testing.T) {
	sim := newSim(t, 8)
	m := model.Megatron3_6B()
	points, err := Explore(sim, m, smallSpace(16))
	if err != nil {
		t.Fatal(err)
	}
	fast, _ := Fastest(points)
	best, ok, err := ExploreBest(sim, m, smallSpace(16))
	if err != nil || !ok {
		t.Fatalf("ExploreBest: ok=%v err=%v", ok, err)
	}
	if best.Plan != fast.Plan || best.Report.IterTime != fast.Report.IterTime {
		t.Fatalf("ExploreBest %s disagrees with Fastest %s", best.Plan, fast.Plan)
	}
	// An empty space errors with ok false.
	empty := smallSpace(16)
	empty.ExactGPUs = 7
	if _, ok, err := ExploreBest(sim, m, empty); ok || err == nil {
		t.Fatal("empty space must error with ok=false")
	}
}

func TestExploreEmptySpace(t *testing.T) {
	sim := newSim(t, 8)
	s := smallSpace(16)
	s.ExactGPUs = 7 // unreachable with power-of-two factors
	if _, err := Explore(sim, model.Megatron3_6B(), s); err == nil {
		t.Fatal("empty space must error")
	}
}

func TestCheapestPrefersFewerGPUs(t *testing.T) {
	sim := newSim(t, 8)
	m := model.Megatron3_6B()
	points, err := Explore(sim, m, smallSpace(16))
	if err != nil {
		t.Fatal(err)
	}
	best, tr, ok := Cheapest(sim, points, 1e9)
	if !ok {
		t.Fatal("no cheapest point")
	}
	fast, _ := Fastest(points)
	// The cheapest plan should never use more dollars than the fastest.
	_, trFast, _ := Cheapest(sim, []Point{fast}, 1e9)
	if tr.TotalDollars > trFast.TotalDollars {
		t.Fatalf("cheapest $%.0f above fastest's $%.0f", tr.TotalDollars, trFast.TotalDollars)
	}
	if !best.Report.FitsMemory {
		t.Fatal("cheapest point must fit memory")
	}
}

func TestCheapestWithinDeadline(t *testing.T) {
	sim := newSim(t, 8)
	m := model.Megatron3_6B()
	points, err := Explore(sim, m, smallSpace(16))
	if err != nil {
		t.Fatal(err)
	}
	_, trAny, _ := Cheapest(sim, points, 1e9)
	pt, tr, ok := CheapestWithin(sim, points, 1e9, trAny.Days*0.9)
	if ok {
		if tr.Days > trAny.Days*0.9 {
			t.Fatalf("CheapestWithin exceeded the budget: %.2f > %.2f", tr.Days, trAny.Days*0.9)
		}
		if tr.TotalDollars < trAny.TotalDollars {
			t.Fatal("tighter deadline cannot be cheaper than the unconstrained optimum")
		}
		_ = pt
	}
	// An impossible deadline yields no plan.
	if _, _, ok := CheapestWithin(sim, points, 1e9, 1e-9); ok {
		t.Fatal("impossible deadline must return no plan")
	}
}

func TestParetoFront(t *testing.T) {
	sim := newSim(t, 8)
	points, err := Explore(sim, model.Megatron3_6B(), smallSpace(16))
	if err != nil {
		t.Fatal(err)
	}
	front := ParetoFront(points)
	if len(front) == 0 || len(front) > len(points) {
		t.Fatalf("front size %d out of range", len(front))
	}
	// No front point is dominated by any other point.
	for _, f := range front {
		for _, q := range points {
			if q.Report.IterTime < f.Report.IterTime && q.Plan.GPUs() <= f.Plan.GPUs() {
				t.Fatalf("front point %s dominated by %s", f.Plan, q.Plan)
			}
		}
	}
}

func TestMoreGPUsNeverHurtIterationTime(t *testing.T) {
	// Fig. 10's headline: performance is best with the most GPUs. The
	// fastest plan overall should use at least as many GPUs as the
	// fastest plan under a tighter GPU cap.
	sim := newSim(t, 8)
	m := model.Megatron3_6B()
	wide, err := Explore(sim, m, smallSpace(16))
	if err != nil {
		t.Fatal(err)
	}
	capped := smallSpace(16)
	capped.MaxGPUs = 8
	narrow, err := Explore(sim, m, capped)
	if err != nil {
		t.Fatal(err)
	}
	fw, _ := Fastest(wide)
	fn, _ := Fastest(narrow)
	if fw.Report.IterTime > fn.Report.IterTime {
		t.Fatalf("wider space slower: %.4g vs %.4g", fw.Report.IterTime, fn.Report.IterTime)
	}
}

func TestExploreDeterministic(t *testing.T) {
	sim := newSim(t, 8)
	m := model.Megatron3_6B()
	a, err := Explore(sim, m, smallSpace(16))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(sim, m, smallSpace(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("non-deterministic point count")
	}
	for i := range a {
		if a[i].Report.IterTime != b[i].Report.IterTime {
			t.Fatal("non-deterministic exploration results")
		}
	}
}
