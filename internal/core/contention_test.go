package core

import (
	"math"
	"reflect"
	"testing"

	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/taskgraph"
)

// contentionPlans spans the shapes that exercise every link class: a
// node-local tensor group (NVSwitch only), a data-parallel group striding
// across nodes (HCA + possibly spine), and a pipeline so send/recv traffic
// overlaps the collectives.
func contentionPlans() []parallel.Plan {
	return []parallel.Plan{
		{Tensor: 4, Data: 4, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 2, Data: 8, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 1, Data: 8, Pipeline: 4, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
	}
}

// TestContentionOffEquivalence pins the fidelity-knob contract at the
// simulator level: a Simulator built with WithContention(false) — or
// without the option at all — must produce reports and cache counters
// identical to the pre-knob behavior. Contention off is the fast analytic
// path, not a cheaper approximation of the contended one.
func TestContentionOffEquivalence(t *testing.T) {
	m := model.Config{Name: "cont-tiny", Hidden: 256, Layers: 4, SeqLen: 128, Heads: 4, Vocab: 1024}
	plans := contentionPlans()

	def := sim(t, 8, WithFidelity(taskgraph.OperatorLevel))
	off := sim(t, 8, WithFidelity(taskgraph.OperatorLevel), WithContention(false))
	for _, p := range plans {
		want, err := def.Simulate(m, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := off.Simulate(m, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("plan %s: WithContention(false) report differs from default:\n  off: %+v\n  def: %+v", p, got, want)
		}
	}
	if ds, os := def.CacheStats(), off.CacheStats(); ds != os {
		t.Errorf("cache stats diverge: default %+v, contention-off %+v", ds, os)
	}
}

// TestContentionMonotoneReports pins the direction of the knob: link
// sharing can only slow communication down. Compute time is untouched
// (contention derates comm-stream tasks only), comm busy time and the
// iteration never get faster, and at least one multi-node plan must
// actually pay a congestion tax — otherwise the knob is wired to nothing.
func TestContentionMonotoneReports(t *testing.T) {
	m := model.Config{Name: "cont-tiny", Hidden: 256, Layers: 4, SeqLen: 128, Heads: 4, Vocab: 1024}
	plans := contentionPlans()

	ideal := sim(t, 8, WithFidelity(taskgraph.OperatorLevel))
	cont := sim(t, 8, WithFidelity(taskgraph.OperatorLevel), WithContention(true))
	slowed := 0
	for _, p := range plans {
		base, err := ideal.Simulate(m, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cont.Simulate(m, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tasks != base.Tasks {
			t.Errorf("plan %s: contention changed the task count %d -> %d", p, base.Tasks, got.Tasks)
		}
		if got.ComputeSeconds != base.ComputeSeconds {
			t.Errorf("plan %s: contention changed compute busy time %v -> %v", p, base.ComputeSeconds, got.ComputeSeconds)
		}
		if got.CommSeconds < base.CommSeconds {
			t.Errorf("plan %s: contention lowered comm busy time %v -> %v", p, base.CommSeconds, got.CommSeconds)
		}
		if got.IterTime < base.IterTime {
			t.Errorf("plan %s: contention lowered iteration time %v -> %v", p, base.IterTime, got.IterTime)
		}
		if got.CommSeconds > base.CommSeconds {
			slowed++
		}
	}
	if slowed == 0 {
		t.Error("no plan paid any congestion tax — the contention knob is not wired into replay")
	}
}

// TestContentionBatchEquivalence holds SimulateBatch to the sequential
// contract under contention: batched lanes each carry their own occupancy
// ledger, so a contended batch must reproduce individual contended
// Simulate calls bit for bit.
func TestContentionBatchEquivalence(t *testing.T) {
	m := model.Config{Name: "cont-batch", Hidden: 256, Layers: 4, SeqLen: 128, Heads: 4, Vocab: 1024}
	plans := contentionPlans()

	seq := sim(t, 8, WithFidelity(taskgraph.OperatorLevel), WithContention(true))
	want := make([]Report, len(plans))
	for i, p := range plans {
		rep, err := seq.Simulate(m, p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}

	batch := sim(t, 8, WithFidelity(taskgraph.OperatorLevel), WithContention(true))
	got, err := SimulateBatch(m, repeatSim(batch, len(plans)), plans)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plans {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("plan %s: contended batch report differs from sequential:\n batch: %+v\n   seq: %+v", plans[i], got[i], want[i])
		}
	}
}

// TestForClusterContention pins how the knob travels through sibling
// derivation: siblings inherit the parent's contention level by default,
// an explicit WithContention on ForCluster overrides it, and both cases
// keep sharing the parent's structural cache — contention binds at replay
// time, never into the lowered graph.
func TestForClusterContention(t *testing.T) {
	m := model.Config{Name: "cont-sib", Hidden: 256, Layers: 4, SeqLen: 128, Heads: 4, Vocab: 1024}
	p := parallel.Plan{Tensor: 2, Data: 8, Pipeline: 4, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2}
	cl := hw.PaperCluster(8)

	parent := sim(t, 8, WithFidelity(taskgraph.OperatorLevel), WithContention(true))
	inherited, err := parent.ForCluster(cl)
	if err != nil {
		t.Fatal(err)
	}
	overridden, err := parent.ForCluster(cl, WithContention(false))
	if err != nil {
		t.Fatal(err)
	}

	wantOn, err := parent.Simulate(m, p)
	if err != nil {
		t.Fatal(err)
	}
	gotInherited, err := inherited.Simulate(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotInherited, wantOn) {
		t.Fatalf("same-cluster sibling did not inherit contention:\n sib: %+v\n par: %+v", gotInherited, wantOn)
	}

	wantOff, err := sim(t, 8, WithFidelity(taskgraph.OperatorLevel)).Simulate(m, p)
	if err != nil {
		t.Fatal(err)
	}
	gotOverridden, err := overridden.Simulate(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotOverridden, wantOff) {
		t.Fatalf("WithContention(false) override on ForCluster did not take:\n sib: %+v\n ideal: %+v", gotOverridden, wantOff)
	}

	// All three simulators share one structural cache: the shape was
	// lowered exactly once no matter how many contention levels replayed it.
	if st := parent.CacheStats(); st.Lowerings != 1 {
		t.Errorf("expected 1 lowering across contention levels sharing a shape, got %d", st.Lowerings)
	}
}

// TestRejectsInfiniteOversubscription: an infinite spine oversubscription
// has no physical meaning. Were it accepted, the spine's derate weight
// would be +Inf and Derate NaN even at zero overlaps, and the replay's
// comparisons would drop the NaN finishes, so this plan's contended
// iteration would end before its ideal one. Both ways to a simulator on
// such a cluster refuse it.
func TestRejectsInfiniteOversubscription(t *testing.T) {
	m := model.Config{Name: "cont-tiny", Hidden: 256, Layers: 4, SeqLen: 128, Heads: 4, Vocab: 1024}
	plan := parallel.Plan{Tensor: 2, Data: 8, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2}
	c := hw.PaperCluster(8)
	c.NodesPerLeaf, c.Oversubscription = 1, math.Inf(1)
	if s, err := New(c, WithFidelity(taskgraph.OperatorLevel), WithContention(true)); err == nil {
		rep, err := s.Simulate(m, plan)
		t.Fatalf("New accepted an infinite oversubscription; plan %s simulated to %+v, %v", plan, rep, err)
	}
	parent := sim(t, 8, WithFidelity(taskgraph.OperatorLevel), WithContention(true))
	if _, err := parent.ForCluster(c); err == nil {
		t.Fatal("ForCluster accepted an infinite oversubscription")
	}
}
