package taskgraph

import (
	"reflect"
	"testing"

	"vtrain/internal/comm"
	"vtrain/internal/gpu"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

// hwInvarianceModel is small enough to lower at TaskLevel quickly but has
// every structural feature: multiple layers per stage, TP+DP+PP, buckets.
func hwInvarianceModel() model.Config {
	return model.Config{Name: "hw-inv", Hidden: 512, Layers: 8, SeqLen: 256, Heads: 8, Vocab: 8192}
}

func hwInvariancePlan() parallel.Plan {
	return parallel.Plan{
		Tensor: 2, Data: 2, Pipeline: 4,
		MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2,
	}
}

// lowerOn builds and lowers (m, plan) against one concrete cluster, using a
// profiler for that cluster's own GPU generation.
func lowerOn(t *testing.T, m model.Config, plan parallel.Plan, c hw.Cluster, fid Fidelity) (*Graph, *profiler.Profiler) {
	t.Helper()
	og, err := opgraph.Build(m, plan, c)
	if err != nil {
		t.Fatal(err)
	}
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	return Lower(og, prof, fid), prof
}

// TestStructureHardwareInvariance pins the contract that makes joint
// (hardware x plan) sweeps cheap: for a fixed plan, lowering against two
// different clusters — different GPU generation, NVLink tier, interconnect,
// and price — must produce byte-identical task structure (task slabs, CSR
// edges, descriptors, labels). Only the DurationTable bound at replay may
// differ. core's shape-keyed structural cache is shared across ForCluster
// siblings on the strength of exactly this invariant.
func TestStructureHardwareInvariance(t *testing.T) {
	m := hwInvarianceModel()
	plan := hwInvariancePlan()
	offA, err := hw.LookupOffering("a100-sxm-80gb")
	if err != nil {
		t.Fatal(err)
	}
	offB, err := hw.LookupOffering("h100-sxm-80gb")
	if err != nil {
		t.Fatal(err)
	}
	cA, cB := offA.Cluster(2), offB.Cluster(2)

	for _, fid := range []Fidelity{TaskLevel, OperatorLevel} {
		gA, profA := lowerOn(t, m, plan, cA, fid)
		gB, profB := lowerOn(t, m, plan, cB, fid)

		// Per-task slabs: every task, attribute for attribute. Structural
		// tasks carry no durations, FLOPs, or kernel names, so equality
		// here means the topology and classification are hardware-free.
		if gA.NumTasks() != gB.NumTasks() {
			t.Fatalf("fidelity %v: task counts differ between clusters", fid)
		}
		if gA.Devices != gB.Devices || gA.Model != gB.Model {
			t.Fatalf("fidelity %v: graph headers differ", fid)
		}
		// The parents CSR, dispatch order (sources), class interning, and
		// the deduplicated duration-descriptor table must match exactly.
		for name, pair := range map[string][2]any{
			"parentStart": {gA.parentStart, gB.parentStart},
			"parents":     {gA.parents, gB.parents},
			"classes":     {gA.classes, gB.classes},
			"descClass":   {gA.descClass, gB.descClass},
			"descs":       {gA.descs, gB.descs},
			"durIdx":      {gA.durIdx, gB.durIdx},
			"slotOf":      {gA.slotOf, gB.slotOf},
			"sources":     {gA.sources, gB.sources},
		} {
			if !reflect.DeepEqual(pair[0], pair[1]) {
				t.Fatalf("fidelity %v: %s differs between clusters", fid, name)
			}
		}
		// Labels compose from the source operator graph at trace time;
		// they must not embed hardware either.
		ogA, err := opgraph.Build(m, plan, cA)
		if err != nil {
			t.Fatal(err)
		}
		ogB, err := opgraph.Build(m, plan, cB)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < gA.NumTasks(); id++ {
			if la, lb := ogA.Label(gA.TaskAt(id).Source), ogB.Label(gB.TaskAt(id).Source); la != lb {
				t.Fatalf("fidelity %v: task %d label %q != %q", fid, id, la, lb)
			}
		}

		// The *binding* is where hardware enters: the same structure bound
		// against each cluster's profiler and communication model must
		// yield different durations (H100 compute is faster), same length.
		tblA := gA.Bind(profA, comm.NewModel(cA), plan, cA)
		tblB := gB.Bind(profB, comm.NewModel(cB), plan, cB)
		if tblA.Len() != tblB.Len() {
			t.Fatalf("fidelity %v: table lengths differ: %d vs %d", fid, tblA.Len(), tblB.Len())
		}
		differ := 0
		for i := 0; i < tblA.Len(); i++ {
			if tblA.Duration(i) != tblB.Duration(i) {
				differ++
			}
		}
		if differ == 0 {
			t.Fatalf("fidelity %v: binding against different clusters produced identical durations", fid)
		}

		// And cross-binding onto the *other* cluster's structure must be
		// exact: replaying gA under cluster B's table equals replaying gB
		// under it, since the structures are interchangeable.
		resAB, err := gA.Replay(tblB, nil)
		if err != nil {
			t.Fatal(err)
		}
		resBB, err := gB.Replay(tblB, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resAB.IterTime != resBB.IterTime || resAB.Executed != resBB.Executed {
			t.Fatalf("fidelity %v: shared structure not interchangeable across clusters", fid)
		}
	}
}

// TestBindingDiffersAcrossInterconnectTiers isolates the interconnect axis:
// same GPUs, same structure, different fabric tier — only communication
// task durations may change.
func TestBindingDiffersAcrossInterconnectTiers(t *testing.T) {
	m := hwInvarianceModel()
	plan := hwInvariancePlan()
	off, err := hw.LookupOffering("a100-sxm-80gb")
	if err != nil {
		t.Fatal(err)
	}
	cSlow := off.Cluster(2)
	cFast := off.WithInterconnect(hw.IBNDRx8()).Cluster(2)

	g, prof := lowerOn(t, m, plan, cSlow, OperatorLevel)
	tblSlow := g.Bind(prof, comm.NewModel(cSlow), plan, cSlow)
	tblFast := g.Bind(prof, comm.NewModel(cFast), plan, cFast)

	commDiffer, computeDiffer := 0, 0
	for i := 0; i < g.NumTasks(); i++ {
		if tblSlow.Duration(i) == tblFast.Duration(i) {
			continue
		}
		if g.TaskAt(i).Stream == CommStream {
			commDiffer++
		} else {
			computeDiffer++
		}
	}
	if computeDiffer != 0 {
		t.Errorf("%d compute durations changed with the interconnect tier", computeDiffer)
	}
	if commDiffer == 0 {
		t.Error("no communication duration changed between 4xHDR and 8xNDR")
	}
}
