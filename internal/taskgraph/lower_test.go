package taskgraph

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"vtrain/internal/comm"
	"vtrain/internal/gpu"
	"vtrain/internal/hw"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

// referenceLower is a deliberately naive lowering that Lower is checked
// against: it feeds a Builder node by node, takes each operator's kernel
// count from the profiler's actual decomposition, and expands every
// multi-kernel operator at TaskLevel into a chain of kernel tasks, with
// each dependency edge from the dependency's last task to the node's
// first. It shares finalize with Lower, and nothing else.
func referenceLower(og *opgraph.Graph, prof *profiler.Profiler, fid Fidelity) *Graph {
	b := NewBuilder(og.Stages)
	b.g.Model = og.Model
	firstTask := make([]int, og.NumNodes())
	lastTask := make([]int, og.NumNodes())
	for nid := range firstTask {
		n := og.Node(nid)
		task := Task{Device: int(n.Stage), Stream: CommStream, Source: nid, Class: n.Kind.String()}
		var descs []durDesc
		switch n.Kind {
		case opgraph.Compute:
			task.Stream, task.Class = ComputeStream, n.Op.String()
			d := durDesc{kind: descOperator, op: n.Op, stageParams: n.StageParams}
			kernels := 1
			if fid == TaskLevel {
				kernels = len(prof.Profile(d.operatorFor(&Graph{Model: og.Model}, og.Plan)))
			}
			if kernels == 1 {
				descs = append(descs, d)
				break
			}
			for i := 0; i < kernels; i++ {
				descs = append(descs, durDesc{kind: descKernel, op: n.Op, kernel: int32(i), stageParams: n.StageParams})
			}
		case opgraph.AllReduceTP:
			descs = append(descs, durDesc{kind: descAllReduceTP})
		case opgraph.AllReduceDP:
			descs = append(descs, durDesc{kind: descAllReduceDP, stageParams: n.StageParams, buckets: n.Buckets})
		case opgraph.P2P:
			descs = append(descs, durDesc{kind: descP2P, from: n.FromStage, to: n.Stage})
		default:
			panic(fmt.Sprintf("referenceLower: unknown node kind %v", n.Kind))
		}
		for i, d := range descs {
			id := b.addTaskDesc(task, d)
			if i == 0 {
				firstTask[nid] = id
			} else {
				b.AddEdge(id-1, id)
			}
			lastTask[nid] = id
		}
		for _, d := range og.Deps(nid) {
			b.AddEdge(lastTask[d], firstTask[nid])
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

var fidName = [...]string{TaskLevel: "task", OperatorLevel: "operator"}

// requireSameGraph fails unless got and want are the same structural
// graph: tasks in dispatch order, the parents CSR, source operators, and
// the class and descriptor tables.
func requireSameGraph(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Devices", got.Devices, want.Devices},
		{"Model", got.Model, want.Model},
		{"parentStart", got.parentStart, want.parentStart},
		{"parents", got.parents, want.parents},
		{"classes", got.classes, want.classes},
		{"classOf", got.classOf, want.classOf},
		{"descs", got.descs, want.descs},
		{"durIdx", got.durIdx, want.durIdx},
		{"slotOf", got.slotOf, want.slotOf},
		{"sources", got.sources, want.sources},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: %s = %v, want %v", what, f.name, f.got, f.want)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: graphs differ", what)
	}
}

// loweredStructureSHA256 is the SHA-256 of the artifact bytes of every
// graph TestLowerMatchesReference lowers, in plan-then-fidelity order. Both
// Lower and referenceLower read the operator graph's dependencies, so only
// a fixed digest catches a change to those dependencies or their order.
const loweredStructureSHA256 = "363796291c9961f7316a75324e3a00f059cc9b49253da1c8495533f9d43e91ec"

// TestLowerMatchesReference pins Lower to referenceLower at both
// fidelities across schedules, interleaving, uneven layer splits,
// recomputation and gradient buckets, and pins the lowered structure to
// loweredStructureSHA256.
func TestLowerMatchesReference(t *testing.T) {
	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	sum := sha256.New()
	for _, plan := range artifactPlans() {
		og, err := opgraph.Build(tinyModel(), plan, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, fid := range []Fidelity{TaskLevel, OperatorLevel} {
			what := fmt.Sprintf("plan %s at %s level", plan, fidName[fid])
			g := Lower(og, prof, fid)
			requireSameGraph(t, what, g, referenceLower(og, prof, fid))
			data, err := g.MarshalArtifact()
			if err != nil {
				t.Fatalf("%s: marshal: %v", what, err)
			}
			sum.Write(data)
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != loweredStructureSHA256 {
		t.Fatalf("lowered structure SHA-256 = %s, want %s", got, loweredStructureSHA256)
	}
}

// maxKernels is the largest kernel count of any operator kind.
var maxKernels = func() int {
	k := 0
	for op := range profiler.WeightUpdate + 1 {
		k = max(k, profiler.KernelCount(op))
	}
	return k
}()

// FuzzLower lowers random valid plans of the tiny model at both fidelities
// and checks that Lower builds referenceLower's graph within the task bound
// opgraph.Validate enforces, and that the graph survives an artifact round
// trip unchanged and replays bit-identically after it. The inputs pick t, d, p, the micro-batch size and count, the
// schedule, virtual stages, recomputation and gradient buckets; invalid
// combinations are skipped.
func FuzzLower(f *testing.F) {
	for _, p := range artifactPlans() {
		f.Add(uint8(p.Tensor-1), uint8(p.Data-1), uint8(p.Pipeline-1), uint8(p.MicroBatch-1),
			uint8(p.MicroBatches()-1), uint8(p.Schedule), uint8(p.VirtualStages), uint8(p.GradientBuckets), p.Recompute)
	}
	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	cm := comm.NewModel(c)
	f.Fuzz(func(t *testing.T, tp, dp, pp, mb, nmb, sched, v, buckets uint8, recompute bool) {
		plan := parallel.Plan{
			Tensor:          1 + int(tp)%4,
			Data:            1 + int(dp)%4,
			Pipeline:        1 + int(pp)%4,
			MicroBatch:      1 + int(mb)%2,
			Schedule:        parallel.Schedule(sched % 2),
			VirtualStages:   int(v) % 3,
			GradientBuckets: int(buckets) % 4,
			Recompute:       recompute,
		}
		plan.GlobalBatch = plan.Data * plan.MicroBatch * (1 + int(nmb)%8)
		og, err := opgraph.Build(tinyModel(), plan, c)
		if err != nil {
			return
		}
		// opgraph.Validate bounds a graph at nmb·(4·p·v + 12·L) + L + p
		// nodes of at most maxKernels tasks each; check the bound is sound.
		L, p, chunks := tinyModel().Layers, plan.Pipeline, max(plan.VirtualStages, 1)
		nodeBound := plan.MicroBatches()*(4*p*chunks+12*L) + L + p
		if og.NumNodes() > nodeBound {
			t.Fatalf("plan %s: %d nodes, over the bound %d", plan, og.NumNodes(), nodeBound)
		}
		for _, fid := range []Fidelity{TaskLevel, OperatorLevel} {
			what := fmt.Sprintf("plan %s at %s level", plan, fidName[fid])
			g := Lower(og, prof, fid)
			if g.NumTasks() > nodeBound*maxKernels {
				t.Fatalf("%s: %d tasks, over the bound %d", what, g.NumTasks(), nodeBound*maxKernels)
			}
			requireSameGraph(t, what, g, referenceLower(og, prof, fid))

			data, err := g.MarshalArtifact()
			if err != nil {
				t.Fatalf("%s: marshal: %v", what, err)
			}
			back, err := UnmarshalArtifact(data)
			if err != nil {
				t.Fatalf("%s: unmarshal: %v", what, err)
			}
			requireSameGraph(t, what+" after a round trip", back, g)
			if again, _ := back.MarshalArtifact(); !bytes.Equal(again, data) {
				t.Fatalf("%s: re-encoding changed the artifact", what)
			}
			want, err := g.Replay(g.Bind(prof, cm, plan, c), nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.Replay(back.Bind(prof, cm, plan, c), nil)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, 0, got, want)
		}
	})
}
