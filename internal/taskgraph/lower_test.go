package taskgraph

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
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
// first. It shares finalize and indexClasses with Lower, and nothing else.
// It also returns each task's source operator, by task id.
func referenceLower(og *opgraph.Graph, prof *profiler.Profiler, fid Fidelity) (*Graph, []int) {
	b := NewBuilder(og.Stages)
	b.g.Model = og.Model
	firstTask := make([]int, og.NumNodes())
	lastTask := make([]int, og.NumNodes())
	for nid := range firstTask {
		n := og.Node(nid)
		stream := CommStream
		var descs []durDesc
		switch n.Kind {
		case opgraph.Compute:
			stream = ComputeStream
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
			id := b.AddTask(int(n.Stage), stream, nid, d, 0)
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
	g, _, err := b.Build()
	if err != nil {
		panic(err)
	}
	sources := make([]int, g.NumTasks())
	for id := range sources {
		sources[id] = b.Source(id)
	}
	return g, sources
}

var fidName = [...]string{TaskLevel: "task", OperatorLevel: "operator"}

// requireSameGraph fails unless got and want are the same structural
// graph: tasks in dispatch order, the parents CSR, and the descriptor and
// class tables.
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
		{"descs", got.descs, want.descs},
		{"durIdx", got.durIdx, want.durIdx},
		{"classes", got.classes, want.classes},
		{"descClass", got.descClass, want.descClass},
		{"slotOf", got.slotOf, want.slotOf},
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
// It was last re-pinned for EncodingVersion 5, which dropped the per-task
// source section: graphs no longer carry their tasks' source operators,
// which only trace labels read (see TraceLabels). planMatrixSHA256 held
// across that change, as it did across version 4's removal of the class
// section.
const loweredStructureSHA256 = "176727f0b91fa18716617611f5901e8d503fcbd8e284012a211963c7707bafb2"

// planMatrixSHA256 is the SHA-256 of structureDigest over the same graphs
// in the same order. It reads the graph rather than its encoding, so an
// artifact-format change leaves it unchanged while any change to what
// Lower builds moves it.
const planMatrixSHA256 = "3a7fe0890f5da5c04399582fced9395128289fe9534e6fd3c9b5648f765e2111"

// structureDigest writes g's structure to h independently of the artifact
// encoding: the device count and model, then per task in dispatch order its
// device, stream, source operator (sources, by task id), class name and
// descriptor fields, then the parents CSR.
func structureDigest(h hash.Hash, g *Graph, sources []int) {
	m := g.Model
	fmt.Fprintf(h, "%d|%q|%d|%d|%d|%d|%d\n", g.Devices, m.Name, m.Hidden, m.Layers, m.SeqLen, m.Heads, m.Vocab)
	for id := 0; id < g.NumTasks(); id++ {
		t := g.TaskAt(id)
		d := g.descs[g.durIdx[id]]
		fmt.Fprintf(h, "%d|%d|%d|%q|%d|%d|%d|%d|%d|%d|%d\n", t.Device, t.Stream, sources[id], t.Class,
			d.kind, d.op, d.kernel, d.stageParams, d.buckets, d.from, d.to)
	}
	fmt.Fprintln(h, g.parentStart, g.parents)
}

// lowerBoth lowers og's plan at fid along both paths, LowerPlan and Lower over
// a built operator graph, and fails unless they build the same graph.
func lowerBoth(t *testing.T, what string, og *opgraph.Graph, c hw.Cluster, fid Fidelity) *Graph {
	t.Helper()
	g, err := LowerPlan(og.Model, og.Plan, c, fid)
	if err != nil {
		t.Fatalf("%s: LowerPlan: %v", what, err)
	}
	requireSameGraph(t, what+": LowerPlan against Lower", g, Lower(og, nil, fid))
	return g
}

// requireTraceLabels fails unless TraceLabels names each task of g, the
// graph of og's plan at fid, by the label of its source operator in og
// (sources, by task id, from referenceLower), qualified by the bound kernel
// name for a kernel task.
func requireTraceLabels(t *testing.T, what string, og *opgraph.Graph, c hw.Cluster, fid Fidelity, prof *profiler.Profiler, g *Graph, sources []int) {
	t.Helper()
	labels, err := TraceLabels(og.Model, og.Plan, c, fid, prof)
	if err != nil {
		t.Fatalf("%s: TraceLabels: %v", what, err)
	}
	if len(labels) != len(sources) {
		t.Fatalf("%s: %d trace labels for %d tasks", what, len(labels), len(sources))
	}
	for id, src := range sources {
		want := og.Label(src)
		if d := &g.descs[g.durIdx[id]]; d.kind == descKernel {
			want += "/" + prof.Profile(d.operatorFor(g, og.Plan))[d.kernel].Kernel.Name
		}
		if labels[id] != want {
			t.Fatalf("%s: task %d is labeled %q, want %q", what, id, labels[id], want)
		}
	}
}

// TestLowerMatchesReference pins LowerPlan, the path core lowers through,
// to Lower over the built operator graph and to referenceLower at both
// fidelities across schedules, interleaving, uneven layer splits,
// recomputation and gradient buckets, checks TraceLabels against
// referenceLower's source operators, and pins the lowered structure twice:
// its artifact bytes to loweredStructureSHA256, and the graphs themselves
// to planMatrixSHA256.
func TestLowerMatchesReference(t *testing.T) {
	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	sum, matrix := sha256.New(), sha256.New()
	for _, plan := range artifactPlans() {
		og, err := opgraph.Build(tinyModel(), plan, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, fid := range []Fidelity{TaskLevel, OperatorLevel} {
			what := fmt.Sprintf("plan %s at %s level", plan, fidName[fid])
			g := lowerBoth(t, what, og, c, fid)
			ref, sources := referenceLower(og, prof, fid)
			requireSameGraph(t, what, g, ref)
			requireTraceLabels(t, what, og, c, fid, prof, g, sources)
			data, err := g.MarshalArtifact()
			if err != nil {
				t.Fatalf("%s: marshal: %v", what, err)
			}
			sum.Write(data)
			structureDigest(matrix, g, sources)
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != loweredStructureSHA256 {
		t.Fatalf("lowered structure SHA-256 = %s, want %s", got, loweredStructureSHA256)
	}
	if got := hex.EncodeToString(matrix.Sum(nil)); got != planMatrixSHA256 {
		t.Fatalf("plan matrix structure SHA-256 = %s, want %s", got, planMatrixSHA256)
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
// and checks that LowerPlan and Lower both build referenceLower's graph
// within the task bound opgraph.Validate enforces, that TraceLabels names
// its tasks by referenceLower's source operators, and that the graph
// survives an artifact round trip unchanged and replays bit-identically
// after it. The inputs pick t, d, p, the micro-batch size and count, the
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
			g := lowerBoth(t, what, og, c, fid)
			if g.NumTasks() > nodeBound*maxKernels {
				t.Fatalf("%s: %d tasks, over the bound %d", what, g.NumTasks(), nodeBound*maxKernels)
			}
			ref, sources := referenceLower(og, prof, fid)
			requireSameGraph(t, what, g, ref)
			requireTraceLabels(t, what, og, c, fid, prof, g, sources)

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
