package taskgraph

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"vtrain/internal/comm"
	"vtrain/internal/gpu"
	"vtrain/internal/hw"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

// artifactPlans exercises every structural feature the encoding must carry:
// schedules, interleaving, gradient buckets, recomputation.
func artifactPlans() []parallel.Plan {
	return []parallel.Plan{
		{Tensor: 1, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 2},
		{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2},
		{Tensor: 1, Data: 2, Pipeline: 4, MicroBatch: 1, GlobalBatch: 8, Schedule: parallel.GPipe},
		{Tensor: 2, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, Recompute: true},
		{Tensor: 1, Data: 1, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, VirtualStages: 2},
	}
}

// TestArtifactRoundTrip pins the on-disk encoding to the in-memory graph:
// marshal → unmarshal must reproduce the freshly lowered graph exactly
// (reflect.DeepEqual over every slab), at both fidelities, and the decoded
// graph must bind and replay identically.
func TestArtifactRoundTrip(t *testing.T) {
	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	cm := comm.NewModel(c)
	for _, fid := range []Fidelity{TaskLevel, OperatorLevel} {
		for _, plan := range artifactPlans() {
			og, err := opgraph.Build(tinyModel(), plan, c)
			if err != nil {
				t.Fatal(err)
			}
			g := Lower(og, prof, fid)
			data, err := g.MarshalArtifact()
			if err != nil {
				t.Fatalf("fid %v plan %s: marshal: %v", fid, plan, err)
			}
			again, err := g.MarshalArtifact()
			if err != nil || !bytes.Equal(data, again) {
				t.Fatalf("fid %v plan %s: marshal is not deterministic", fid, plan)
			}
			got, err := UnmarshalArtifact(data)
			if err != nil {
				t.Fatalf("fid %v plan %s: unmarshal: %v", fid, plan, err)
			}
			if !reflect.DeepEqual(got, g) {
				t.Fatalf("fid %v plan %s: decoded graph differs from lowered graph", fid, plan)
			}

			ref, err := g.Replay(g.Bind(prof, cm, plan, c), nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := got.Replay(got.Bind(prof, cm, plan, c), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("fid %v plan %s: replay of decoded graph = %+v, want %+v", fid, plan, res, ref)
			}
		}
	}
}

// TestArtifactContentionEquivalence locks the contention fidelity level
// over the persistent artifact tier: a disk-decoded structural graph must
// produce a BindContention table and a contended replay byte-identical to
// the freshly lowered graph's. The table comparison covers every bound
// route (per device, and per pipeline-transfer descriptor, resolved from
// the decoded descriptors) and the class count — so any descriptor
// field the codec failed to round-trip would surface here as a diverging
// table or a diverging report. Traces of both graphs, named by the same
// trace labels, must match span for span.
func TestArtifactContentionEquivalence(t *testing.T) {
	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	cm := comm.NewModel(c)
	for _, fid := range []Fidelity{TaskLevel, OperatorLevel} {
		for _, plan := range artifactPlans() {
			og, err := opgraph.Build(tinyModel(), plan, c)
			if err != nil {
				t.Fatal(err)
			}
			g := Lower(og, prof, fid)
			data, err := g.MarshalArtifact()
			if err != nil {
				t.Fatalf("fid %v plan %s: marshal: %v", fid, plan, err)
			}
			dec, err := UnmarshalArtifact(data)
			if err != nil {
				t.Fatalf("fid %v plan %s: unmarshal: %v", fid, plan, err)
			}

			tbl := g.Bind(prof, cm, plan, c)
			dtbl := dec.Bind(prof, cm, plan, c)
			ct := g.BindContention(plan, c, tbl)
			dct := dec.BindContention(plan, c, dtbl)
			if !reflect.DeepEqual(ct, dct) {
				t.Fatalf("fid %v plan %s: decoded contention table differs from fresh:\n%+v\nvs\n%+v",
					fid, plan, dct, ct)
			}

			labels, err := TraceLabels(tinyModel(), plan, c, fid, prof)
			if err != nil {
				t.Fatal(err)
			}
			ref, refSpans, err := g.ReplayTrace(tbl, ct, labels)
			if err != nil {
				t.Fatal(err)
			}
			got, gotSpans, err := dec.ReplayTrace(dtbl, dct, labels)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("fid %v plan %s: contended replay of decoded graph = %+v, want %+v",
					fid, plan, got, ref)
			}
			if !reflect.DeepEqual(gotSpans, refSpans) {
				t.Fatalf("fid %v plan %s: trace of decoded graph differs from fresh", fid, plan)
			}
		}
	}
}

// TestUnmarshalRejectsUnbindable: payloads that are well-formed and
// in-range by every count, but that Bind or Replay could not run — a kernel
// index past its operator's decomposition, a model dimension of zero, a
// parent that does not precede its task (a cycle or an out-of-order edge),
// parent offsets out of order, a source past the task count, a comm task
// off the stream Lower issues it on — must be rejected at decode, so the
// artifact tier treats them as a disk miss instead of handing a sweep a
// graph that panics or hangs.
func TestUnmarshalRejectsUnbindable(t *testing.T) {
	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	og, err := opgraph.Build(tinyModel(), artifactPlans()[1], c)
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(g *Graph){
		"kernel past its operator": func(g *Graph) {
			for i := range g.descs {
				if d := &g.descs[i]; d.kind == descKernel {
					d.kernel = int32(profiler.KernelCount(d.op))
					return
				}
			}
			t.Fatal("no kernel descriptor to corrupt")
		},
		"unknown operator": func(g *Graph) { g.descs[0].kind, g.descs[0].op = descOperator, profiler.WeightUpdate+1 },
		"zero heads":       func(g *Graph) { g.Model.Heads = 0 },
		"zero hidden":      func(g *Graph) { g.Model.Hidden = 0 },
		"negative vocab":   func(g *Graph) { g.Model.Vocab = -1 },
		"parent not before its task: self-edge": func(g *Graph) {
			i := firstWithParent(t, g)
			g.parents[g.parentStart[i]] = int32(i)
		},
		"parent not before its task: forward edge": func(g *Graph) {
			i := firstWithParent(t, g)
			g.parents[g.parentStart[i]] = int32(i + 1)
		},
		"parent not before its task: last of several": func(g *Graph) {
			for i := 0; i < g.NumTasks(); i++ {
				if hi := g.parentStart[i+1]; hi-g.parentStart[i] > 1 {
					g.parents[hi-1] = int32(i)
					return
				}
			}
			t.Fatal("no task with several parents to corrupt")
		},
		"parent starts out of order": func(g *Graph) {
			i := firstWithParent(t, g) + 1
			g.parentStart[i+1] = g.parentStart[i] - 1
		},
		"transfer off its receiver's comm stream": misplaceTransfer,
		"collective on a compute stream":          misplaceCollective,
	} {
		g := Lower(og, prof, TaskLevel)
		corrupt(g)
		data, err := g.MarshalArtifact()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		if _, err := UnmarshalArtifact(data); !errors.Is(err, ErrBadArtifact) {
			t.Errorf("%s: decode err = %v, want ErrBadArtifact", name, err)
		}
	}
}

// misplaceTransfer moves g's first pipeline transfer onto its sending
// stage's comm stream; Lower issues it on the receiving stage's.
func misplaceTransfer(g *Graph) {
	for i, di := range g.durIdx {
		if d := g.descs[di]; d.kind == descP2P {
			g.slotOf[i] = 2*d.from + int32(CommStream)
			return
		}
	}
	panic("no transfer to misplace")
}

// misplaceCollective moves g's first data-parallel All-Reduce onto its
// device's compute stream.
func misplaceCollective(g *Graph) {
	for i, di := range g.durIdx {
		if g.descs[di].kind == descAllReduceDP {
			g.slotOf[i] = g.slotOf[i]&^1 | int32(ComputeStream)
			return
		}
	}
	panic("no collective to misplace")
}

// requireCommPlacement fails unless every comm task of g sits where Lower
// issues it: collectives on a comm stream, and each pipeline transfer on
// its receiving stage's — the placement BindContention's private-class
// rule relies on.
func requireCommPlacement(t *testing.T, g *Graph) {
	t.Helper()
	for id := 0; id < g.NumTasks(); id++ {
		task, d := g.TaskAt(id), g.descs[g.durIdx[id]]
		switch {
		case d.kind == descP2P && (task.Device != int(d.to) || task.Stream != CommStream),
			(d.kind == descAllReduceTP || d.kind == descAllReduceDP) && task.Stream != CommStream:
			t.Fatalf("task %d (%s) on device %d's stream %d", id, task.Class, task.Device, task.Stream)
		}
	}
}

// firstWithParent returns the first task of g that has a parent.
func firstWithParent(t *testing.T, g *Graph) int {
	for i := 0; i < g.NumTasks(); i++ {
		if g.parentStart[i+1] > g.parentStart[i] {
			return i
		}
	}
	t.Fatal("no task with a parent to corrupt")
	return 0
}

// FuzzUnmarshalArtifact throws mutated encodings at the decoder: whatever
// the bytes, it must return a graph or ErrBadArtifact — never panic and
// never hang on an attacker-chosen allocation size. Every graph it accepts
// must place its comm tasks where Lower does, then bind (with a real
// profiler and communication model), replay ideally and under contention,
// and trace without panicking; errors are fine. Seeded with real encodings
// so mutations explore the format's interior, not just the header, and
// with two that misplace a comm task.
func FuzzUnmarshalArtifact(f *testing.F) {
	c := hw.PaperCluster(8)
	cm := comm.NewModel(c)
	plans := artifactPlans()[:2]
	var ogs []*opgraph.Graph
	var labels [][]string
	for _, plan := range plans {
		og, err := opgraph.Build(tinyModel(), plan, c)
		if err != nil {
			f.Fatal(err)
		}
		ogs = append(ogs, og)
		l, err := TraceLabels(tinyModel(), plan, c, TaskLevel, profiler.New(gpu.NewDevice(c.Node.GPU)))
		if err != nil {
			f.Fatal(err)
		}
		labels = append(labels, l)
		for _, fid := range []Fidelity{TaskLevel, OperatorLevel} {
			data, err := Lower(og, profiler.New(gpu.NewDevice(c.Node.GPU)), fid).MarshalArtifact()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	for _, misplace := range []func(*Graph){misplaceTransfer, misplaceCollective} {
		g := Lower(ogs[1], nil, OperatorLevel)
		misplace(g)
		data, err := g.MarshalArtifact()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := UnmarshalArtifact(data)
		if err != nil {
			if !errors.Is(err, ErrBadArtifact) {
				t.Fatalf("decode error %v is not ErrBadArtifact", err)
			}
			return
		}
		if g == nil {
			t.Fatal("nil graph without error")
		}
		// A fresh profiler per input: decoded model dimensions are
		// arbitrary, and a shared one would cache every shape tried.
		requireCommPlacement(t, g)
		prof := profiler.New(gpu.NewDevice(c.Node.GPU))
		for i, plan := range plans {
			tbl := g.Bind(prof, cm, plan, c)
			g.Replay(tbl, nil)
			g.Replay(tbl, g.BindContention(plan, c, tbl))
			g.ReplayTrace(tbl, nil, labels[i])
		}
	})
}
