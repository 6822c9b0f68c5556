package taskgraph

import (
	"bytes"
	"reflect"
	"strings"
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
// graph must bind, replay, and label identically.
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

			// Labels travel as their own payload; round-trip them too, then
			// graft the decoded table onto the decoded graph so the final
			// DeepEqual covers every slab of both payloads.
			ldata, err := g.MarshalLabels()
			if err != nil {
				t.Fatalf("fid %v plan %s: marshal labels: %v", fid, plan, err)
			}
			lagain, err := g.MarshalLabels()
			if err != nil || !bytes.Equal(ldata, lagain) {
				t.Fatalf("fid %v plan %s: label marshal is not deterministic", fid, plan)
			}
			lt, err := UnmarshalLabels(ldata)
			if err != nil {
				t.Fatalf("fid %v plan %s: unmarshal labels: %v", fid, plan, err)
			}
			if !reflect.DeepEqual(lt, g.labels) {
				t.Fatalf("fid %v plan %s: decoded labels differ from lowered labels", fid, plan)
			}
			if got.labels != nil || got.LabelCount() != g.LabelCount() {
				t.Fatalf("fid %v plan %s: decoded graph label count %d (resident %v), want %d lazy",
					fid, plan, got.LabelCount(), got.labels != nil, g.LabelCount())
			}
			got.labels, got.nLabels = lt, 0
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
			for i := 0; i < g.NumTasks(); i++ {
				if got.TaskLabel(i) != g.TaskLabel(i) {
					t.Fatalf("fid %v plan %s: task %d label %q, want %q",
						fid, plan, i, got.TaskLabel(i), g.TaskLabel(i))
				}
			}
		}
	}
}

// TestArtifactContentionEquivalence locks the contention fidelity level
// over the persistent artifact tier: a disk-decoded structural graph must
// produce a BindContention table and a contended replay byte-identical to
// the freshly lowered graph's. The table comparison covers every
// topology-derived field (kind/span/fromNode/toNode, repNode, classes) —
// any descriptor field the codec failed to round-trip would surface here
// as a diverging classification or a diverging report.
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

			ref, refSpans, err := g.ReplayTrace(tbl, ct)
			if err != nil {
				t.Fatal(err)
			}
			got, gotSpans, err := dec.ReplayTrace(dtbl, dct)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("fid %v plan %s: contended replay of decoded graph = %+v, want %+v",
					fid, plan, got, ref)
			}
			for s := range refSpans {
				if gotSpans[s].Device != refSpans[s].Device ||
					gotSpans[s].Stream != refSpans[s].Stream ||
					gotSpans[s].Start != refSpans[s].Start ||
					gotSpans[s].End != refSpans[s].End {
					t.Fatalf("fid %v plan %s span %d: decoded %+v, fresh %+v",
						fid, plan, s, gotSpans[s], refSpans[s])
				}
			}
			tbl.Release()
			dtbl.Release()
		}
	}
}

// TestLazyLabelSource pins the deferred label path a disk-loaded graph
// takes: TaskLabel must fetch the table through the installed source
// exactly once, labels must match the lowered graph's, and a source that
// fails (returns nil) must degrade to empty labels, never panic.
func TestLazyLabelSource(t *testing.T) {
	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	plan := artifactPlans()[1]
	og, err := opgraph.Build(tinyModel(), plan, c)
	if err != nil {
		t.Fatal(err)
	}
	g := Lower(og, prof, OperatorLevel)
	data, err := g.MarshalArtifact()
	if err != nil {
		t.Fatal(err)
	}
	ldata, err := g.MarshalLabels()
	if err != nil {
		t.Fatal(err)
	}

	got, err := UnmarshalArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	got.SetLabelSource(func() *opgraph.LabelTable {
		calls++
		lt, err := UnmarshalLabels(ldata)
		if err != nil {
			t.Fatal(err)
		}
		return lt
	})
	for i := 0; i < g.NumTasks(); i++ {
		if got.TaskLabel(i) != g.TaskLabel(i) {
			t.Fatalf("task %d label %q, want %q", i, got.TaskLabel(i), g.TaskLabel(i))
		}
	}
	if calls != 1 {
		t.Fatalf("label source ran %d times, want 1", calls)
	}

	broken, err := UnmarshalArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	broken.SetLabelSource(func() *opgraph.LabelTable { return nil })
	if lbl := broken.TaskLabel(0); lbl != "" {
		t.Fatalf("label with failed source = %q, want empty", lbl)
	}
}

// TestMarshalArtifactRejectsHandBuilt: hand-built graphs carry literal
// durations the encoding cannot represent; marshaling one must error rather
// than silently drop information — even when it carries a label table.
func TestMarshalArtifactRejectsHandBuilt(t *testing.T) {
	b := NewBuilder(1)
	b.AddTask(Task{Class: "X"}, 1)
	if _, err := b.Build().MarshalArtifact(); err == nil {
		t.Fatal("marshaling a hand-built graph should fail")
	}

	b = NewBuilder(1)
	b.AddTask(Task{Class: "X"}, 1)
	one := []int32{0}
	b.SetLabels(&opgraph.LabelTable{Kinds: []uint8{0}, Stage: one, Micro: one, Chunk: one, Layer: one, LayerEnd: one, Bucket: one})
	if _, err := b.Build().MarshalArtifact(); err == nil || !strings.Contains(err.Error(), "literal") {
		t.Fatalf("marshaling a labeled hand-built graph: err = %v, want a literal-duration rejection", err)
	}
}

// FuzzUnmarshalArtifact throws mutated encodings at the decoder: whatever
// the bytes, it must return a graph or ErrBadArtifact — never panic and
// never hang on an attacker-chosen allocation size. Seeded with real
// encodings so mutations explore the format's interior, not just the
// header.
func FuzzUnmarshalArtifact(f *testing.F) {
	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	for _, plan := range artifactPlans()[:2] {
		og, err := opgraph.Build(tinyModel(), plan, c)
		if err != nil {
			f.Fatal(err)
		}
		for _, fid := range []Fidelity{TaskLevel, OperatorLevel} {
			data, err := Lower(og, prof, fid).MarshalArtifact()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := UnmarshalArtifact(data)
		if err == nil && g == nil {
			t.Fatal("nil graph without error")
		}
	})
}

// FuzzUnmarshalLabels is FuzzUnmarshalArtifact for the label payload.
func FuzzUnmarshalLabels(f *testing.F) {
	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	og, err := opgraph.Build(tinyModel(), artifactPlans()[1], c)
	if err != nil {
		f.Fatal(err)
	}
	for _, fid := range []Fidelity{TaskLevel, OperatorLevel} {
		data, err := Lower(og, prof, fid).MarshalLabels()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		lt, err := UnmarshalLabels(data)
		if err == nil && lt == nil {
			t.Fatal("nil label table without error")
		}
	})
}
