package taskgraph

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"vtrain/internal/gpu"
	"vtrain/internal/hw"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

func traceGraph(t *testing.T) (boundGraph, Result, []Span) {
	t.Helper()
	plan := parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2}
	g := lower(t, plan, TaskLevel)
	res, spans, err := g.g.ReplayTrace(g.tbl, nil, g.labels)
	if err != nil {
		t.Fatal(err)
	}
	return g, res, spans
}

func TestSimulateTraceMatchesSimulate(t *testing.T) {
	g, res, spans := traceGraph(t)
	plain, err := g.g.Replay(g.tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.IterTime != plain.IterTime || res.Executed != plain.Executed {
		t.Fatal("trace capture changed the simulation result")
	}
	if len(spans) != res.Executed {
		t.Fatalf("spans = %d, executed = %d", len(spans), res.Executed)
	}
}

// TestReplayTraceLabelsFromOperatorGraph pins where span labels come from:
// ReplayTrace names span id by the labels it is given, and TraceLabels
// names each task by its source operator's label, plus the bound kernel
// name at task granularity. Nil labels name every span "" and leave the
// timeline as is; a label slice of another graph's length is an error,
// not a panic.
func TestReplayTraceLabelsFromOperatorGraph(t *testing.T) {
	plan := parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2}
	small := lower(t, parallel.Plan{Tensor: 1, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 2}, OperatorLevel)
	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	for _, fid := range []Fidelity{TaskLevel, OperatorLevel} {
		g := lower(t, plan, fid)
		res, spans, err := g.g.ReplayTrace(g.tbl, nil, g.labels)
		if err != nil {
			t.Fatal(err)
		}
		labels := map[string]bool{}
		for i, sp := range spans {
			if sp.Label != g.labels[i] {
				t.Fatalf("fidelity %v: span %d labeled %q, want %q", fid, i, sp.Label, g.labels[i])
			}
			labels[sp.Label] = true
		}
		for id := 0; id < g.og.NumNodes(); id++ {
			base := g.og.Label(id)
			// Multi-kernel operators lower to one task per kernel at task
			// granularity; the first carries kernel 0's name.
			if n := g.og.Node(id); fid == TaskLevel && n.Kind == opgraph.Compute && profiler.KernelCount(n.Op) > 1 {
				base += "/" + prof.Profile((&durDesc{op: n.Op}).operatorFor(g.g, plan))[0].Kernel.Name
			}
			if !labels[base] {
				t.Fatalf("fidelity %v: no span labeled %q for operator %d", fid, base, id)
			}
		}

		bare, bareSpans, err := g.g.ReplayTrace(g.tbl, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, res) || len(bareSpans) != len(spans) {
			t.Fatalf("fidelity %v: nil labels changed the replay", fid)
		}
		for i, sp := range bareSpans {
			if sp.Label != "" {
				t.Fatalf("fidelity %v: span %d labeled %q without labels", fid, i, sp.Label)
			}
			sp.Label = spans[i].Label
			if sp != spans[i] {
				t.Fatalf("fidelity %v: span %d = %+v without labels, %+v with", fid, i, sp, spans[i])
			}
		}

		if len(small.labels) >= g.g.NumTasks() {
			t.Fatal("the small graph must have fewer tasks")
		}
		if _, _, err := g.g.ReplayTrace(g.tbl, nil, small.labels); err == nil {
			t.Fatalf("fidelity %v: %d labels named a %d-task graph", fid, len(small.labels), g.g.NumTasks())
		}
	}
}

func TestSpansWellFormed(t *testing.T) {
	_, res, spans := traceGraph(t)
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %q ends before it starts", s.Label)
		}
		if s.End > res.IterTime+1e-12 {
			t.Fatalf("span %q ends after the iteration", s.Label)
		}
	}
}

func TestSpansNonOverlappingPerResource(t *testing.T) {
	// Two tasks on the same (device, stream) must never overlap — the
	// resource exclusivity at the heart of Algorithm 1.
	_, _, spans := traceGraph(t)
	byRes := map[[2]int][]Span{}
	for _, s := range spans {
		k := [2]int{s.Device, int(s.Stream)}
		byRes[k] = append(byRes[k], s)
	}
	for k, ss := range byRes {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		for i := 1; i < len(ss); i++ {
			if ss[i].Start < ss[i-1].End-1e-12 {
				t.Fatalf("resource %v: %q overlaps %q", k, ss[i].Label, ss[i-1].Label)
			}
		}
	}
}

func TestClassSecondsAccounted(t *testing.T) {
	_, res, _ := traceGraph(t)
	for _, class := range []string{"FwdMHA", "BwdFFN", "WeightUpdate", "AllReduceTP", "AllReduceDP", "P2P"} {
		if res.ClassSeconds[class] <= 0 {
			t.Errorf("class %q has no attributed time", class)
		}
	}
	// Class totals must equal total busy time.
	var classTotal, busyTotal float64
	for _, v := range res.ClassSeconds {
		classTotal += v
	}
	for i := range res.ComputeBusy {
		busyTotal += res.ComputeBusy[i] + res.CommBusy[i]
	}
	if diff := classTotal - busyTotal; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("class seconds %.6g != busy seconds %.6g", classTotal, busyTotal)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	_, _, spans := traceGraph(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
			PID   int     `json:"pid"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(spans) {
		t.Fatalf("events = %d, want %d", len(doc.TraceEvents), len(spans))
	}
	for _, e := range doc.TraceEvents {
		if e.Phase != "X" || e.Dur < 0 || e.TS < 0 {
			t.Fatalf("malformed event %+v", e)
		}
		if e.TID != 0 && e.TID != 1 {
			t.Fatalf("unexpected thread id %d", e.TID)
		}
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("empty trace is not valid JSON")
	}
}
