package taskgraph

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vtrain/internal/comm"
	"vtrain/internal/hw"
	"vtrain/internal/parallel"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// TestContendedTraceGolden pins the contended timeline end to end: the
// Chrome trace emitted by a contended ReplayTrace must show the *derated*
// comm durations — span End times and Result.CommBusy both stretch by the
// congestion model's factors, never the ideal durations the contention-off
// path would report. The fixture is the monotone ledger graph (four
// node-local gradient All-Reduces serialized on one NVSwitch), whose
// derates are exactly 1 + NVShare*i, so every span duration is pinned in
// closed form before the golden bytes are compared.
func TestContendedTraceGolden(t *testing.T) {
	c := hw.PaperCluster(8)
	const stages = 4
	b := NewBuilder(stages)
	desc := durDesc{kind: descAllReduceDP, stageParams: 1 << 20, buckets: 1}
	for dev := 0; dev < stages; dev++ {
		b.AddTask(dev, CommStream, 0, desc, 0)
	}
	g, _ := mustBuild(t, b)

	plan := parallel.Plan{Tensor: 1, Data: 2, Pipeline: stages, MicroBatch: 1, GlobalBatch: 2 * stages}
	tbl := g.Bind(nil, comm.NewModel(c), plan, c)
	defer tbl.Release()
	ct := g.BindContention(plan, c, tbl)

	ideal, idealSpans, err := g.ReplayTrace(tbl, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, spans, err := g.ReplayTrace(tbl, ct, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Every span must carry the derated duration — base * (1 + NVShare*i)
	// for the i flows already on the NVSwitch — and each device's CommBusy
	// must equal its span's derated duration exactly. The ideal replay is
	// compared alongside to prove the golden pins contended, not ideal,
	// numbers.
	base := tbl.Duration(0)
	cg := comm.NewCongestion(c)
	for i, sp := range spans {
		want := base * cg.Derate(i, 0, 0)
		if got := sp.End - sp.Start; got != want {
			t.Fatalf("span %d: duration %v, want derated %v", i, got, want)
		}
		if i > 0 && sp.End-sp.Start <= idealSpans[i].End-idealSpans[i].Start {
			t.Fatalf("span %d: contended duration %v not above ideal %v",
				i, sp.End-sp.Start, idealSpans[i].End-idealSpans[i].Start)
		}
		if got := res.CommBusy[sp.Device]; got != want {
			t.Fatalf("device %d: CommBusy %v, want derated %v", sp.Device, got, want)
		}
		if i > 0 && res.CommBusy[sp.Device] <= ideal.CommBusy[sp.Device] {
			t.Fatalf("device %d: contended CommBusy %v not above ideal %v",
				sp.Device, res.CommBusy[sp.Device], ideal.CommBusy[sp.Device])
		}
	}

	var out bytes.Buffer
	if err := WriteChromeTrace(&out, spans); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "contended_trace.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("contended Chrome trace diverges from golden %s:\ngot:\n%s\nwant:\n%s",
			path, out.Bytes(), want)
	}
}
