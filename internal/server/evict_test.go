package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vtrain/internal/core"
)

// operatorBody is simulateBody at operator fidelity: same cluster, a
// different sibling setting.
const operatorBody = `{
  "model": {"preset": "megatron-3.6b"},
  "cluster": {"nodes": 1},
  "plan": {"tensor": 2, "data": 2, "pipeline": 2, "micro_batch": 1, "global_batch": 64},
  "total_tokens": 20000000000,
  "fidelity": "operator"
}`

// twoNodeBody is simulateBody on a two-node cluster.
const twoNodeBody = `{
  "model": {"preset": "megatron-3.6b"},
  "cluster": {"nodes": 2},
  "plan": {"tensor": 2, "data": 2, "pipeline": 2, "micro_batch": 1, "global_batch": 64},
  "total_tokens": 20000000000
}`

// TestEngineReportCacheEvictsEngineWide: the root's report cache bound is
// the whole engine's. With room for two reports, simulates on three
// clusters evict the first cluster's report — the third stays resident —
// and the evicted configuration re-simulates to byte-identical bytes:
// eviction may cost time, never content.
func TestEngineReportCacheEvictsEngineWide(t *testing.T) {
	eng := NewEngine(WithSimulatorOptions(core.WithCacheSize(2)))
	_, ts := newTestServer(t, Config{Engine: eng})
	fourNodeBody := strings.Replace(twoNodeBody, `"nodes": 2`, `"nodes": 4`, 1)

	respA := mustPostSimulate(t, ts, simulateBody)
	mustPostSimulate(t, ts, twoNodeBody)
	respC := mustPostSimulate(t, ts, fourNodeBody) // evicts A's report
	if got := mustPostSimulate(t, ts, fourNodeBody); got != respC {
		t.Error("resident report for the third cluster drifted")
	}
	if st := eng.CacheStats(); st.ReportHits != 1 || st.ReportMisses != 3 {
		t.Fatalf("after three clusters and a repeat: %d report hits, %d misses; want 1, 3", st.ReportHits, st.ReportMisses)
	}
	if got := mustPostSimulate(t, ts, simulateBody); got != respA {
		t.Error("re-simulated response for the evicted cluster differs from its original bytes")
	}
	if st := eng.CacheStats(); st.ReportHits != 1 || st.ReportMisses != 4 {
		t.Errorf("the first cluster's report was served after eviction: %d hits, %d misses; want 1, 4", st.ReportHits, st.ReportMisses)
	}
}

// TestEngineRestartRewarmsFromDisk: a second engine on the artifact
// directory a first one filled — a restarted server — answers from disk
// without lowering, with byte-identical bytes.
func TestEngineRestartRewarmsFromDisk(t *testing.T) {
	dir := t.TempDir()
	eng := NewEngine(WithArtifactDir(dir))
	_, ts := newTestServer(t, Config{Engine: eng})
	respA := mustPostSimulate(t, ts, simulateBody)
	if st := eng.CacheStats(); st.DiskWrites == 0 {
		t.Fatalf("cold request persisted nothing: %+v", st)
	}

	restarted := NewEngine(WithArtifactDir(dir))
	_, ts2 := newTestServer(t, Config{Engine: restarted})
	if got := mustPostSimulate(t, ts2, simulateBody); got != respA {
		t.Error("disk-warmed response differs from the original bytes")
	}
	if st := restarted.CacheStats(); st.DiskHits == 0 || st.Lowerings != 0 {
		t.Errorf("restarted engine did not answer from disk: %+v", st)
	}
}

// TestEngineOperatorTablePersists: one request on an engine with an
// artifact dir persists both the graph and the operator table its plan
// bound, so a restarted engine answers it with no disk miss at all, and
// the directory holds one operator table.
func TestEngineOperatorTablePersists(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Engine: NewEngine(WithArtifactDir(dir))})
	want := mustPostSimulate(t, ts, simulateBody)

	restarted := NewEngine(WithArtifactDir(dir))
	_, ts2 := newTestServer(t, Config{Engine: restarted})
	if got := mustPostSimulate(t, ts2, simulateBody); got != want {
		t.Error("disk-warmed response differs from the original bytes")
	}
	if st := restarted.CacheStats(); st.DiskMisses != 0 || st.DiskHits == 0 {
		t.Errorf("restarted engine missed the disk tier: %+v", st)
	}
	ops, err := filepath.Glob(filepath.Join(dir, "ops-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 {
		t.Errorf("artifact dir holds %d operator tables, want 1", len(ops))
	}
}

// contendedSimulateBody is simulateBody with the contention level on: the
// same shape and cluster at another sibling setting.
var contendedSimulateBody = strings.Replace(simulateBody, `"total_tokens": 20000000000`,
	`"total_tokens": 20000000000, "contention": true`, 1)

// TestEngineSiblingsShareLowering locks the one-tree design: three
// siblings of one plan shape — two clusters, and one cluster with
// contention on — lower the shape once, sequentially and when all three arrive
// concurrently (single-flight across siblings on different clusters), and
// the concurrent answers match the sequential bytes.
func TestEngineSiblingsShareLowering(t *testing.T) {
	bodies := []string{simulateBody, twoNodeBody, contendedSimulateBody}

	_, ts := newTestServer(t, Config{})
	want := make([]string, len(bodies))
	for i, b := range bodies {
		want[i] = mustPostSimulate(t, ts, b)
	}
	if lo := metricValue(t, scrape(t, ts), "vtrain_lowerings_total"); lo != 1 {
		t.Errorf("sequential: %v lowerings for one shape on three siblings, want 1", lo)
	}

	_, ts = newTestServer(t, Config{})
	var wg sync.WaitGroup
	for i := range 32 {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(bodies[k]))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != 200 || string(got) != want[k] {
				t.Errorf("concurrent body %d: status %d, err %v, bytes match %v", k, resp.StatusCode, err, string(got) == want[k])
			}
		}(i % len(bodies))
	}
	wg.Wait()
	if lo := metricValue(t, scrape(t, ts), "vtrain_lowerings_total"); lo != 1 {
		t.Errorf("concurrent: %v lowerings for one shape on three siblings, want 1", lo)
	}
}

// mustPostSimulate posts body to /v1/simulate and returns the 200 response.
func mustPostSimulate(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	code, resp, _ := post(t, ts, "/v1/simulate", body)
	if code != 200 {
		t.Fatalf("status %d: %s", code, resp)
	}
	return resp
}

// TestClusterDSEReusesGPUProfiler pins that a GPU's profiler belongs to the
// engine's tree: a repeated /v1/clusterdse request on a GPU other than the
// root's binds through the profiler the first request built, so it reads
// nothing from the artifact store — not even that GPU's operator table.
func TestClusterDSEReusesGPUProfiler(t *testing.T) {
	eng := NewEngine(WithArtifactDir(t.TempDir()))
	_, ts := newTestServer(t, Config{Engine: eng})
	mustPostSimulate(t, ts, operatorBody) // the root runs on the default A100 cluster
	h100 := strings.Replace(clusterBody, "a100-sxm-80gb", "h100-sxm-80gb", 1)
	var hits [2]uint64
	for i := range hits {
		before := eng.CacheStats().DiskHits
		if code, body, _ := post(t, ts, "/v1/clusterdse", h100); code != 200 {
			t.Fatalf("request %d: status %d: %s", i, code, body)
		}
		hits[i] = eng.CacheStats().DiskHits - before
	}
	if hits[1] != 0 {
		t.Errorf("repeated H100 sweep read %d artifacts from disk, want 0 (first sweep read %d)", hits[1], hits[0])
	}
}

// TestClusterDSERepeatAnsweredFromReports: every candidate sibling of a
// /v1/clusterdse request reads and fills the engine's report cache, so a
// repeated request adds one report hit per point and nothing else — no
// report miss, no structural lookup, no lowering — with byte-identical
// point lines.
func TestClusterDSERepeatAnsweredFromReports(t *testing.T) {
	eng := NewEngine()
	_, ts := newTestServer(t, Config{Engine: eng})
	for _, body := range mixedClusterBodies {
		code, first, _ := post(t, ts, "/v1/clusterdse", body)
		if code != 200 {
			t.Fatalf("status %d: %s", code, first)
		}
		before := eng.CacheStats()
		code, again, _ := post(t, ts, "/v1/clusterdse", body)
		if code != 200 {
			t.Fatalf("status %d: %s", code, again)
		}
		after := eng.CacheStats()
		want := canonicalPoints(t, first)
		if canonicalPoints(t, again) != want {
			t.Error("repeated request's points differ from the first request's")
		}
		points := uint64(strings.Count(want, "\n") + 1)
		if after.ReportHits-before.ReportHits != points || after.ReportMisses != before.ReportMisses ||
			after.StructHits != before.StructHits || after.StructMisses != before.StructMisses || after.Lowerings != before.Lowerings {
			t.Errorf("repeat of a %d-point sweep: %+v -> %+v; want %d report hits and no other lookup", points, before, after, points)
		}
	}
}
