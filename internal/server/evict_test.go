package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// operatorBody is simulateBody at operator fidelity: same cluster, a
// different pool key.
const operatorBody = `{
  "model": {"preset": "megatron-3.6b"},
  "cluster": {"nodes": 1},
  "plan": {"tensor": 2, "data": 2, "pipeline": 2, "micro_batch": 1, "global_batch": 64},
  "total_tokens": 20000000000,
  "fidelity": "operator"
}`

// twoNodeBody is simulateBody on a two-node cluster: a third pool key.
const twoNodeBody = `{
  "model": {"preset": "megatron-3.6b"},
  "cluster": {"nodes": 2},
  "plan": {"tensor": 2, "data": 2, "pipeline": 2, "micro_batch": 1, "global_batch": 64},
  "total_tokens": 20000000000
}`

// newPooledEngine is NewEngine with its sibling pool bounded to n.
func newPooledEngine(n int, opts ...EngineOption) *Engine {
	e := NewEngine(opts...)
	e.poolSize = n
	return e
}

func poolLen(e *Engine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sims)
}

// TestEnginePoolFIFOEviction drives a 2-entry pool through three distinct
// (cluster, fidelity) keys and back: the oldest entry is evicted, the pool
// never exceeds its bound, and a re-warmed evicted configuration answers
// with byte-identical response bodies — eviction may cost time, never
// content.
func TestEnginePoolFIFOEviction(t *testing.T) {
	eng := newPooledEngine(2)
	srv := New(Config{Engine: eng})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	respA := mustPostSimulate(t, ts, simulateBody) // key A: (1 node, task)
	mustPostSimulate(t, ts, operatorBody)          // key B: (1 node, operator)
	if n := poolLen(eng); n != 2 {
		t.Fatalf("pool holds %d simulators after two keys, want 2", n)
	}
	respC := mustPostSimulate(t, ts, twoNodeBody) // key C evicts A
	if n := poolLen(eng); n != 2 {
		t.Fatalf("pool holds %d simulators after eviction, want 2", n)
	}
	if got := mustPostSimulate(t, ts, simulateBody); got != respA { // A re-warms (evicts B)
		t.Error("re-warmed response for evicted key A differs from its original bytes")
	}
	if n := poolLen(eng); n != 2 {
		t.Fatalf("pool holds %d simulators after re-warm, want 2", n)
	}
	if got := mustPostSimulate(t, ts, twoNodeBody); got != respC { // C still pooled: warm hit
		t.Error("pooled response for key C drifted")
	}
}

// TestEnginePoolEvictionRewarmsFromDisk is the eviction test with the
// artifact tier on. A single-entry pool thrashes, but an evicted sibling's
// lowered graph stays in its fidelity root's structural cache, so the
// re-warm is byte-identical and costs neither a lowering nor a disk load,
// and every counter stays monotone. A second engine on the same directory
// — a restarted server — answers from disk without lowering.
func TestEnginePoolEvictionRewarmsFromDisk(t *testing.T) {
	dir := t.TempDir()
	eng := newPooledEngine(1, WithArtifactDir(dir))
	srv := New(Config{Engine: eng})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	respA := mustPostSimulate(t, ts, simulateBody)
	if st := eng.CacheStats(); st.DiskWrites == 0 {
		t.Fatalf("cold request persisted nothing: %+v", st)
	}
	mustPostSimulate(t, ts, operatorBody) // evicts A's sibling
	before := eng.CacheStats()
	m1 := scrape(t, ts)

	if got := mustPostSimulate(t, ts, simulateBody); got != respA {
		t.Error("re-warmed response differs from the original bytes")
	}
	if n := poolLen(eng); n != 1 {
		t.Fatalf("pool holds %d simulators, want 1", n)
	}
	after := eng.CacheStats()
	if after.Lowerings != before.Lowerings || after.DiskHits != before.DiskHits || after.DiskMisses != before.DiskMisses {
		t.Errorf("re-warm after eviction lowered or loaded: %+v -> %+v", before, after)
	}

	mustPostSimulate(t, ts, operatorBody) // evict + re-warm once more
	m2 := scrape(t, ts)
	for _, name := range []string{
		"vtrain_cache_report_hits_total",
		"vtrain_cache_report_misses_total",
		"vtrain_cache_struct_hits_total",
		"vtrain_cache_struct_misses_total",
		"vtrain_lowerings_total",
		"vtrain_cache_disk_hits_total",
		"vtrain_cache_disk_misses_total",
		"vtrain_cache_disk_writes_total",
	} {
		if b, a := metricValue(t, m1, name), metricValue(t, m2, name); a < b {
			t.Errorf("%s fell from %v to %v — counters must be monotone across eviction", name, b, a)
		}
	}

	restarted := NewEngine(WithArtifactDir(dir))
	ts2 := httptest.NewServer(New(Config{Engine: restarted}).Handler())
	defer ts2.Close()
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
// same shape and cluster under a third pool key.
var contendedSimulateBody = strings.Replace(simulateBody, `"total_tokens": 20000000000`,
	`"total_tokens": 20000000000, "contention": true`, 1)

// TestEngineSiblingsShareLowering locks the one-tree-per-fidelity design:
// three pool keys of one plan shape — two clusters, and one cluster with
// contention on — lower the shape once, sequentially and when all three
// arrive concurrently (single-flight across siblings on different
// clusters), and the concurrent answers match the sequential bytes.
func TestEngineSiblingsShareLowering(t *testing.T) {
	bodies := []string{simulateBody, twoNodeBody, contendedSimulateBody}

	_, ts := newTestServer(t, Config{})
	want := make([]string, len(bodies))
	for i, b := range bodies {
		want[i] = mustPostSimulate(t, ts, b)
	}
	if lo := metricValue(t, scrape(t, ts), "vtrain_lowerings_total"); lo != 1 {
		t.Errorf("sequential: %v lowerings for one shape on three pool keys, want 1", lo)
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
		t.Errorf("concurrent: %v lowerings for one shape on three pool keys, want 1", lo)
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
