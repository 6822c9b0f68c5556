package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// compareGolden pins got against testdata/name, regenerable with -update —
// the same convention as the CLI golden tests.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/server -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// newTestServer builds a fresh server (fresh engine, so cache counters in
// response summaries are deterministic) behind an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

// simulateBody is a complete descfile description: the same JSON a
// `vtrain -f` run accepts is, unchanged, a /v1/simulate body.
const simulateBody = `{
  "model": {"preset": "megatron-3.6b"},
  "cluster": {"nodes": 1},
  "plan": {"tensor": 2, "data": 2, "pipeline": 2, "micro_batch": 1, "global_batch": 64},
  "total_tokens": 20000000000
}`

// sweepBody constrains every plan axis to a single structural shape (t>1,
// d=1, p=1), so the sweep flushes as one batch and the stream order is
// deterministic — what makes an NDJSON golden possible.
const sweepBody = `{
  "model": {"preset": "megatron-3.6b"},
  "cluster": {"nodes": 1},
  "global_batch": 64,
  "total_tokens": 20000000000,
  "tensor_widths": [2, 4],
  "data_widths": [1],
  "pipeline_depths": [1],
  "micro_batches": [1]
}`

// clusterBody provisions one 8-GPU node; cluster sweeps pin ExactGPUs to
// the whole cluster, so the axes must multiply to 8. A single valid plan
// (t=2,d=4) keeps the stream deterministic — plans of different structural
// shapes batch on concurrent workers, so their relative order is not
// goldenable (the sweep golden covers multi-point ordering within one
// shape).
const clusterBody = `{
  "model": {"preset": "megatron-3.6b"},
  "global_batch": 64,
  "total_tokens": 20000000000,
  "node_counts": [1],
  "offerings": ["a100-sxm-80gb"],
  "tensor_widths": [2],
  "data_widths": [4],
  "pipeline_depths": [1],
  "micro_batches": [1]
}`

// TestGoldenSimulate pins the /v1/simulate success protocol: the response
// body is the exact `vtrain -json` report (the CLI equivalence lock lives
// in cmd/vtrain's tests).
func TestGoldenSimulate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, hdr := post(t, ts, "/v1/simulate", simulateBody)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	compareGolden(t, "simulate.golden", []byte(body))
}

// TestGoldenSweepStream pins the /v1/sweep NDJSON protocol: one point line
// per plan, then a summary line carrying the engine's cache counters.
func TestGoldenSweepStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, hdr := post(t, ts, "/v1/sweep", sweepBody)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	compareGolden(t, "sweep.golden", []byte(body))
}

// TestGoldenClusterDSEStream pins the /v1/clusterdse NDJSON protocol,
// including the per-point resilience block (failure pricing defaults on).
func TestGoldenClusterDSEStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := post(t, ts, "/v1/clusterdse", clusterBody)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body: %s", code, body)
	}
	compareGolden(t, "clusterdse.golden", []byte(body))
}

// TestGoldenBadDescfile pins the malformed-request protocol: a resolvable
// JSON body with an invalid descfile section must map to a structured 400,
// not a 500 or a stream.
func TestGoldenBadDescfile(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bad := strings.Replace(simulateBody, `"nodes": 1`, `"nodes": 0`, 1)
	code, body, hdr := post(t, ts, "/v1/simulate", bad)
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	compareGolden(t, "bad-descfile.golden", []byte(body))
}

// TestGoldenMalformedJSON pins the undecodable-body error shape.
func TestGoldenMalformedJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := post(t, ts, "/v1/simulate", `{"model": `)
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body: %s", code, body)
	}
	compareGolden(t, "malformed-json.golden", []byte(body))
}

// TestGoldenEmptySweepSpace pins the no-valid-plan error: an impossible
// plan axis must 400 with the dse.ErrNoValidPlan sentinel before any
// stream starts.
func TestGoldenEmptySweepSpace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	impossible := strings.Replace(sweepBody, `"tensor_widths": [2, 4]`, `"tensor_widths": [5]`, 1)
	code, body, _ := post(t, ts, "/v1/sweep", impossible)
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body: %s", code, body)
	}
	compareGolden(t, "empty-space.golden", []byte(body))
}

// TestClusterDSENoFeasible400 locks the lazy stream commit: a cluster
// sweep whose plan axes fit no candidate fails before the first point, so
// the client sees a real 400, not an in-band error inside a 200 stream.
func TestClusterDSENoFeasible400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	impossible := strings.Replace(clusterBody, `"tensor_widths": [2]`, `"tensor_widths": [5]`, 1)
	code, body, _ := post(t, ts, "/v1/clusterdse", impossible)
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body: %s", code, body)
	}
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatalf("error body is not structured JSON: %v\n%s", err, body)
	}
	if !strings.Contains(eb.Error.Message, "no feasible") {
		t.Errorf("error message = %q, want the no-feasible explanation", eb.Error.Message)
	}
}

// TestClusterDSEGPUCountOverflow400: a node count whose GPU count wraps an
// int (2^61+1 nodes of 8 GPUs would count 8) is a structured 400 before
// any streaming, not a sweep that ranks a phantom cluster.
func TestClusterDSEGPUCountOverflow400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wrapped := strings.Replace(clusterBody, `"node_counts": [1]`, `"node_counts": [1, 2305843009213693953]`, 1)
	code, body, _ := post(t, ts, "/v1/clusterdse", wrapped)
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body: %s", code, body)
	}
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatalf("error body is not structured JSON: %v\n%s", err, body)
	}
	if !strings.Contains(eb.Error.Message, "overflow") {
		t.Errorf("error message = %q, want the GPU-count overflow explanation", eb.Error.Message)
	}
}

// TestOverflowingEconomics400 locks the finite-economics contract: a price
// so large that the projected cost is +Inf cannot be encoded as JSON, so
// /v1/simulate must answer a structured 400 instead of a 200 with an empty
// body, with failure pricing on and off.
func TestOverflowingEconomics400(t *testing.T) {
	desc, err := os.ReadFile(filepath.Join("..", "..", "examples", "descfiles", "megatron-18b-h100-resilience.json"))
	if err != nil {
		t.Fatal(err)
	}
	resilient := strings.Replace(string(desc), `"cluster":{`, `"cluster":{"dollars_per_gpu_hour": 1e308,`, 1)
	ideal := strings.Replace(resilient, `"resilience": {`, `"resilience": {"disabled": true, `, 1)
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{"resilient": resilient, "ideal": ideal} {
		code, resp, _ := post(t, ts, "/v1/simulate", body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400; body: %q", name, code, resp)
		}
		var eb errorBody
		if err := json.Unmarshal([]byte(resp), &eb); err != nil {
			t.Fatalf("%s: error body is not structured JSON: %v\n%s", name, err, resp)
		}
		if !strings.Contains(eb.Error.Message, "overflow") {
			t.Errorf("%s: error message = %q, want the overflow explanation", name, eb.Error.Message)
		}
	}
}

// overflowingSweepBody prices every sweep point at +Inf dollars.
const overflowingSweepBody = `{"model":{"preset":"megatron-3.6b"},"cluster":{"nodes":1,"dollars_per_gpu_hour":1e308},"global_batch":64,"total_tokens":18000000000000000000,"tensor_widths":[2],"data_widths":[1],"pipeline_depths":[1],"micro_batches":[1]}`

// TestSweepOverflowingEconomics400 extends the finite-economics contract to
// /v1/sweep: a sweep whose first point's cost overflows answers the same
// structured 400 as /v1/simulate, not a 200 whose only line is an error.
func TestSweepOverflowingEconomics400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, resp, _ := post(t, ts, "/v1/sweep", overflowingSweepBody)
	var eb errorBody
	if code != http.StatusBadRequest || json.Unmarshal([]byte(resp), &eb) != nil || eb.Error.Status != code ||
		!strings.Contains(eb.Error.Message, "overflow") {
		t.Errorf("status %d, body %q; want a structured 400 explaining the overflow", code, resp)
	}
}

// TestSweepStopsAfterOverflow: a sweep whose first emitted point's
// economics overflow stops simulating once it has failed. After its 400,
// the engine has simulated fewer plans than the space holds, counted
// against the same sweep at a finite price on a fresh server. Two workers
// bound the batches in flight when the first point fails.
func TestSweepStopsAfterOverflow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const body = `{"model":{"preset":"megatron-3.6b"},"cluster":{"nodes":2%s},"global_batch":256%s}`
	srv, ts := newTestServer(t, Config{})
	code, resp, _ := post(t, ts, "/v1/sweep", fmt.Sprintf(body, `,"dollars_per_gpu_hour":1e308`, `,"total_tokens":18000000000000000000`))
	if code != http.StatusBadRequest || !strings.Contains(resp, "overflow") {
		t.Fatalf("status %d, body %q; want a structured 400 explaining the overflow", code, resp)
	}
	misses := srv.Engine().CacheStats().ReportMisses

	_, ts = newTestServer(t, Config{})
	code, resp, _ = post(t, ts, "/v1/sweep", fmt.Sprintf(body, "", ""))
	lines := strings.Split(strings.TrimSpace(resp), "\n")
	var last streamLine
	if code != http.StatusOK || json.Unmarshal([]byte(lines[len(lines)-1]), &last) != nil || last.Summary == nil {
		t.Fatalf("finite sweep: status %d, last line %q", code, lines[len(lines)-1])
	}
	if points := last.Summary.Points; misses >= uint64(points) {
		t.Errorf("the failed sweep simulated %d plans of the space's %d: it kept going after its 400", misses, points)
	}
}

// TestPlanPastTaskIDLimit400: a plan whose graph could number more tasks
// than int32 holds is a structured 400, not a panic that drops the
// connection.
func TestPlanPastTaskIDLimit400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, resp, _ := post(t, ts, "/v1/simulate", `{"model":{"preset":"megatron-39.1b"},"cluster":{"nodes":1},
		"plan":{"tensor":8,"data":1,"pipeline":1,"micro_batch":1,"global_batch":1099511627776},
		"total_tokens":1000000000}`)
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body: %q", code, resp)
	}
	var eb errorBody
	if err := json.Unmarshal([]byte(resp), &eb); err != nil {
		t.Fatalf("error body is not structured JSON: %v\n%s", err, resp)
	}
	if !strings.Contains(eb.Error.Message, "task id limit") {
		t.Errorf("error message = %q, want the task id limit explanation", eb.Error.Message)
	}
}

// TestUnknownFieldRejected locks DisallowUnknownFields: typos in request
// bodies fail loudly instead of being silently ignored.
func TestUnknownFieldRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := post(t, ts, "/v1/sweep", `{"model": {"preset": "megatron-3.6b"}, "globel_batch": 64}`)
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body: %s", code, body)
	}
	if !strings.Contains(body, "globel_batch") {
		t.Errorf("error does not name the unknown field: %s", body)
	}
}

// TestSweepBackpressure locks the bounded in-flight sweep contract: with a
// single sweep slot taken, the next sweep gets 429 instead of queueing.
func TestSweepBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflightSweeps: 1})
	srv.sweepSem <- struct{}{} // occupy the only slot
	defer func() { <-srv.sweepSem }()
	code, body, _ := post(t, ts, "/v1/sweep", sweepBody)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body: %s", code, body)
	}
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatalf("429 body is not structured JSON: %v\n%s", err, body)
	}
	if eb.Error.Status != http.StatusTooManyRequests {
		t.Errorf("error.status = %d, want 429", eb.Error.Status)
	}
}

// TestHealthz locks liveness: 200 while serving, 503 once draining — load
// balancers must see the flip before the listener closes.
func TestHealthz(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !srv.Draining() {
		t.Fatal("Draining() = false after Shutdown")
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
}

// metricValue extracts a single sample's value from Prometheus text.
func metricValue(t *testing.T, text, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(sample)+1:], "%g", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("sample %q not found in metrics:\n%s", sample, text)
	return 0
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsMonotone locks the /metrics contract: per-endpoint request
// counters and engine cache counters are present and only ever rise.
func TestMetricsMonotone(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, "/v1/simulate", simulateBody)
	m1 := scrape(t, ts)
	c1 := metricValue(t, m1, `vtrain_http_requests_total{endpoint="/v1/simulate",code="200"}`)
	if c1 != 1 {
		t.Errorf("simulate 200 count = %v after one request, want 1", c1)
	}
	misses1 := metricValue(t, m1, "vtrain_cache_report_misses_total")
	if misses1 == 0 {
		t.Error("report misses = 0 after a cold simulate")
	}

	post(t, ts, "/v1/simulate", simulateBody)
	post(t, ts, "/v1/simulate", `{"model": `)
	m2 := scrape(t, ts)
	if c2 := metricValue(t, m2, `vtrain_http_requests_total{endpoint="/v1/simulate",code="200"}`); c2 != c1+1 {
		t.Errorf("simulate 200 count = %v, want %v", c2, c1+1)
	}
	if e := metricValue(t, m2, `vtrain_http_requests_total{endpoint="/v1/simulate",code="400"}`); e != 1 {
		t.Errorf("simulate 400 count = %v, want 1", e)
	}
	if hits := metricValue(t, m2, "vtrain_cache_report_hits_total"); hits == 0 {
		t.Error("report hits = 0 after repeating an identical simulate — the engine's tree is not persisting reports")
	}
	if misses2 := metricValue(t, m2, "vtrain_cache_report_misses_total"); misses2 < misses1 {
		t.Errorf("report misses fell from %v to %v — counters must be monotone", misses1, misses2)
	}
	if n := metricValue(t, m2, `vtrain_http_request_duration_seconds_count{endpoint="/v1/simulate"}`); n != 3 {
		t.Errorf("simulate duration count = %v, want 3", n)
	}
	if n := metricValue(t, m2, `vtrain_http_request_duration_seconds_bucket{endpoint="/v1/simulate",le="+Inf"}`); n != 3 {
		t.Errorf("simulate +Inf bucket = %v, want 3 (histogram must be cumulative)", n)
	}
}

// TestShutdownDrainsInflightSweep locks the graceful-shutdown contract: a
// SIGTERM-triggered Shutdown must let an in-flight streaming sweep finish
// — the client reads a complete stream through the summary line — before
// Serve returns.
func TestShutdownDrainsInflightSweep(t *testing.T) {
	srv := New(Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	// A wide default space (no axis overrides) keeps the stream busy long
	// enough for shutdown to begin mid-flight.
	body := `{
  "model": {"preset": "megatron-3.6b"},
  "cluster": {"nodes": 2},
  "global_batch": 256,
  "total_tokens": 20000000000
}`
	resp, err := http.Post("http://"+l.Addr().String()+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no first stream line: %v", sc.Err())
	}
	lines := []string{sc.Text()}

	// Shutdown mid-stream, as the SIGTERM handler in cmd/vtrain-server
	// does. It must block until the response above completes.
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream broke mid-shutdown: %v", err)
	}
	last := lines[len(lines)-1]
	var line struct {
		Summary *StreamSummary `json:"summary"`
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil || line.Summary == nil {
		t.Fatalf("stream did not drain to a summary line, got %q (err %v)", last, err)
	}
	if line.Summary.Points != len(lines)-1 {
		t.Errorf("summary points = %d, streamed %d", line.Summary.Points, len(lines)-1)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve = %v, want http.ErrServerClosed", err)
	}
}

// contendedBody is simulateBody on two nodes with a plan whose data-parallel
// groups stride across them plus an explicit contention knob — the smallest
// request where link congestion has something to derate.
const contendedBody = `{
  "model": {"preset": "megatron-3.6b"},
  "cluster": {"nodes": 2},
  "plan": {"tensor": 2, "data": 4, "pipeline": 2, "micro_batch": 1, "global_batch": 64},
  "total_tokens": 20000000000,
  "contention": true
}`

// TestSimulateContentionKnob pins the serving-layer contract of the
// contention fidelity level: an explicit "contention": false body is
// byte-identical to omitting the field, "contention": true routes to a
// sibling whose report is comm-monotone against the ideal one, and both
// reports stay cached side by side (the knob is part of the report key,
// not mutable state on a shared engine).
func TestSimulateContentionKnob(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	idealBody := strings.Replace(contendedBody, `"contention": true`, `"contention": false`, 1)
	omittedBody := strings.Replace(contendedBody, `,
  "contention": true`, "", 1)

	code, ideal, _ := post(t, ts, "/v1/simulate", idealBody)
	if code != http.StatusOK {
		t.Fatalf("contention=false: status %d, body %s", code, ideal)
	}
	code, omitted, _ := post(t, ts, "/v1/simulate", omittedBody)
	if code != http.StatusOK {
		t.Fatalf("knob omitted: status %d, body %s", code, omitted)
	}
	if ideal != omitted {
		t.Fatalf("explicit contention=false differs from omitting the knob:\n false: %s\n  none: %s", ideal, omitted)
	}

	code, contended, _ := post(t, ts, "/v1/simulate", contendedBody)
	if code != http.StatusOK {
		t.Fatalf("contention=true: status %d, body %s", code, contended)
	}
	var base, cont SimulateResult
	if err := json.Unmarshal([]byte(ideal), &base); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(contended), &cont); err != nil {
		t.Fatal(err)
	}
	if cont.Tasks != base.Tasks || cont.GPUs != base.GPUs || cont.Plan != base.Plan {
		t.Errorf("contention changed the configuration, not just timing: %+v vs %+v", cont, base)
	}
	if cont.IterTime < base.IterTime {
		t.Errorf("contention lowered iteration time %v -> %v", base.IterTime, cont.IterTime)
	}
	if cont.IterTime == base.IterTime {
		t.Errorf("contention=true priced identically to ideal (%v s) — the knob is not reaching replay", base.IterTime)
	}

	// Both contention levels stay warm side by side: same cluster, same
	// fidelity, two cached reports answering with identical bytes.
	before := srv.Engine().CacheStats()
	for _, pair := range [][2]string{{idealBody, ideal}, {contendedBody, contended}} {
		if code, again, _ := post(t, ts, "/v1/simulate", pair[0]); code != http.StatusOK || again != pair[1] {
			t.Errorf("repeat: status %d, bytes match %v", code, again == pair[1])
		}
	}
	if st := srv.Engine().CacheStats(); st.ReportHits != before.ReportHits+2 || st.ReportMisses != before.ReportMisses {
		t.Errorf("repeating both levels: %d report hits, %d misses; want %d, %d (both reports cached)",
			st.ReportHits, st.ReportMisses, before.ReportHits+2, before.ReportMisses)
	}
}

// Bodies whose integer arithmetic used to wrap into a plausible report with
// a 200: a token count past 2^64 (Iterations and TotalDollars read 0), and
// a model whose parameter count wrapped to 0.0B. oversizedBody's tokens fit
// but its memory does not.
const (
	wrappedTokensBody = `{"model":{"preset":"megatron-3.6b"},"cluster":{"nodes":1,"resilience":{"disabled":true}},
		"plan":{"tensor":8,"data":1,"pipeline":1,"micro_batch":1125899906842624,"global_batch":1152921504606846976},
		"total_tokens":1000000000000}`
	wrappedParamsBody = `{"model":{"name":"huge","hidden":4611686018427387904,"layers":1,"seq_len":4611686018427387904,"heads":1,"vocab":1},
		"cluster":{"nodes":1},"plan":{"tensor":1,"data":1,"pipeline":1,"micro_batch":1,"global_batch":1},"total_tokens":1000}`
	oversizedBody = `{"model":{"preset":"megatron-3.6b"},"cluster":{"nodes":1,"resilience":{"disabled":true}},
		"plan":{"tensor":8,"data":1,"pipeline":1,"micro_batch":3711431655,"global_batch":3711431655},
		"total_tokens":1000000000000}`
)

// TestOverflowingRequests400: requests whose arithmetic would wrap are a
// structured 400, and a plan whose memory overflows 64 bits is reported as
// not fitting.
func TestOverflowingRequests400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{"tokens": wrappedTokensBody, "params": wrappedParamsBody} {
		code, resp, _ := post(t, ts, "/v1/simulate", body)
		var eb errorBody
		if code != http.StatusBadRequest || json.Unmarshal([]byte(resp), &eb) != nil || eb.Error.Status != code || eb.Error.Message == "" {
			t.Errorf("%s: status %d, body %q; want a structured 400", name, code, resp)
		}
	}
	code, resp, _ := post(t, ts, "/v1/simulate", oversizedBody)
	var res SimulateResult
	if code != http.StatusOK || json.Unmarshal([]byte(resp), &res) != nil {
		t.Fatalf("oversized plan: status %d, body %q; want a 200 report", code, resp)
	}
	if res.FitsMemory || res.Training == nil || res.Training.Iterations != 1 {
		t.Errorf("oversized plan: fits_memory %v at %g GiB, training %+v; want a non-fitting one-iteration report",
			res.FitsMemory, res.PeakMemoryGiB, res.Training)
	}
}
