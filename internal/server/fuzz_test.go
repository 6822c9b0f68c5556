package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"vtrain/internal/model"
)

// fuzzPaths are the POST endpoints FuzzServerRequest drives; the fuzzed
// selector byte picks one modulo their count.
var fuzzPaths = []string{"/v1/simulate", "/v1/sweep", "/v1/clusterdse"}

// fuzzSeeds are the request bodies of the server goldens and of the
// benchmark's server-mixed traffic mix, plus bodies whose integer
// arithmetic once wrapped into a plausible 200 and a sweep whose economics
// once overflowed into an in-band error under a 200.
var fuzzSeeds = []struct {
	path int
	body string
}{
	{0, simulateBody},
	{1, sweepBody},
	{2, clusterBody},
	{0, strings.Replace(simulateBody, `"nodes": 1`, `"nodes": 0`, 1)},
	{0, `{"model": `},
	{1, strings.Replace(sweepBody, `"tensor_widths": [2, 4]`, `"tensor_widths": [5]`, 1)},
	{0, contendedBody},
	{0, wrappedTokensBody},
	// The token wrap again with 128 micro-batches, within the work bound.
	{0, strings.Replace(wrappedTokensBody, "1125899906842624", "9007199254740992", 1)},
	{0, wrappedParamsBody},
	{0, oversizedBody},
	{0, `{"model":{"preset":"megatron-18.4b"},"cluster":{"nodes":16,"offering":"h100-sxm-80gb","resilience":{"mtbf_hours":40000,"checkpoint_bandwidth_gbs":80,"restart_seconds":300}},"plan":{"tensor":8,"data":8,"pipeline":2,"micro_batch":1,"global_batch":512,"schedule":"1f1b","gradient_buckets":2},"total_tokens":300000000000}`},
	{0, `{"model":{"name":"tiny","hidden":1024,"layers":4,"seq_len":512,"heads":16,"vocab":32000},"cluster":{"nodes":1,"resilience":{"disabled":true}},"plan":{"tensor":2,"data":2,"pipeline":2,"micro_batch":1,"global_batch":8},"total_tokens":1000000000}`},
	{2, `{"model":{"preset":"megatron-3.6b"},"global_batch":64,"total_tokens":20000000000,"node_counts":[1],"offerings":["a100-sxm-80gb"],"tensor_widths":[2,4],"data_widths":[2,4],"pipeline_depths":[1],"micro_batches":[1]}`},
	{2, `{"model":{"preset":"megatron-3.6b"},"global_batch":64,"total_tokens":20000000000,"node_counts":[2],"offerings":["h100-sxm-80gb"],"tensor_widths":[2,4],"data_widths":[4,8],"pipeline_depths":[1],"micro_batches":[1]}`},
	{1, `{"model":{"preset":"megatron-3.6b"},"cluster":{"nodes":1},"global_batch":64,"tensor_widths":[2,4],"data_widths":[1],"pipeline_depths":[1],"micro_batches":[1]}`},
	{1, `{"model":{"preset":"megatron-3.6b"},"cluster":{"nodes":2},"global_batch":64,"total_tokens":20000000000,"tensor_widths":[2,4],"data_widths":[1,2],"pipeline_depths":[1,2],"micro_batches":[1]}`},
	{1, overflowingSweepBody},
}

// FuzzServerRequest posts fuzzed bodies to the three POST endpoints of an
// httptest server, answering each input from a fresh Server (so a failure
// reproduces from its input alone), and checks the wire contract:
//
//   - no handler panics (a recovered panic drops the connection);
//   - every response is a 200, or a 400 with the {"error":{"message",
//     "status"}} body;
//   - a 200 simulate body holds only finite numbers, and at least one
//     training iteration whenever total_tokens > 0;
//   - a 200 stream is NDJSON whose lines each set exactly one of point,
//     summary and error, ending in exactly one summary or error line with
//     nothing after it.
//
// To bound the work per input, a body that decodes into a valid but
// expensive request is skipped (see expensive); a body that fails to
// decode, or that the server would reject, is never skipped.
func FuzzServerRequest(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(uint8(s.path), s.body)
	}
	// One listener per fuzzing process serves each input from a fresh
	// server, so no cache state carries from one input to the next.
	var srv atomic.Pointer[Server]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.Load().Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	f.Fuzz(func(t *testing.T, sel uint8, body string) {
		path := fuzzPaths[int(sel)%len(fuzzPaths)]
		if why := expensive(path, body); why != "" {
			t.Skip(why)
		}
		srv.Store(New(Config{}))
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v (a handler panic drops the connection)", path, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("POST %s: reading the response: %v", path, err)
		}
		switch {
		case resp.StatusCode == http.StatusBadRequest:
			checkErrorBody(t, data)
		case resp.StatusCode != http.StatusOK:
			t.Fatalf("POST %s: status %d, want 200 or 400; body %q", path, resp.StatusCode, data)
		case path == "/v1/simulate":
			checkSimulateBody(t, body, data)
		default:
			checkStream(t, data)
		}
	})
}

// strictDecode decodes data into v the way the server decodes request
// bodies: unknown fields and trailing data are errors.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data")
	}
	return nil
}

// checkErrorBody requires the structured error body of a 400.
func checkErrorBody(t *testing.T, data []byte) {
	t.Helper()
	var eb errorBody
	if err := strictDecode(data, &eb); err != nil || eb.Error.Message == "" || eb.Error.Status != http.StatusBadRequest {
		t.Fatalf("400 body %q is not {\"error\":{\"message\",\"status\":400}} (%v)", data, err)
	}
}

// checkFinite requires every number in the JSON document data to be finite.
func checkFinite(t *testing.T, data []byte) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("response %q is not JSON: %v", data, err)
	}
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case json.Number:
			if f, err := strconv.ParseFloat(string(v), 64); err != nil || math.IsInf(f, 0) || math.IsNaN(f) {
				t.Fatalf("response %q holds the non-finite number %s", data, v)
			}
		case map[string]any:
			for _, e := range v {
				walk(e)
			}
		case []any:
			for _, e := range v {
				walk(e)
			}
		}
	}
	walk(doc)
}

// checkSimulateBody checks a 200 simulate response to the request body req.
func checkSimulateBody(t *testing.T, req string, data []byte) {
	t.Helper()
	checkFinite(t, data)
	var res SimulateResult
	if err := strictDecode(data, &res); err != nil {
		t.Fatalf("200 body %q is not a simulation report: %v", data, err)
	}
	var sr SimulateRequest
	if err := strictDecode([]byte(req), &sr); err != nil {
		t.Fatalf("the server answered 200 to a body that does not decode: %v", err)
	}
	if sr.TotalTokens > 0 && (res.Training == nil || res.Training.Iterations < 1) {
		t.Fatalf("total_tokens %d priced as %+v, want at least one iteration", sr.TotalTokens, res.Training)
	}
}

// checkStream checks a 200 NDJSON stream.
func checkStream(t *testing.T, data []byte) {
	t.Helper()
	if !bytes.HasSuffix(data, []byte("\n")) {
		t.Fatalf("stream %q does not end with a newline", data)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	for i, line := range lines {
		checkFinite(t, line)
		var sl struct {
			Point   json.RawMessage `json:"point"`
			Summary json.RawMessage `json:"summary"`
			Error   *wireError      `json:"error"`
		}
		if err := strictDecode(line, &sl); err != nil {
			t.Fatalf("stream line %d %q: %v", i, line, err)
		}
		set := 0
		for _, ok := range []bool{sl.Point != nil, sl.Summary != nil, sl.Error != nil} {
			if ok {
				set++
			}
		}
		if set != 1 {
			t.Fatalf("stream line %d %q sets %d of point, summary and error", i, line, set)
		}
		if terminal := sl.Point == nil; terminal != (i == len(lines)-1) {
			t.Fatalf("stream line %d of %d %q: want points, then exactly one summary or error line last", i, len(lines), line)
		}
	}
}

// The work bounds of FuzzServerRequest. A request is expensive when it
// targets more than maxFuzzNodes nodes, sweeps plan axes it does not list
// explicitly, lists more than maxFuzzCombos (p, d, m) combinations, prices
// more than maxFuzzCandidates hardware candidates, or could lower a graph
// of more than maxFuzzGraphNodes operator nodes — fitsIDs's bound,
// nmb·(4·p·v + 12·L) + L + p.
const (
	maxFuzzNodes      = 2
	maxFuzzCombos     = 64
	maxFuzzCandidates = 4
	maxFuzzGraphNodes = 1e5
)

// expensive returns why the request body for path decodes into a valid
// request too costly to fuzz, or "" when it should be sent. Bodies that do
// not decode, or whose model, cluster or plan does not resolve, return "":
// the server must reject them, and rejecting is cheap.
func expensive(path, body string) string {
	switch path {
	case "/v1/simulate":
		var req SimulateRequest
		if strictDecode([]byte(body), &req) != nil {
			return ""
		}
		m, plan, c, err := req.Resolve()
		if err != nil {
			return ""
		}
		if c.NodeCount > maxFuzzNodes {
			return "more than 2 nodes"
		}
		if graphBound(m, plan.MicroBatches(), plan.Pipeline, max(plan.VirtualStages, 1)) > maxFuzzGraphNodes {
			return "graph bound above 1e5 operator nodes"
		}
	case "/v1/sweep":
		var req SweepRequest
		if strictDecode([]byte(body), &req) != nil {
			return ""
		}
		m, err := req.Model.Resolve()
		if err != nil || req.GlobalBatch <= 0 {
			return ""
		}
		if c, err := req.Cluster.Resolve(); err != nil {
			return ""
		} else if c.NodeCount > maxFuzzNodes {
			return "more than 2 nodes"
		}
		return axesCost(m, req.GlobalBatch, req.MaxMicroBatches, req.TensorWidths, req.PipelineDepths, req.DataWidths, req.MicroBatches)
	case "/v1/clusterdse":
		var req ClusterDSERequest
		if strictDecode([]byte(body), &req) != nil {
			return ""
		}
		m, err := req.Model.Resolve()
		if err != nil || req.GlobalBatch <= 0 {
			return ""
		}
		for _, n := range req.NodeCounts {
			if n > maxFuzzNodes {
				return "more than 2 nodes"
			}
		}
		if len(req.Offerings) == 0 || req.CrossInterconnects || len(req.Offerings)*len(req.NodeCounts) > maxFuzzCandidates {
			return "more than 4 hardware candidates"
		}
		return axesCost(m, req.GlobalBatch, req.MaxMicroBatches, req.TensorWidths, req.PipelineDepths, req.DataWidths, req.MicroBatches)
	}
	return ""
}

// axesCost applies the work bounds to a sweep's plan axes: all four must
// be listed, and every (p, d, m) combination a sweep could evaluate —
// global batch divisible by d·m, p ≤ L, micro-batch count within the cap
// (512 by default) — must lower within maxFuzzGraphNodes. Sweeps never
// interleave, so v = 1.
func axesCost(m model.Config, gb, maxMB int, ts, ps, ds, mbs []int) string {
	if len(ts) == 0 || len(ps) == 0 || len(ds) == 0 || len(mbs) == 0 {
		return "implicit plan axes"
	}
	if len(ps)*len(ds)*len(mbs) > maxFuzzCombos {
		return "more than 64 plan-axis combinations"
	}
	if maxMB <= 0 {
		maxMB = 512
	}
	for _, p := range ps {
		for _, d := range ds {
			for _, mb := range mbs {
				if p < 1 || p > m.Layers || d < 1 || mb < 1 || d > gb/mb || gb%(d*mb) != 0 || gb/(d*mb) > maxMB {
					continue
				}
				if graphBound(m, gb/(d*mb), p, 1) > maxFuzzGraphNodes {
					return "graph bound above 1e5 operator nodes"
				}
			}
		}
	}
	return ""
}

// graphBound is fitsIDs's operator-node bound, nmb·(4·p·v + 12·L) + L + p,
// in floating point so no operand can wrap.
func graphBound(m model.Config, nmb, p, v int) float64 {
	L := float64(m.Layers)
	return float64(nmb)*(4*float64(p)*float64(v)+12*L) + L + float64(p)
}
