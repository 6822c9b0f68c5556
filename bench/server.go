package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vtrain/bench/stat"
	"vtrain/internal/clusterdse"
	"vtrain/internal/dse"
	"vtrain/internal/server"
)

// serverBody is one request of the server-mixed traffic mix.
type serverBody struct {
	path   string
	json   string
	weight float64 // share of all requests
}

// serverBodies is the server-mixed mix: 40% one-shot simulations the report
// cache answers, so they cost only HTTP and JSON; 40% the root package's
// BenchmarkServerLoad cluster-design bodies, which bind and replay on fresh
// sibling caches every time; 20% small NDJSON plan sweeps.
var serverBodies = []serverBody{
	{"/v1/simulate", `{"model":{"preset":"megatron-18.4b"},"cluster":{"nodes":16,"offering":"h100-sxm-80gb","resilience":{"mtbf_hours":40000,"checkpoint_bandwidth_gbs":80,"restart_seconds":300}},"plan":{"tensor":8,"data":8,"pipeline":2,"micro_batch":1,"global_batch":512,"schedule":"1f1b","gradient_buckets":2},"total_tokens":300000000000}`, 0.2},
	{"/v1/simulate", `{"model":{"name":"tiny","hidden":1024,"layers":4,"seq_len":512,"heads":16,"vocab":32000},"cluster":{"nodes":1,"resilience":{"disabled":true}},"plan":{"tensor":2,"data":2,"pipeline":2,"micro_batch":1,"global_batch":8},"total_tokens":1000000000}`, 0.2},
	{"/v1/clusterdse", `{"model":{"preset":"megatron-3.6b"},"global_batch":64,"total_tokens":20000000000,"node_counts":[1],"offerings":["a100-sxm-80gb"],"tensor_widths":[2,4],"data_widths":[2,4],"pipeline_depths":[1],"micro_batches":[1]}`, 0.2},
	{"/v1/clusterdse", `{"model":{"preset":"megatron-3.6b"},"global_batch":64,"total_tokens":20000000000,"node_counts":[2],"offerings":["h100-sxm-80gb"],"tensor_widths":[2,4],"data_widths":[4,8],"pipeline_depths":[1],"micro_batches":[1]}`, 0.2},
	{"/v1/sweep", `{"model":{"preset":"megatron-3.6b"},"cluster":{"nodes":1},"global_batch":64,"tensor_widths":[2,4],"data_widths":[1],"pipeline_depths":[1],"micro_batches":[1]}`, 0.1},
	{"/v1/sweep", `{"model":{"preset":"megatron-3.6b"},"cluster":{"nodes":2},"global_batch":64,"total_tokens":20000000000,"tensor_widths":[2,4],"data_widths":[1,2],"pipeline_depths":[1,2],"micro_batches":[1]}`, 0.1},
}

const (
	// openRate is the open loop's mean arrival rate in requests per second.
	// The mix's knee on the two-CPU reference host moves between about 2,500
	// and 4,500 with the host's speed; at 1,000 the loop stays below it even
	// in slow periods, so its latency is the server's, not a backlog's.
	openRate = 1000.0
	// clients bounds both the connections and the requests in flight.
	clients = 2
	// senders is the open loop's sending goroutines: enough that a sender
	// oversleeping its request's due time does not hold up the next one.
	senders = 8
	// openWindow and closedWindow are the alternating stretches of open-
	// and closed-loop traffic an untraced run is made of. The host canary
	// runs between them, and each window's timings are scaled to the
	// reference host's speed by the canaries on either side.
	openWindow   = 300 * time.Millisecond
	closedWindow = 100 * time.Millisecond
	// closedSeqLen is the length of the body sequence a closed window
	// cycles through: more than it can send.
	closedSeqLen = 1 << 12
	// tracedPassLen is the number of requests in one traced pass.
	tracedPassLen = 100
)

// pickBody draws a body index from the mix.
func pickBody(rng *rand.Rand) int {
	x := rng.Float64()
	for i, b := range serverBodies {
		if x -= b.weight; x < 0 {
			return i
		}
	}
	return len(serverBodies) - 1
}

// arrival is one open-loop request: when it is due and which body it sends.
type arrival struct {
	due  time.Duration
	body int
}

// arrivals draws a Poisson arrival process at rate requests per second over
// d, each request's body drawn from the mix.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []arrival {
	var out []arrival
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		due := time.Duration(at * 1e9)
		if due >= d {
			return out
		}
		out = append(out, arrival{due, pickBody(rng)})
	}
}

// sequence draws n body indices from the mix.
func sequence(rng *rand.Rand, n int) []int {
	seq := make([]int, n)
	for i := range seq {
		seq[i] = pickBody(rng)
	}
	return seq
}

// serverSession is a running in-process vtrain-server and its client.
type serverSession struct {
	srv    *server.Server
	served chan error // Serve's return value
	url    string
	client *http.Client
	want   []string // canonical cold-pass response per body
	points []int    // design points each body's response answers
}

// startServer starts a server on 127.0.0.1 and pays the cold pass: every
// body once, which lowers every structure the mix needs and pins the
// responses later requests must reproduce.
func startServer() (*serverSession, error) {
	want, err := pinnedDigest("server-mixed")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serverSession{
		srv:    server.New(server.Config{}),
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
		}},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	for i := range serverBodies {
		resp, err := s.post(i)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("cold pass: %w", err)
		}
		c, n, err := canonical(serverBodies[i].path, resp)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("cold pass: %w", err)
		}
		s.want, s.points = append(s.want, c), append(s.points, n)
	}
	if d := textDigest(s.want); d != want {
		s.close()
		return nil, fmt.Errorf("server-mixed: cold-pass digest %s, pinned %s", d, want)
	}
	return s, nil
}

// close drains the server and waits for Serve to return.
func (s *serverSession) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
}

// post sends body i and returns the whole response body; any status but
// 200 is an error.
func (s *serverSession) post(i int) (string, error) {
	b := serverBodies[i]
	resp, err := s.client.Post(s.url+b.path, "application/json", strings.NewReader(b.json))
	if err != nil {
		return "", err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: status %d: %s", b.path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return string(data), nil
}

// check compares a response for body i with the cold pass's.
func (s *serverSession) check(i int, resp string) error {
	got, _, err := canonical(serverBodies[i].path, resp)
	if err != nil {
		return err
	}
	if got != s.want[i] {
		return fmt.Errorf("%s response diverged from the cold pass", serverBodies[i].path)
	}
	return nil
}

// canonical normalizes a response the way the root package's
// BenchmarkServerLoad does: a stream's point lines are sorted, because their
// order across shapes depends on scheduling, and its summary line is
// dropped, because its cache counters grow with the server's age. It also
// returns how many design points the response answers.
func canonical(path, resp string) (string, int, error) {
	if path == "/v1/simulate" {
		return resp, 1, nil
	}
	lines := strings.Split(strings.TrimRight(resp, "\n"), "\n")
	n := len(lines)
	if !strings.HasPrefix(lines[n-1], `{"summary"`) {
		return "", 0, fmt.Errorf("%s stream does not end in a summary line", path)
	}
	pts := lines[:n-1]
	sort.Strings(pts)
	return strings.Join(pts, "\n"), len(pts), nil
}

// clientLog is what one load-generating goroutine saw.
type clientLog struct {
	ok, points int
	errs       []error
}

func (t *tally) add(logs []clientLog) {
	for _, l := range logs {
		t.attempted += l.ok
		for _, err := range l.errs {
			t.fail(err)
		}
	}
}

// openLoop sends reqs on their schedule over at most two connections.
// Each of several senders takes the next request, sleeps until it is due
// and sends it; the transport queues requests beyond two in flight. A
// request a sender took late — every sender was busy — is timed from when
// it was due, so a stall counts against the requests queued behind it. A
// request whose sender slept is timed from when the sender woke: Go's
// sleeps overshoot by up to a millisecond on Linux, and that error is the
// generator's, reported as lateness, not the server's.
func (s *serverSession) openLoop(reqs []arrival, t *tally) (latMs, lateMs []float64) {
	latMs, lateMs = make([]float64, len(reqs)), make([]float64, len(reqs))
	logs := make([]clientLog, senders)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := range logs {
		wg.Add(1)
		go func(log *clientLog) {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(reqs); k = int(next.Add(1)) - 1 {
				due := start.Add(reqs[k].due)
				from := due
				if time.Now().Before(due) {
					time.Sleep(time.Until(due))
					from = time.Now()
				}
				lateMs[k] = msOf(time.Since(due))
				resp, err := s.post(reqs[k].body)
				latMs[k] = msOf(time.Since(from))
				if err == nil {
					err = s.check(reqs[k].body, resp)
				}
				if err != nil {
					log.errs = append(log.errs, err)
					continue
				}
				log.ok++
			}
		}(&logs[c])
	}
	wg.Wait()
	t.add(logs)
	return latMs, lateMs
}

// closedLoop runs two clients that each send the next body of seq as soon
// as their previous request completes, for d. It returns the design points
// answered and the time taken.
func (s *serverSession) closedLoop(seq []int, d time.Duration, t *tally) (points int, took time.Duration) {
	logs := make([]clientLog, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range logs {
		wg.Add(1)
		go func(log *clientLog) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := seq[int(next.Add(1)-1)%len(seq)]
				resp, err := s.post(i)
				if err == nil {
					err = s.check(i, resp)
				}
				if err != nil {
					log.errs = append(log.errs, err)
					continue
				}
				log.ok++
				log.points += s.points[i]
			}
		}(&logs[c])
	}
	wg.Wait()
	took = time.Since(start)
	t.add(logs)
	for _, l := range logs {
		points += l.points
	}
	return points, took
}

// serverUntraced measures the end-to-end metrics: alternating windows of
// an open loop at openRate (latency) and a closed loop of two clients
// (saturated throughput, in design points answered per second).
func serverUntraced(cfg config, t *tally) (map[string]float64, error) {
	sess, setupS, err := setupTimes(cfg, func(int) (*serverSession, error) { return startServer() })
	if err != nil {
		return nil, err
	}
	defer sess.close()
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), serverStream))
	var lat, thr, allocMB []float64
	for start := time.Now(); len(thr) == 0 || time.Since(start) < cfg.seconds; {
		reqs := arrivals(rng, openRate, openWindow)
		a0, t0 := allocBytes(), time.Now()
		l, _ := sess.openLoop(reqs, t)
		took := time.Since(t0)
		toRef := cfg.clock.adjust(took) / took.Seconds()
		for _, x := range l {
			lat = append(lat, x*toRef)
		}
		a1 := allocBytes()
		p, took := sess.closedLoop(sequence(rng, closedSeqLen), closedWindow, t)
		thr = append(thr, float64(p)/cfg.clock.adjust(took))
		allocMB = append(allocMB, ratio(float64(a1-a0)/1e6, float64(len(reqs))))
	}
	return map[string]float64{
		"points_per_s":    stat.Median(thr),
		"op_p50_ms":       stat.Median(lat),
		"alloc_mb_per_op": stat.Median(allocMB),
		"peak_rss_mb":     peakRSSMB(),
		"setup_s":         setupS,
	}, nil
}

// serverTraced measures the per-layer metrics. A third of the budget runs
// the untraced open loop for the tail diagnostics and cache counters; the
// rest alternates traced and untraced passes that send each request over
// HTTP and then repeat the server's work for it through the Engine.
func serverTraced(cfg config, t *tally, tr *tracer) (map[string]float64, error) {
	sess, err := startServer()
	if err != nil {
		return nil, err
	}
	defer sess.close()
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), serverStream))
	eng := sess.srv.Engine()

	st0, h0 := eng.CacheStats(), sampleHost()
	lat, late := sess.openLoop(arrivals(rng, openRate, cfg.seconds/3), t)
	out := hostMetrics(h0, sampleHost())
	st := eng.CacheStats()
	hits, misses := st.StructHits-st0.StructHits, st.StructMisses-st0.StructMisses
	out["core.lowerings"] = float64(st.Lowerings - st0.Lowerings)
	out["core.struct_hit_pct"] = 100 * ratio(float64(hits), float64(hits+misses))
	out["core.batch_width"] = ratio(float64(st.BatchedPlans-st0.BatchedPlans), float64(st.BatchReplays-st0.BatchReplays))
	out["server.req_p99_ms"] = stat.Percentile(lat, 99)
	out["loadgen.late_ms_p99"] = stat.Percentile(late, 99)

	seq := sequence(rng, tracedPassLen)
	layers := alternate(cfg.seconds*2/3, tr, t, func() (time.Duration, error) {
		t0 := time.Now()
		root := tr.begin("pass")
		resps, directs := make([]string, len(seq)), make([]string, len(seq))
		for k, i := range seq {
			var err error
			if resps[k], directs[k], err = sess.tracedRequest(tr, i); err != nil {
				return time.Since(t0), err
			}
		}
		tr.end(root)
		wall := time.Since(t0)
		for k, i := range seq {
			if err := sess.check(i, resps[k]); err != nil {
				return wall, err
			}
			if err := sess.check(i, directs[k]); err != nil {
				return wall, fmt.Errorf("engine path: %w", err)
			}
		}
		return wall, nil
	}, func(from int) map[string]float64 {
		self := tr.selfTimes(from)
		root := tr.spans[from]
		dec, engine, enc := self["server.decode"], self["server.engine"], self["server.encode"]
		per := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(len(seq)) }
		return map[string]float64{
			"server.decode_us": per(dec),
			"server.engine_us": per(engine),
			"server.encode_us": per(enc),
			// The round trip minus the server-side work it contains.
			"server.http_us":     per(self["server.http"] - dec - engine - enc),
			"trace.coverage_pct": 100 * (1 - ratio(float64(self["pass"]), float64(root.End-root.Start))),
		}
	})
	for k, v := range layers {
		out[k] = v
	}
	return out, nil
}

// pointLine and summaryLine are the NDJSON envelopes the server writes.
type pointLine struct {
	Point any `json:"point"`
}

type summaryLine struct {
	Summary *server.StreamSummary `json:"summary"`
}

// tracedRequest sends body i over HTTP, then does the server's work for it
// again through the Engine — decode, engine, encode — each in its own span.
// It returns the HTTP response and the directly encoded one.
func (s *serverSession) tracedRequest(tr *tracer, i int) (resp, direct string, err error) {
	b := serverBodies[i]
	step := func(name string, f func() error) error {
		sp := tr.begin(name)
		defer tr.end(sp)
		return f()
	}
	if err := step("server.http", func() error { resp, err = s.post(i); return err }); err != nil {
		return "", "", err
	}
	eng := s.srv.Engine()
	var buf bytes.Buffer
	writeLine := func(v any) error {
		line, err := json.Marshal(v)
		buf.Write(append(line, '\n'))
		return err
	}
	switch b.path {
	case "/v1/simulate":
		var req server.SimulateRequest
		var out server.SimulateOutcome
		err = step("server.decode", func() error { return decodeStrict(b.json, &req) })
		if err == nil {
			err = step("server.engine", func() (err error) { out, err = eng.Simulate(req); return err })
		}
		if err == nil {
			err = step("server.encode", func() error {
				enc := json.NewEncoder(&buf)
				enc.SetIndent("", "  ")
				return enc.Encode(out.Result())
			})
		}
	case "/v1/clusterdse":
		var req server.ClusterDSERequest
		var pts []clusterdse.Point
		var sum server.ClusterSummary
		err = step("server.decode", func() error { return decodeStrict(b.json, &req) })
		if err == nil {
			err = step("server.engine", func() error {
				run, err := eng.PrepareClusterDSE(req)
				if err != nil {
					return err
				}
				sum, err = run.Run(func(p clusterdse.Point) { pts = append(pts, p) })
				return err
			})
		}
		if err == nil {
			err = step("server.encode", func() error {
				for _, p := range pts {
					if err := writeLine(pointLine{server.NewClusterPoint(p)}); err != nil {
						return err
					}
				}
				return writeLine(summaryLine{&server.StreamSummary{Points: sum.Points, Candidates: sum.Candidates}})
			})
		}
	case "/v1/sweep":
		var req server.SweepRequest
		var pts []dse.Point
		var run *server.SweepRun
		var sum server.SweepSummary
		err = step("server.decode", func() error { return decodeStrict(b.json, &req) })
		if err == nil {
			err = step("server.engine", func() (err error) {
				if run, err = eng.PrepareSweep(req); err != nil {
					return err
				}
				sum, err = run.Run(func(p dse.Point) { pts = append(pts, p) })
				return err
			})
		}
		if err == nil {
			err = step("server.encode", func() error {
				for _, p := range pts {
					if err := writeLine(pointLine{server.NewSweepPoint(p, run.Cluster(), run.TotalTokens())}); err != nil {
						return err
					}
				}
				return writeLine(summaryLine{&server.StreamSummary{Points: sum.Points}})
			})
		}
	}
	return resp, buf.String(), err
}

// decodeStrict decodes a request body as the server does: unknown fields
// and trailing data are errors.
func decodeStrict(body string, v any) error {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("request body has trailing data")
	}
	return nil
}
