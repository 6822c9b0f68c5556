package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"vtrain/internal/clusterdse"
	"vtrain/internal/dse"
)

// Config holds the server's operational knobs. The zero value of every
// field takes a production default.
type Config struct {
	// Engine serves the requests; nil builds a fresh one.
	Engine *Engine
	// MaxBodyBytes bounds request bodies (default 1 MiB — descfile-shaped
	// JSON is a few hundred bytes).
	MaxBodyBytes int64
	// SimulateTimeout bounds /v1/simulate wall-clock (default 2m). Sweeps
	// are not time-bounded — they stream for as long as the space takes —
	// but are bounded in number by MaxInflightSweeps.
	SimulateTimeout time.Duration
	// MaxInflightSweeps caps concurrently executing sweep streams
	// (default 4); excess requests get 429 rather than queueing, so
	// clients can back off or spread load.
	MaxInflightSweeps int
}

// Server wraps an Engine in the HTTP+JSON service. Create with New, mount
// via Handler (tests) or run with Serve/Shutdown (production).
type Server struct {
	engine   *Engine
	handler  http.Handler
	metrics  *metrics
	sweepSem chan struct{}
	simTO    time.Duration
	maxBody  int64
	draining atomic.Bool
	httpSrv  *http.Server
}

// New builds a Server around cfg.Engine.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		cfg.Engine = NewEngine()
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.SimulateTimeout <= 0 {
		cfg.SimulateTimeout = 2 * time.Minute
	}
	if cfg.MaxInflightSweeps <= 0 {
		cfg.MaxInflightSweeps = 4
	}
	s := &Server{
		engine:   cfg.Engine,
		metrics:  newMetrics(),
		sweepSem: make(chan struct{}, cfg.MaxInflightSweeps),
		simTO:    cfg.SimulateTimeout,
		maxBody:  cfg.MaxBodyBytes,
	}

	mux := http.NewServeMux()
	// TimeoutHandler buffers the response, which is fine for the one-shot
	// simulate body but would break NDJSON streaming — so only /v1/simulate
	// gets it.
	mux.Handle("POST /v1/simulate", s.instrument("/v1/simulate",
		http.TimeoutHandler(http.HandlerFunc(s.handleSimulate), s.simTO, "simulation timed out")))
	mux.Handle("POST /v1/sweep", s.instrument("/v1/sweep", http.HandlerFunc(s.handleSweep)))
	mux.Handle("POST /v1/clusterdse", s.instrument("/v1/clusterdse", http.HandlerFunc(s.handleClusterDSE)))
	mux.Handle("GET /healthz", s.instrument("/healthz", http.HandlerFunc(s.handleHealthz)))
	mux.Handle("GET /metrics", s.instrument("/metrics", http.HandlerFunc(s.handleMetrics)))
	s.handler = mux
	return s
}

// Engine returns the serving engine (tests inspect its cache counters).
func (s *Server) Engine() *Engine { return s.engine }

// Handler returns the routed handler, for httptest servers and custom
// listeners.
func (s *Server) Handler() http.Handler { return s.handler }

// Serve accepts connections on l until Shutdown. It returns the
// http.Server error (http.ErrServerClosed after a clean shutdown).
func (s *Server) Serve(l net.Listener) error {
	s.httpSrv = &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s.httpSrv.Serve(l)
}

// Shutdown drains the server: health checks start failing (so load
// balancers stop routing here), then the listener closes and Shutdown
// waits for in-flight requests — including streaming sweeps — to finish,
// bounded by ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Shutdown(ctx)
}

// Draining reports whether shutdown has begun (healthz then returns 503).
func (s *Server) Draining() bool { return s.draining.Load() }

// statusRecorder captures the response code for metrics while passing
// Flush through so NDJSON lines reach the client as they are written.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps h with per-endpoint request counting and latency
// observation.
func (s *Server) instrument(endpoint string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		h.ServeHTTP(rec, r)
		code := rec.code
		if code == 0 {
			code = http.StatusOK
		}
		s.metrics.observe(endpoint, code, time.Since(start))
	})
}

// statusFor maps engine errors onto HTTP statuses: request-resolution
// failures and empty search spaces are the client's fault.
func statusFor(err error) int {
	var br *BadRequestError
	if errors.As(err, &br) || errors.Is(err, dse.ErrNoValidPlan) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(errorBody{Error: wireError{Message: err.Error(), Status: status}})
}

// decodeJSON reads one strict JSON body into v: bounded size, unknown
// fields rejected, trailing garbage rejected.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: malformed request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("server: request body has trailing data")
	}
	return nil
}

// handleSimulate answers POST /v1/simulate with the exact JSON cmd/vtrain
// -json prints for the same descfile (equivalence-locked by the cmd/vtrain
// golden tests).
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	out, err := s.engine.Simulate(req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out.Result())
}

// acquireSweep claims a sweep slot without queueing; a full server answers
// 429 so clients back off instead of piling onto the worker pool.
func (s *Server) acquireSweep(w http.ResponseWriter) bool {
	select {
	case s.sweepSem <- struct{}{}:
		s.metrics.inflightSweeps.Add(1)
		return true
	default:
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("server: too many in-flight sweeps, retry later"))
		return false
	}
}

func (s *Server) releaseSweep() {
	s.metrics.inflightSweeps.Add(-1)
	<-s.sweepSem
}

// ndjsonStream writes the line-delimited stream of a sweep response. It
// reuses dse.StreamGate at the HTTP boundary: the first marshal or write
// error latches and every later publish is dropped, so a slow or
// disconnected client never observes a partial line after a failure and
// the sweep's own no-emission-after-error contract extends through the
// socket.
type ndjsonStream struct {
	w       http.ResponseWriter
	flush   http.Flusher
	gate    dse.StreamGate
	started bool
}

func newNDJSONStream(w http.ResponseWriter) *ndjsonStream {
	st := &ndjsonStream{w: w}
	if f, ok := w.(http.Flusher); ok {
		st.flush = f
	}
	return st
}

// writeLine publishes one line and returns the stream's latched error.
func (st *ndjsonStream) writeLine(line streamLine) error {
	return st.gate.Publish(func() error {
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		// The 200 commits lazily with the first line that marshals: a sweep
		// that fails before emitting anything still gets a real error status.
		if !st.started {
			st.w.Header().Set("Content-Type", "application/x-ndjson")
			st.w.WriteHeader(http.StatusOK)
			st.started = true
		}
		if _, err := st.w.Write(append(b, '\n')); err != nil {
			return err
		}
		if st.flush != nil {
			st.flush.Flush()
		}
		return nil
	})
}

// point streams one result line. Its error, the stream's latched one,
// stops the sweep that feeds the stream.
func (st *ndjsonStream) point(p any) error { return st.writeLine(streamLine{Point: p}) }

// finish closes the stream: a summary line on success, an error line (or a
// real error status if nothing has streamed yet) on failure.
func (st *ndjsonStream) finish(sum *StreamSummary, err error) {
	if werr := st.gate.FirstErr(); err == nil && werr != nil {
		err = werr
	}
	if err == nil {
		st.writeLine(streamLine{Summary: sum})
		return
	}
	if !st.started {
		writeError(st.w, statusFor(err), err)
		return
	}
	// The 200 is already on the wire; latch the gate so no point line can
	// race past the terminal error line, then write it directly.
	st.gate.Fail(err)
	b, merr := json.Marshal(streamLine{Error: &wireError{Message: err.Error(), Status: statusFor(err)}})
	if merr != nil {
		return
	}
	st.w.Write(append(b, '\n'))
	if st.flush != nil {
		st.flush.Flush()
	}
}

// handleSweep answers POST /v1/sweep with an NDJSON stream: one line per
// evaluated plan, then a summary line.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.acquireSweep(w) {
		return
	}
	defer s.releaseSweep()
	run, err := s.engine.PrepareSweep(req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	st := newNDJSONStream(w)
	sum, err := run.Stream(func(p dse.Point) error {
		sp := NewSweepPoint(p, run.Cluster(), run.TotalTokens())
		if sp.Training != nil && !finiteTraining(*sp.Training) {
			// The error stops the sweep and ends the stream: as a real 400
			// when no point has streamed yet, else as a status-400 error
			// line.
			return overflowError(run.TotalTokens(), run.Cluster(), sp.GPUs)
		}
		return st.point(sp)
	})
	if err != nil {
		st.finish(nil, err)
		return
	}
	st.finish(&StreamSummary{Points: sum.Points, Cache: newCacheCounters(sum.Cache)}, nil)
}

// handleClusterDSE answers POST /v1/clusterdse with an NDJSON stream over
// the joint (hardware, plan) space.
func (s *Server) handleClusterDSE(w http.ResponseWriter, r *http.Request) {
	var req ClusterDSERequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.acquireSweep(w) {
		return
	}
	defer s.releaseSweep()
	run, err := s.engine.PrepareClusterDSE(req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	st := newNDJSONStream(w)
	sum, err := run.Stream(func(p clusterdse.Point) error {
		return st.point(NewClusterPoint(p))
	})
	if err != nil {
		st.finish(nil, err)
		return
	}
	st.finish(&StreamSummary{
		Points: sum.Points, Candidates: sum.Candidates,
		Cache: newCacheCounters(sum.Cache),
	}, nil)
}

// handleHealthz answers GET /healthz: 200 while serving, 503 once shutdown
// begins so load balancers drain this instance before the listener closes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics answers GET /metrics in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var sb strings.Builder
	s.metrics.write(&sb, s.engine)
	fmt.Fprint(w, sb.String())
}
