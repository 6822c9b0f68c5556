package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the request-duration histogram upper bounds in
// seconds: sub-millisecond health checks through multi-minute sweeps.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30, 120}

// histogram is a fixed-bucket latency histogram with lock-free observes.
// Buckets store per-interval counts; rendering accumulates them into the
// cumulative `le` form Prometheus expects.
type histogram struct {
	buckets  []atomic.Uint64 // len(latencyBuckets)+1; last is +Inf
	count    atomic.Uint64
	sumNanos atomic.Uint64
}

func newHistogram() *histogram {
	return &histogram{buckets: make([]atomic.Uint64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	sec := d.Seconds()
	i := 0
	for i < len(latencyBuckets) && sec > latencyBuckets[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(uint64(d.Nanoseconds()))
}

// endpointMetrics tracks one endpoint's request counts (by status code)
// and latency histogram. Counters are monotone: they are only ever
// incremented, atomically, so concurrent scrapes see non-decreasing
// values.
type endpointMetrics struct {
	mu    sync.Mutex
	codes map[int]*atomic.Uint64
	hist  *histogram
}

func (em *endpointMetrics) observe(code int, d time.Duration) {
	em.mu.Lock()
	c, ok := em.codes[code]
	if !ok {
		c = new(atomic.Uint64)
		em.codes[code] = c
	}
	em.mu.Unlock()
	c.Add(1)
	em.hist.observe(d)
}

// metrics is the server's Prometheus-style registry: per-endpoint request
// counters and latency histograms, plus an in-flight sweep gauge. The
// cache counters come from the engine at scrape time.
type metrics struct {
	mu             sync.Mutex
	endpoints      map[string]*endpointMetrics
	inflightSweeps atomic.Int64
}

func newMetrics() *metrics {
	return &metrics{endpoints: make(map[string]*endpointMetrics)}
}

func (m *metrics) observe(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	em, ok := m.endpoints[endpoint]
	if !ok {
		em = &endpointMetrics{codes: make(map[int]*atomic.Uint64), hist: newHistogram()}
		m.endpoints[endpoint] = em
	}
	m.mu.Unlock()
	em.observe(code, d)
}

// write renders the registry in the Prometheus text exposition format,
// deterministically ordered (sorted endpoints and codes) so scrapes are
// stable and testable.
func (m *metrics) write(w io.Writer, e *Engine) {
	st := e.CacheStats()
	fmt.Fprintf(w, "# HELP vtrain_cache_report_hits_total Plan-level report cache hits across the engine's simulator tree.\n")
	fmt.Fprintf(w, "# TYPE vtrain_cache_report_hits_total counter\n")
	fmt.Fprintf(w, "vtrain_cache_report_hits_total %d\n", st.ReportHits)
	fmt.Fprintf(w, "# HELP vtrain_cache_report_misses_total Plan-level report cache misses across the engine's simulator tree.\n")
	fmt.Fprintf(w, "# TYPE vtrain_cache_report_misses_total counter\n")
	fmt.Fprintf(w, "vtrain_cache_report_misses_total %d\n", st.ReportMisses)
	fmt.Fprintf(w, "# HELP vtrain_cache_struct_hits_total Shape-keyed structural cache hits across the engine's simulator tree.\n")
	fmt.Fprintf(w, "# TYPE vtrain_cache_struct_hits_total counter\n")
	fmt.Fprintf(w, "vtrain_cache_struct_hits_total %d\n", st.StructHits)
	fmt.Fprintf(w, "# HELP vtrain_cache_struct_misses_total Structural cache misses (graphs actually lowered).\n")
	fmt.Fprintf(w, "# TYPE vtrain_cache_struct_misses_total counter\n")
	fmt.Fprintf(w, "vtrain_cache_struct_misses_total %d\n", st.StructMisses)
	fmt.Fprintf(w, "# HELP vtrain_batch_replays_total Batched replay passes across the engine's simulator tree.\n")
	fmt.Fprintf(w, "# TYPE vtrain_batch_replays_total counter\n")
	fmt.Fprintf(w, "vtrain_batch_replays_total %d\n", st.BatchReplays)
	fmt.Fprintf(w, "# HELP vtrain_batched_plans_total Plans carried by batched replay passes.\n")
	fmt.Fprintf(w, "# TYPE vtrain_batched_plans_total counter\n")
	fmt.Fprintf(w, "vtrain_batched_plans_total %d\n", st.BatchedPlans)
	fmt.Fprintf(w, "# HELP vtrain_lowerings_total Graph lowerings actually performed (structural misses not served from the artifact tier).\n")
	fmt.Fprintf(w, "# TYPE vtrain_lowerings_total counter\n")
	fmt.Fprintf(w, "vtrain_lowerings_total %d\n", st.Lowerings)
	fmt.Fprintf(w, "# HELP vtrain_cache_disk_hits_total Persistent artifact tier loads served from disk.\n")
	fmt.Fprintf(w, "# TYPE vtrain_cache_disk_hits_total counter\n")
	fmt.Fprintf(w, "vtrain_cache_disk_hits_total %d\n", st.DiskHits)
	fmt.Fprintf(w, "# HELP vtrain_cache_disk_misses_total Persistent artifact tier load attempts that fell back to lowering (absent, corrupt, or version-skewed files).\n")
	fmt.Fprintf(w, "# TYPE vtrain_cache_disk_misses_total counter\n")
	fmt.Fprintf(w, "vtrain_cache_disk_misses_total %d\n", st.DiskMisses)
	fmt.Fprintf(w, "# HELP vtrain_cache_disk_writes_total Artifacts persisted to the artifact tier.\n")
	fmt.Fprintf(w, "# TYPE vtrain_cache_disk_writes_total counter\n")
	fmt.Fprintf(w, "vtrain_cache_disk_writes_total %d\n", st.DiskWrites)

	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	m.mu.Unlock()
	sort.Strings(names)

	fmt.Fprintf(w, "# HELP vtrain_http_requests_total HTTP requests served, by endpoint and status code.\n")
	fmt.Fprintf(w, "# TYPE vtrain_http_requests_total counter\n")
	for _, name := range names {
		m.mu.Lock()
		em := m.endpoints[name]
		m.mu.Unlock()
		em.mu.Lock()
		codes := make([]int, 0, len(em.codes))
		for c := range em.codes {
			codes = append(codes, c)
		}
		em.mu.Unlock()
		sort.Ints(codes)
		for _, c := range codes {
			em.mu.Lock()
			n := em.codes[c].Load()
			em.mu.Unlock()
			fmt.Fprintf(w, "vtrain_http_requests_total{endpoint=%q,code=\"%d\"} %d\n", name, c, n)
		}
	}

	fmt.Fprintf(w, "# HELP vtrain_http_request_duration_seconds HTTP request latency, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE vtrain_http_request_duration_seconds histogram\n")
	for _, name := range names {
		m.mu.Lock()
		h := m.endpoints[name].hist
		m.mu.Unlock()
		var cum uint64
		for i, ub := range latencyBuckets {
			cum += h.buckets[i].Load()
			fmt.Fprintf(w, "vtrain_http_request_duration_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", name, ub, cum)
		}
		cum += h.buckets[len(latencyBuckets)].Load()
		fmt.Fprintf(w, "vtrain_http_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "vtrain_http_request_duration_seconds_sum{endpoint=%q} %g\n", name, float64(h.sumNanos.Load())/1e9)
		fmt.Fprintf(w, "vtrain_http_request_duration_seconds_count{endpoint=%q} %d\n", name, h.count.Load())
	}

	fmt.Fprintf(w, "# HELP vtrain_http_in_flight_sweeps Streaming sweep requests currently executing.\n")
	fmt.Fprintf(w, "# TYPE vtrain_http_in_flight_sweeps gauge\n")
	fmt.Fprintf(w, "vtrain_http_in_flight_sweeps %d\n", m.inflightSweeps.Load())
}
