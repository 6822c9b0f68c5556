// Command bench is vtrain's repository benchmark. One invocation measures
// one workload for a fixed wall-clock budget and prints, as the last line of
// its standard output, one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {"op_p50_ms": {"value": 121.7, "unit": "ms"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With -trace 1 they are the per-layer ones: the run feeds the same
// inputs through the layer functions on one goroutine, records a span
// around every call, and reports each layer's self time. Every timing is
// host time. Simulated outputs are pinned by digest (testdata/digests.json),
// so a speed-up cannot silently change a prediction; a wrong output, a
// failed operation, or a traced run that disagrees with the simulator marks
// the run incorrect and exits non-zero.
//
// Build and run it from the root of a checkout with
//
//	bash bench/run.sh -workload dse-cold -seed 1 -seconds 15 -trace 0
//
// and compare two sets of runs with bench/cmp. README.md describes the
// workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"

	"vtrain/bench/stat"
)

const (
	// gomaxprocs fixes the scheduler width, so runs on hosts with more cores
	// stay comparable with the two-CPU hosts the bounds were measured on.
	gomaxprocs = 2
	// setupRepeats is how often an untraced run sets its workload up;
	// setup_s is the median.
	setupRepeats = 5
	// scratchRoot holds everything a run writes, under the directory
	// bench/run.sh builds into.
	scratchRoot = ".bench_build"
	// minCoveragePct is the share of traced wall time the layer spans must
	// account for; below it the per-layer split is not trustworthy.
	minCoveragePct = 95
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are every metric a run reports, in BENCHMARK.json's
// order (a test keeps the two in step). A workload reports 0 for a layer
// its operations never enter.
var endToEnd = []metricDef{
	{"points_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"dse.enumerate_ms", "ms"},
	{"opgraph.build_ms", "ms"},
	{"taskgraph.lower_ms", "ms"},
	{"taskgraph.lower_ns_per_task", "ns"},
	{"artifact.load_ms", "ms"},
	{"artifact.load_mb_per_s", "MB/s"},
	{"artifact.save_ms", "ms"},
	{"taskgraph.bind_us_per_plan", "us"},
	{"taskgraph.bind_contention_ms", "ms"},
	{"taskgraph.replay_ms", "ms"},
	{"taskgraph.replay_ns_per_task_lane.w1", "ns"},
	{"taskgraph.replay_ns_per_task_lane.w2_4", "ns"},
	{"taskgraph.replay_ns_per_task_lane.w5_8", "ns"},
	{"taskgraph.replay_ns_per_task_lane.w9_16", "ns"},
	{"taskgraph.replay_contended_ns_per_task_lane", "ns"},
	{"cost.price_ms", "ms"},
	{"server.decode_us", "us"},
	{"server.engine_us", "us"},
	{"server.encode_us", "us"},
	{"server.http_us", "us"},
	{"host.gc_cpu_pct", "%"},
	{"core.lowerings", "count"},
	{"core.struct_hit_pct", "%"},
	{"core.batch_width", "lanes"},
	{"artifact.disk_hit_pct", "%"},
	{"server.req_p99_ms", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"host.cpu_util_pct", "%"},
	{"host.calib_ms", "ms"},
	{"trace.coverage_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration // measurement budget
	setups  int           // set-up repetitions of an untraced run
	dir     string        // scratch directory, removed by the caller
	clock   *hostClock    // scales timings to the reference host; set by measure
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and keeps the first few failure reasons.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(err error) {
	t.attempted++
	t.failed++
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, err.Error())
	}
}

// A workload measures its end-to-end metrics untraced, or its per-layer
// metrics in a traced run.
type workload struct {
	name     string
	untraced func(cfg config, t *tally) (map[string]float64, error)
	traced   func(cfg config, t *tally, tr *tracer) (map[string]float64, error)
}

func workloads() []workload {
	var ws []workload
	for _, s := range sweepSpecs {
		ws = append(ws, workload{s.name, s.untraced, s.traced})
	}
	return append(ws, workload{"server-mixed", serverUntraced, serverTraced})
}

func main() {
	runtime.GOMAXPROCS(gomaxprocs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 15, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	out := fs.String("out", "", "append the result, with the run's settings and host, as one JSON line to this file")
	spansOut := fs.String("spans", "", "with -trace 1, write the recorded spans as JSON lines to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	i := slices.Index(names, *name)
	if i < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: need -workload one of %s, -seconds >= 1 and -trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	w := workloads()[i]
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, setups: setupRepeats, dir: dir}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	res, e := measure(w, cfg, tr, stderr)

	fmt.Fprintf(stderr, "bench: %s seed %d trace %d on %s (%s, GOMAXPROCS %d of %d CPUs, rev %s); host canary median %.2f ms (reference %.1f)\n",
		w.name, *seed, *trace, e.CPU, e.Go, e.GOMAXPROCS, e.NumCPU, e.Rev, e.CanaryMs, canaryRefMs)
	if *out != "" {
		if err := appendRecord(*out, record{w.name, *seed, *trace, *seconds, e, res}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *spansOut != "" && tr != nil {
		if err := tr.write(*spansOut); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs one workload — untraced, or traced when tr is non-nil — and
// assembles the result line: every metric of the run's kind, failures
// logged to standard error.
func measure(w workload, cfg config, tr *tracer, stderr io.Writer) (result, env) {
	e := hostEnv()
	cfg.clock = newHostClock()
	var (
		t    tally
		vals map[string]float64
		err  error
		defs = endToEnd
	)
	if tr != nil {
		defs = perLayer
		vals, err = w.traced(cfg, &t, tr)
	} else {
		vals, err = w.untraced(cfg, &t)
	}
	cfg.clock.tick()
	e.CanaryMs = cfg.clock.medianMs()
	if err != nil {
		t.fail(err)
	}
	if tr != nil && err == nil {
		vals["host.calib_ms"] = e.CanaryMs
		if c := vals["trace.coverage_pct"]; c < minCoveragePct {
			t.fail(fmt.Errorf("layer spans cover %.1f%% of traced wall time, want >= %d%%", c, minCoveragePct))
		}
	}
	res := result{Correct: t.failed == 0, Attempted: max(t.attempted, 1), Failed: t.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	for _, r := range t.reasons {
		fmt.Fprintln(stderr, "bench: failure:", r)
	}
	return res, e
}

// record is one line of an -out file, the input of bench/cmp.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Seconds  int    `json:"seconds"`
	Env      env    `json:"env"`
	Result   result `json:"result"`
}

func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// env describes the build and host a run measured, so a reader can tell a
// slow host from a slow commit.
type env struct {
	Rev        string  `json:"rev"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	CanaryMs   float64 `json:"canary_ms"` // the run's median host canary
}

func hostEnv() env {
	e := env{Rev: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPU: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			e.Rev = rev + dirty
		}
	}
	// The CPU model is informational; a host without /proc reports "unknown".
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// hostSample is a snapshot of the process counters a measurement window is
// differenced over.
type hostSample struct {
	wall            time.Time
	cpu             time.Duration // user + system
	gcCPU, totalCPU float64       // runtime/metrics CPU-class estimates, seconds
}

func sampleHost() hostSample {
	ms := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return hostSample{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:    ms[0].Value.Float64(),
		totalCPU: ms[1].Value.Float64(),
	}
}

// hostMetrics reports the diagnostics of the window from a to b: the
// garbage collector's share of CPU, and the process's CPU use relative to
// what GOMAXPROCS allows — the sweep drivers' parallel efficiency.
func hostMetrics(a, b hostSample) map[string]float64 {
	wall := b.wall.Sub(a.wall).Seconds()
	return map[string]float64{
		"host.gc_cpu_pct":   100 * ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
		"host.cpu_util_pct": 100 * ratio((b.cpu-a.cpu).Seconds(), wall*float64(runtime.GOMAXPROCS(0))),
	}
}

// allocBytes reads the cumulative heap allocation, cheaply enough to
// bracket every timed operation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's peak resident set so far, in MiB; Linux
// reports ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// setupTimes runs setup cfg.setups times and returns the last instance and
// the median set-up time at the reference host's speed; earlier instances
// are closed.
func setupTimes[S interface{ close() }](cfg config, setup func(i int) (S, error)) (S, float64, error) {
	var (
		s     S
		times []float64
	)
	for i := 0; i < max(cfg.setups, 1); i++ {
		if i > 0 {
			// Collect the closed instance, so the process's peak memory is
			// one instance's, not however many the collector had yet to free.
			s.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if s, err = setup(i); err != nil {
			return s, 0, err
		}
		times = append(times, cfg.clock.adjust(time.Since(start)))
	}
	return s, stat.Median(times), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
