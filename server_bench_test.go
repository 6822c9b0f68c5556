package vtrain_bench

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"vtrain/internal/server"
)

// serverLoadBodies is the vtrain-server request mix: small cluster-design
// sweeps over two GPU generations. A cold request lowers each shape once
// through the engine's structural cache and fills its report cache, from
// which a warm server answers every repeat.
var serverLoadBodies = []string{
	`{
  "model": {"preset": "megatron-3.6b"},
  "global_batch": 64,
  "total_tokens": 20000000000,
  "node_counts": [1],
  "offerings": ["a100-sxm-80gb"],
  "tensor_widths": [2, 4],
  "data_widths": [2, 4],
  "pipeline_depths": [1],
  "micro_batches": [1]
}`,
	`{
  "model": {"preset": "megatron-3.6b"},
  "global_batch": 64,
  "total_tokens": 20000000000,
  "node_counts": [2],
  "offerings": ["h100-sxm-80gb"],
  "tensor_widths": [2, 4],
  "data_widths": [4, 8],
  "pipeline_depths": [1],
  "micro_batches": [1]
}`,
}

// canonicalClusterPoints sorts a clusterdse NDJSON stream's point lines
// and drops the summary (whose cumulative cache counters legitimately
// grow with server age). Point order across structural shapes is
// scheduler-dependent; point bytes are not.
func canonicalClusterPoints(stream string) string {
	lines := strings.Split(strings.TrimRight(stream, "\n"), "\n")
	if n := len(lines); n > 0 && strings.Contains(lines[n-1], `"summary"`) {
		lines = lines[:n-1]
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// BenchmarkServerLoad measures the long-lived serving layer under
// concurrent mixed load: one op = one /v1/clusterdse request against a
// shared warm vtrain-server. The acceptance bar is the reason the server
// exists — after a cold warm-up pass, warm requests pay nothing: they add
// no lowering, no structural miss and no report miss, and every warm point
// is a report hit. Every warm response must be byte-identical to the cold
// baseline: shared caches are an optimization, never a semantic. An
// untimed warm pass over every body follows the timed loop, so the bar is
// evaluated at any b.N.
func BenchmarkServerLoad(b *testing.B) {
	srv := server.New(server.Config{MaxInflightSweeps: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) string {
		resp, err := http.Post(ts.URL+"/v1/clusterdse", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		return string(data)
	}

	// Cold pass: pays every lowering once and pins the baseline bytes and
	// each body's point count.
	baseline := make(map[string]string, len(serverLoadBodies))
	points := make(map[string]uint64, len(serverLoadBodies))
	for _, body := range serverLoadBodies {
		baseline[body] = canonicalClusterPoints(post(body))
		points[body] = uint64(strings.Count(baseline[body], "\n") + 1)
	}
	cold := srv.Engine().CacheStats()

	var divergence atomic.Value
	var warmPoints atomic.Uint64
	warmRequest := func(body string) {
		warmPoints.Add(points[body])
		if got := canonicalClusterPoints(post(body)); got != baseline[body] {
			divergence.Store(fmt.Sprintf("warm response diverged from cold baseline:\n--- got ---\n%s\n--- want ---\n%s", got, baseline[body]))
		}
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			warmRequest(serverLoadBodies[int(next.Add(1))%len(serverLoadBodies)])
		}
	})
	b.StopTimer()
	for _, body := range serverLoadBodies {
		warmRequest(body)
	}
	if msg := divergence.Load(); msg != nil {
		b.Fatal(msg)
	}

	warm := srv.Engine().CacheStats()
	hits := warm.ReportHits - cold.ReportHits
	b.ReportMetric(float64(hits), "warm_report_hits")
	b.ReportMetric(float64(warm.BatchReplays), "batch_replays")
	once("server-load", func() {
		fmt.Printf("\nServer load — %d timed + %d untimed warm requests, %d warm points, report cache %d hits / %d misses:\n",
			b.N, len(serverLoadBodies), warmPoints.Load(), hits, warm.ReportMisses-cold.ReportMisses)
	})

	// The serving-layer acceptance bar: a warm server answers every point
	// from its report cache. Any miss or lowering means a request re-paid
	// work the engine had already done.
	if warm.Lowerings != cold.Lowerings || warm.StructMisses != cold.StructMisses ||
		warm.ReportMisses != cold.ReportMisses || hits != warmPoints.Load() {
		b.Fatalf("warm requests paid cold work: %+v -> %+v; want %d report hits and no miss or lowering",
			cold, warm, warmPoints.Load())
	}
}
