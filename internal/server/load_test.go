package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"vtrain/internal/core"
)

// mixedSimulateBodies are one-shot configurations across three model
// scales — the "team hammering different models" request mix.
var mixedSimulateBodies = []string{
	`{
  "model": {"preset": "megatron-3.6b"},
  "cluster": {"nodes": 1},
  "plan": {"tensor": 2, "data": 2, "pipeline": 2, "micro_batch": 1, "global_batch": 64},
  "total_tokens": 20000000000
}`,
	`{
  "model": {"preset": "megatron-18.4b"},
  "cluster": {"nodes": 8},
  "plan": {"tensor": 8, "data": 4, "pipeline": 2, "micro_batch": 1, "global_batch": 128},
  "total_tokens": 50000000000
}`,
	`{
  "model": {"preset": "megatron-39.1b"},
  "cluster": {"nodes": 4},
  "plan": {"tensor": 4, "data": 2, "pipeline": 4, "micro_batch": 1, "global_batch": 64},
  "total_tokens": 50000000000
}`,
}

// mixedClusterBodies are small cluster-design sweeps over two GPU
// generations: a cold request lowers through the shared structural cache,
// and a repeat is answered from the engine's report cache without touching
// the structural counters.
var mixedClusterBodies = []string{
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

// canonicalPoints drops the final (summary) line of an NDJSON stream and
// sorts the point lines. The summary carries the shared engine's
// cumulative cache counters, which legitimately differ with request
// order; the point lines' order is nondeterministic across structural
// shapes (concurrent batch workers); the point lines' bytes must not
// differ at all.
func canonicalPoints(t *testing.T, stream string) string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(stream, "\n"), "\n")
	if len(lines) < 2 || !strings.Contains(lines[len(lines)-1], `"summary"`) {
		t.Fatalf("stream did not end in a summary line:\n%s", stream)
	}
	points := lines[:len(lines)-1]
	sort.Strings(points)
	return strings.Join(points, "\n")
}

// TestServerCacheConcentration is the serving layer's load lock, run under
// -race in CI: 32 goroutines stream a mixed-model workload at a shared
// server and assert that (a) every response is byte-identical to what a
// sequential one-shot run produces — warm shared caches and single-flight
// dedup must never change results — and (b) once the first wave has paid
// every lowering and simulation, later waves are answered entirely from
// the engine's caches: they add no lowering, no structural miss and no
// report miss, every point is a report hit, and the combined reuse rate
// rises wave over wave.
func TestServerCacheConcentration(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent load test")
	}

	// Sequential one-shot baselines: a fresh engine per request, exactly
	// what the CLIs compute.
	wantSim := make([]string, len(mixedSimulateBodies))
	for i, body := range mixedSimulateBodies {
		_, ts := newTestServer(t, Config{})
		code, resp, _ := post(t, ts, "/v1/simulate", body)
		if code != 200 {
			t.Fatalf("baseline simulate %d: status %d: %s", i, code, resp)
		}
		wantSim[i] = resp
	}
	wantCluster := make([]string, len(mixedClusterBodies))
	// lookups is one goroutine's report lookups per wave: one per simulate
	// and one per streamed cluster point.
	lookups := uint64(len(mixedSimulateBodies))
	for i, body := range mixedClusterBodies {
		_, ts := newTestServer(t, Config{})
		code, resp, _ := post(t, ts, "/v1/clusterdse", body)
		if code != 200 {
			t.Fatalf("baseline clusterdse %d: status %d: %s", i, code, resp)
		}
		wantCluster[i] = canonicalPoints(t, resp)
		lookups += uint64(strings.Count(wantCluster[i], "\n") + 1)
	}

	// seq is the counters of one sequential pass over the mix on one
	// engine.
	seqSrv, seqTS := newTestServer(t, Config{})
	for _, body := range mixedSimulateBodies {
		post(t, seqTS, "/v1/simulate", body)
	}
	for _, body := range mixedClusterBodies {
		post(t, seqTS, "/v1/clusterdse", body)
	}
	seq := seqSrv.Engine().CacheStats()

	srv, ts := newTestServer(t, Config{MaxInflightSweeps: 64})
	// reuse is the combined hit rate: report plus structural hits over
	// all lookups.
	reuse := func(st core.CacheStats) float64 {
		return float64(st.ReportHits+st.StructHits) / float64(max(st.ReportHits+st.ReportMisses+st.StructHits+st.StructMisses, 1))
	}

	const goroutines = 32
	const waves = 3
	var rates []float64
	var prev core.CacheStats
	for wave := 0; wave < waves; wave++ {
		errs := make(chan error, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Rotate the order per goroutine so requests interleave
				// across models rather than marching in lockstep.
				for k := 0; k < len(mixedSimulateBodies); k++ {
					i := (g + k) % len(mixedSimulateBodies)
					code, resp, _ := post(t, ts, "/v1/simulate", mixedSimulateBodies[i])
					if code != 200 {
						errs <- fmt.Errorf("simulate %d: status %d: %s", i, code, resp)
						return
					}
					if resp != wantSim[i] {
						errs <- fmt.Errorf("simulate %d: concurrent response diverged from one-shot baseline:\n--- got ---\n%s\n--- want ---\n%s", i, resp, wantSim[i])
						return
					}
				}
				for k := 0; k < len(mixedClusterBodies); k++ {
					i := (g + k) % len(mixedClusterBodies)
					code, resp, _ := post(t, ts, "/v1/clusterdse", mixedClusterBodies[i])
					if code != 200 {
						errs <- fmt.Errorf("clusterdse %d: status %d: %s", i, code, resp)
						return
					}
					if got := canonicalPoints(t, resp); got != wantCluster[i] {
						errs <- fmt.Errorf("clusterdse %d: concurrent points diverged from one-shot baseline:\n--- got ---\n%s\n--- want ---\n%s", i, got, wantCluster[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		st := srv.Engine().CacheStats()
		rates = append(rates, reuse(st))
		// After the cold wave, every request is a warm repeat: every
		// lookup it makes is a report hit.
		if wave > 0 && (st.Lowerings != prev.Lowerings || st.StructMisses != prev.StructMisses ||
			st.ReportMisses != prev.ReportMisses || st.ReportHits-prev.ReportHits != goroutines*lookups) {
			t.Errorf("warm wave %d: %+v -> %+v; want %d report hits, no miss and no lowering",
				wave, prev, st, goroutines*lookups)
		}
		prev = st
	}

	// The cumulative combined reuse rate must rise wave over wave: after
	// the cold wave pays every lowering and simulation, warm waves add hits
	// and no misses.
	t.Logf("combined reuse rate by wave: %v", rates)
	for i := 1; i < len(rates); i++ {
		if rates[i] <= rates[i-1] {
			t.Errorf("combined reuse rate did not rise: wave %d %.4f -> wave %d %.4f",
				i-1, rates[i-1], i, rates[i])
		}
	}
	if final := rates[len(rates)-1]; final < 0.5 {
		t.Errorf("final combined reuse rate %.2f%% — warm repeats are not concentrating on shared caches", 100*final)
	}
	// The cold wave's 32 concurrent copies of each request lower each
	// shape once, as one sequential pass over the mix does.
	if st := srv.Engine().CacheStats(); st.Lowerings != seq.Lowerings || st.StructMisses != seq.Lowerings {
		t.Errorf("concurrent waves: %d lowerings, %d struct misses; a sequential pass lowers %d",
			st.Lowerings, st.StructMisses, seq.Lowerings)
	}
}
