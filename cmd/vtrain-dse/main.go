// Command vtrain-dse runs the case-study-1 design-space exploration
// (Section V-A): it sweeps the (t, d, p, m) space for a model, prints the
// fastest and most cost-effective plans, and can dump every design point
// for Fig. 10 / Fig. 11 style plots.
//
// It is a thin client of internal/server: the same SweepRequest the
// long-lived vtrain-server streams over /v1/sweep runs here in-process.
//
// Usage:
//
//	vtrain-dse -model mt-nlg-530b -batch 1920 -nodes 6720 -tokens 270e9 [-top 10] [-csv points.csv]
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"time"

	"vtrain/internal/core"
	"vtrain/internal/cost"
	"vtrain/internal/descfile"
	"vtrain/internal/dse"
	"vtrain/internal/hw"
	"vtrain/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vtrain-dse: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command behind a testable seam: golden CLI tests drive
// it in-process with a buffer for stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vtrain-dse", flag.ContinueOnError)
	fs.SetOutput(stderr)
	preset := fs.String("model", "mt-nlg-530b", "model preset (see descfile presets)")
	batch := fs.Int("batch", 1920, "global batch size in sequences")
	nodes := fs.Int("nodes", 6720, "cluster nodes (8 GPUs each); bounds the sweep")
	tokens := fs.Float64("tokens", 270e9, "total training tokens for cost projection")
	top := fs.Int("top", 10, "how many fastest plans to print")
	maxGPUs := fs.Int("max-gpus", 0, "optional cap on t*d*p")
	csvPath := fs.String("csv", "", "write every design point to this CSV file")
	progress := fs.Bool("progress", true, "report sweep progress on stderr")
	contention := fs.Bool("contention", false, "model topology-aware link congestion between concurrent collectives")
	cacheDir := fs.String("cache-dir", "", "persistent structural-artifact cache directory (empty = no disk cache)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Check the budget before converting it: Go's uint64 conversion of a
	// negative, NaN, or ≥ 2^64 value yields a meaningless budget.
	if !(*tokens >= 0 && *tokens < 1<<64) {
		return fmt.Errorf("-tokens must be in [0, 2^64), got %v", *tokens)
	}
	budget := uint64(*tokens)

	// One-shot process: every enumerated plan is distinct, so keep no
	// report cache.
	engOpts := []server.EngineOption{server.WithSimulatorOptions(core.WithCacheSize(0))}
	if *cacheDir != "" {
		engOpts = append(engOpts, server.WithArtifactDir(*cacheDir))
	}
	eng := server.NewEngine(engOpts...)
	sweep, err := eng.PrepareSweep(server.SweepRequest{
		Model:       descfile.ModelSection{Preset: *preset},
		Cluster:     descfile.ClusterSection{Nodes: *nodes},
		GlobalBatch: *batch,
		TotalTokens: budget,
		MaxGPUs:     *maxGPUs,
		Contention:  *contention,
	})
	if err != nil {
		return err
	}
	cluster := sweep.Cluster()

	start := time.Now()
	// Stream the sweep so long explorations show progress; points arrive
	// in completion order and are ranked afterwards. The progress line
	// keeps structural reuse visible: plans sharing a topology dedupe in
	// the shape-keyed lowering cache.
	var points []dse.Point
	sum, err := sweep.Run(func(p dse.Point) {
		points = append(points, p)
		if *progress && len(points)%1000 == 0 {
			st := sweep.CacheStats()
			fmt.Fprintf(stderr, "... %d points evaluated (%v) — structures %d hit / %d lowered\n",
				len(points), time.Since(start).Round(time.Millisecond), st.StructHits, st.StructMisses)
		}
	})
	if err != nil {
		return err
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Better(points[j]) })
	elapsed := time.Since(start)
	st := sum.Cache
	fmt.Fprintf(stdout, "explored %d design points in %v (%d graphs lowered, %.1f%% structural-cache hit rate)\n",
		len(points), elapsed.Round(time.Millisecond),
		st.Lowerings, 100*float64(st.StructHits)/float64(max(st.StructHits+st.StructMisses, 1)))
	fmt.Fprintf(stdout, "batched replay: %d plans over %d replays, mean batch width %.1f — plans sharing a shape replay one graph together\n\n",
		st.BatchedPlans, st.BatchReplays,
		float64(st.BatchedPlans)/float64(max(st.BatchReplays, 1)))

	fmt.Fprintf(stdout, "%-28s %8s %8s %7s %8s %10s %9s\n",
		"plan", "GPUs", "iter(s)", "util%", "days", "$/hour", "$total(M)")
	n := *top
	if n > len(points) {
		n = len(points)
	}
	for _, p := range points[:n] {
		tr := cost.Train(p.Report.Model, *batch, p.Report.IterTime, p.Plan.GPUs(), budget, cluster)
		fmt.Fprintf(stdout, "%-28s %8d %8.2f %7.2f %8.2f %10.0f %9.2f\n",
			p.Plan, p.Plan.GPUs(), p.Report.IterTime, 100*p.Report.Utilization,
			tr.Days, tr.DollarsPerHour, tr.TotalDollars/1e6)
	}

	if best, tr, ok := dse.CheapestOn(cluster, points, budget); ok {
		fmt.Fprintf(stdout, "\ncheapest plan: %s — %.2f days, $%.2fM, %.2f%% utilization\n",
			best.Plan, tr.Days, tr.TotalDollars/1e6, 100*tr.Utilization)
	}

	if *csvPath != "" {
		if err := dumpCSV(*csvPath, cluster, points, *batch, budget); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d points to %s\n", len(points), *csvPath)
	}
	return nil
}

func dumpCSV(path string, c hw.Cluster, points []dse.Point, batch int, tokens uint64) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// A full disk or closed pipe can surface only at Flush or Close, so
	// both errors are the function's.
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"model", "t", "d", "p", "m", "gpus", "iter_s", "util", "days", "dollars"}); err != nil {
		return err
	}
	for _, p := range points {
		tr := cost.Train(p.Report.Model, batch, p.Report.IterTime, p.Plan.GPUs(), tokens, c)
		rec := []string{
			p.Report.Model.Name,
			strconv.Itoa(p.Plan.Tensor), strconv.Itoa(p.Plan.Data),
			strconv.Itoa(p.Plan.Pipeline), strconv.Itoa(p.Plan.MicroBatch),
			strconv.Itoa(p.Plan.GPUs()),
			strconv.FormatFloat(p.Report.IterTime, 'f', 4, 64),
			strconv.FormatFloat(p.Report.Utilization, 'f', 4, 64),
			strconv.FormatFloat(tr.Days, 'f', 2, 64),
			strconv.FormatFloat(tr.TotalDollars, 'f', 0, 64),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
