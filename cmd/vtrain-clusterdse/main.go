// Command vtrain-clusterdse runs the joint cluster-design exploration: it
// sweeps (GPU generation x node count x interconnect x parallel plan) for a
// model, prices every candidate with the hardware catalog, and prints the
// cost-ranked candidates, the (cost, days) Pareto frontier, and — given a
// deadline — the cheapest cluster that meets it. This is the paper's
// Table II question ("which cluster should train this model?") opened into
// a search instead of a hand comparison.
//
// By default every candidate is priced with the resilience model of
// internal/resilience: failures (catalog-pinned per-GPU MTBF) and
// Young–Daly checkpoint-restart overhead stretch the run by 1/goodput, so
// bigger-but-faster clusters pay a visible reliability tax. -no-resilience
// reproduces the ideal failure-free ranking.
//
// It is a thin client of internal/server: the same ClusterDSERequest the
// long-lived vtrain-server streams over /v1/clusterdse runs here
// in-process.
//
// Usage:
//
//	vtrain-clusterdse -model megatron-18.4b -batch 1024 -tokens 300e9 \
//	    -nodes 4,8,16,32 [-offerings all] [-deadline 30] [-cross-interconnects] \
//	    [-mtbf 50000] [-ckpt-bw 25] [-no-resilience] [-top 10] [-csv points.csv]
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
	"strings"
	"time"

	"vtrain/internal/clusterdse"
	"vtrain/internal/core"
	"vtrain/internal/descfile"
	"vtrain/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vtrain-clusterdse: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command behind a testable seam: golden CLI tests drive
// it in-process with a buffer for stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vtrain-clusterdse", flag.ContinueOnError)
	fs.SetOutput(stderr)
	preset := fs.String("model", "megatron-18.4b", "model preset (see descfile presets)")
	batch := fs.Int("batch", 1024, "global batch size in sequences")
	tokens := fs.Float64("tokens", 300e9, "total training tokens for cost projection")
	nodesList := fs.String("nodes", "4,8,16,32", "comma-separated cluster sizes to provision, in nodes")
	offerings := fs.String("offerings", "all", `comma-separated catalog offerings, or "all"`)
	cross := fs.Bool("cross-interconnects", false, "also try every node type with every interconnect tier")
	deadline := fs.Float64("deadline", 0, "training deadline in days (0 = no deadline)")
	top := fs.Int("top", 10, "how many cheapest configurations to print")
	csvPath := fs.String("csv", "", "write every design point to this CSV file")
	mtbf := fs.Float64("mtbf", 0, "per-GPU mean time between failures in hours (0 = catalog default per generation)")
	ckptBW := fs.Float64("ckpt-bw", 0, "checkpoint storage write bandwidth in GB/s (0 = catalog default per offering)")
	restart := fs.Float64("restart", 0, "failure-recovery latency in seconds (0 = default)")
	noRes := fs.Bool("no-resilience", false, "rank by ideal failure-free cost (pre-resilience behavior)")
	contention := fs.Bool("contention", false, "model topology-aware link congestion between concurrent collectives")
	progress := fs.Bool("progress", true, "report sweep progress on stderr")
	cacheDir := fs.String("cache-dir", "", "persistent structural-artifact cache directory (empty = no disk cache)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Check the budget before converting it: Go's uint64 conversion of a
	// negative, NaN, or ≥ 2^64 value yields a meaningless budget.
	if !(*tokens >= 0 && *tokens < 1<<64) {
		return fmt.Errorf("-tokens must be in [0, 2^64), got %v", *tokens)
	}

	nodeCounts, err := parseInts(*nodesList)
	if err != nil {
		return err
	}
	if *mtbf < 0 || *ckptBW < 0 || *restart < 0 {
		return fmt.Errorf("-mtbf, -ckpt-bw, and -restart must be non-negative (got %v, %v, %v)", *mtbf, *ckptBW, *restart)
	}
	var offNames []string
	if *offerings != "all" {
		for _, n := range strings.Split(*offerings, ",") {
			offNames = append(offNames, strings.TrimSpace(n))
		}
	}
	resSection := &descfile.ResilienceSection{
		Disabled:               *noRes,
		MTBFHours:              *mtbf,
		CheckpointBandwidthGBs: *ckptBW,
		RestartSeconds:         *restart,
	}

	// One-shot process: every (candidate, plan) pair is distinct, so keep
	// no report cache.
	engOpts := []server.EngineOption{server.WithSimulatorOptions(core.WithCacheSize(0))}
	if *cacheDir != "" {
		engOpts = append(engOpts, server.WithArtifactDir(*cacheDir))
	}
	eng := server.NewEngine(engOpts...)
	sweep, err := eng.PrepareClusterDSE(server.ClusterDSERequest{
		Model:              descfile.ModelSection{Preset: *preset},
		GlobalBatch:        *batch,
		TotalTokens:        uint64(*tokens),
		NodeCounts:         nodeCounts,
		Offerings:          offNames,
		CrossInterconnects: *cross,
		Resilience:         resSection,
		Contention:         *contention,
	})
	if err != nil {
		return err
	}
	m := sweep.Model()
	res := sweep.Resilient()

	start := time.Now()
	var points []clusterdse.Point
	sum, err := sweep.Run(func(p clusterdse.Point) {
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
	sorted := append([]clusterdse.Point(nil), points...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Better(sorted[j]) })
	st := sum.Cache
	fmt.Fprintf(stdout, "explored %d (offering x nodes x plan) points across %d hardware candidates\n",
		len(points), sum.Candidates)
	fmt.Fprintf(stdout, "structural cache: %d graphs lowered, %.1f%% hit rate — hardware variants of a shape share one lowering\n",
		st.Lowerings, 100*float64(st.StructHits)/float64(max(st.StructHits+st.StructMisses, 1)))
	fmt.Fprintf(stdout, "batched replay: %d plans over %d replays, mean batch width %.1f — shapes batch across hardware candidates\n",
		st.BatchedPlans, st.BatchReplays,
		float64(st.BatchedPlans)/float64(max(st.BatchReplays, 1)))
	if res {
		fmt.Fprintf(stdout, "resilience: failure + checkpoint-restart overhead priced in (Young–Daly intervals; -no-resilience for the ideal ranking)\n\n")
	} else {
		fmt.Fprintf(stdout, "resilience: disabled — costs assume an uninterrupted run\n\n")
	}

	fmt.Fprintf(stdout, "%d cheapest configurations for %s (%.0fB tokens):\n", *top, m, *tokens/1e9)
	printHeader(stdout, res)
	for i, p := range sorted {
		if i >= *top {
			break
		}
		printPoint(stdout, p, res)
	}

	front := clusterdse.ParetoFrontier(sorted)
	fmt.Fprintf(stdout, "\nPareto frontier — no cluster is both cheaper and faster (%d points):\n", len(front))
	printHeader(stdout, res)
	for _, p := range front {
		printPoint(stdout, p, res)
	}

	if *deadline > 0 {
		if best, ok := clusterdse.CheapestWithinDeadline(sorted, *deadline); ok {
			fmt.Fprintf(stdout, "\ncheapest cluster meeting the %.0f-day deadline:\n", *deadline)
			printHeader(stdout, res)
			printPoint(stdout, best, res)
		} else {
			fmt.Fprintf(stdout, "\nno configuration trains %s within %.0f days — add nodes or offerings\n", m.Name, *deadline)
		}
	}

	if *csvPath != "" {
		if err := dumpCSV(*csvPath, sorted, m.Name); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote %d points to %s\n", len(sorted), *csvPath)
	}
	return nil
}

func printHeader(w io.Writer, res bool) {
	if res {
		fmt.Fprintf(w, "  %-14s %6s %6s %-24s %8s %7s %6s %9s %10s\n",
			"offering", "nodes", "GPUs", "plan", "iter(s)", "util%", "good%", "eff-days", "eff-$(M)")
		return
	}
	fmt.Fprintf(w, "  %-14s %6s %6s %-24s %8s %7s %8s %9s %10s\n",
		"offering", "nodes", "GPUs", "plan", "iter(s)", "util%", "days", "$/hour", "$total(M)")
}

func printPoint(w io.Writer, p clusterdse.Point, res bool) {
	if res {
		fmt.Fprintf(w, "  %-14s %6d %6d %-24s %8.2f %7.2f %6.2f %9.2f %10.2f\n",
			p.Offering.Name, p.Nodes, p.GPUs(), p.Plan,
			p.Report.IterTime, 100*p.Report.Utilization,
			100*p.Resilience.GoodputFraction, p.Resilience.EffectiveDays, p.Resilience.EffectiveDollars/1e6)
		return
	}
	fmt.Fprintf(w, "  %-14s %6d %6d %-24s %8.2f %7.2f %8.2f %9.0f %10.2f\n",
		p.Offering.Name, p.Nodes, p.GPUs(), p.Plan,
		p.Report.IterTime, 100*p.Report.Utilization,
		p.Training.Days, p.Training.DollarsPerHour, p.Training.TotalDollars/1e6)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad node count %q: %w", f, err)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no node counts given")
	}
	return out, nil
}

func dumpCSV(path string, points []clusterdse.Point, name string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// A full disk or closed pipe can surface at any Write, at Flush, or
	// at Close: close the file on every path and keep the first error.
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"model", "offering", "interconnect", "nodes", "gpus",
		"t", "d", "p", "m", "iter_s", "util", "days", "gpu_hours", "dollars",
		"goodput", "eff_days", "eff_dollars"}); err != nil {
		return err
	}
	for _, p := range points {
		rec := []string{
			name, p.Offering.Name, p.Offering.Interconnect.Name,
			strconv.Itoa(p.Nodes), strconv.Itoa(p.GPUs()),
			strconv.Itoa(p.Plan.Tensor), strconv.Itoa(p.Plan.Data),
			strconv.Itoa(p.Plan.Pipeline), strconv.Itoa(p.Plan.MicroBatch),
			strconv.FormatFloat(p.Report.IterTime, 'f', 4, 64),
			strconv.FormatFloat(p.Report.Utilization, 'f', 4, 64),
			strconv.FormatFloat(p.Training.Days, 'f', 2, 64),
			strconv.FormatFloat(p.Training.GPUHours, 'f', 0, 64),
			strconv.FormatFloat(p.Training.TotalDollars, 'f', 0, 64),
			"", "", "",
		}
		if p.Resilience.GoodputFraction > 0 {
			rec[14] = strconv.FormatFloat(p.Resilience.GoodputFraction, 'f', 4, 64)
			rec[15] = strconv.FormatFloat(p.Resilience.EffectiveDays, 'f', 2, 64)
			rec[16] = strconv.FormatFloat(p.Resilience.EffectiveDollars, 'f', 0, 64)
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
