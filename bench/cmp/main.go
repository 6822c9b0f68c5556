// Command cmp compares two sets of repository benchmark runs — typically
// the parent commit and a change — workload by workload and metric by
// metric. Each set is one or more files the benchmark wrote with -out: a
// file, a directory of them, or a glob.
//
//	go run ./bench/cmp [-bench BENCHMARK.json] [-agree] BASE NEW
//
// For every end-to-end metric it prints each side's median and quartiles,
// the pairs the new side won (runs paired in seed order, ties counting for
// neither) and a verdict:
//
//   - improved: the new side won at least nine pairs in ten and its median
//     is better by more than the base side's interquartile distance;
//   - no worse: the new median is worse by at most the metric's bound, and
//     both sides' spreads fit within the bound — or every new run beats
//     every base run;
//   - unresolved: a side's spread is wider than the bound, so a difference
//     within it cannot be told from noise;
//   - regressed: the new median is worse by more than the bound.
//
// Per-layer metrics from traced runs are listed with their medians, without
// a verdict: they explain an end-to-end change, they do not gate one. With
// -agree, cmp instead checks that two sets of runs of the same commit agree:
// at least five runs a side, medians within the bound of each other, and
// both spreads within the bound. It exits 1 on a regression (or, with
// -agree, a disagreement).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vtrain/bench/stat"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// record is the part of a benchmark -out line cmp reads.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Env      struct {
		CanaryMs float64 `json:"canary_ms"`
	} `json:"env"`
	Result struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark description with the metrics' directions and bounds")
	agree := fs.Bool("agree", false, "check that two sets of runs of one commit agree within the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: cmp [-bench BENCHMARK.json] [-agree] BASE NEW")
		return 2
	}
	var spec benchSpec
	data, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "cmp:", err)
		return 2
	}
	base, err := load(fs.Arg(0))
	if err == nil {
		var next []record
		next, err = load(fs.Arg(1))
		if err == nil {
			return report(stdout, spec, base, next, *agree)
		}
	}
	fmt.Fprintln(stderr, "cmp:", err)
	return 2
}

// load reads every record of a file, a directory of files, or a glob.
func load(arg string) ([]record, error) {
	paths, err := filepath.Glob(arg)
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(arg); err == nil && fi.IsDir() {
		paths, err = filepath.Glob(filepath.Join(arg, "*"))
		if err != nil {
			return nil, err
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no result files", arg)
	}
	var recs []record
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) == "" {
				continue
			}
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			recs = append(recs, r)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Seed < recs[j].Seed })
	return recs, nil
}

// values collects one metric of one workload over the runs of one kind
// (untraced or traced), in seed order.
func values(recs []record, workload string, trace int, metric string) []float64 {
	var vs []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func report(w io.Writer, spec benchSpec, base, next []record, agree bool) int {
	workloads := map[string]bool{}
	for _, r := range append(append([]record(nil), base...), next...) {
		workloads[r.Workload] = true
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "host canary median: base %.2f ms, new %.2f ms\n", canary(base), canary(next))
	for _, side := range []struct {
		name string
		recs []record
	}{{"base", base}, {"new", next}} {
		for _, r := range side.recs {
			if !r.Result.Correct {
				fmt.Fprintf(w, "warning: %s run of %s seed %d was not correct\n", side.name, r.Workload, r.Seed)
			}
		}
	}
	status := 0
	for _, wl := range names {
		fmt.Fprintf(w, "\n%s\n", wl)
		for _, m := range spec.EndToEnd {
			b, n := values(base, wl, 0, m.Name), values(next, wl, 0, m.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			var verdict string
			if agree {
				var ok bool
				verdict, ok = agreement(b, n, m.Bound)
				if !ok {
					status = 1
				}
			} else {
				v, wins, pairs := judge(b, n, m.Better == "higher", m.Bound)
				verdict = fmt.Sprintf("%d/%d pairs  %s", wins, pairs, v)
				if v == regressed {
					status = 1
				}
			}
			fmt.Fprintf(w, "  %-24s %s   %s   %+6.1f%%   %s\n", m.Name+" ("+m.Unit+")",
				summary(b), summary(n), 100*(stat.Median(n)/stat.Median(b)-1), verdict)
		}
		for _, m := range spec.PerLayer {
			b, n := values(base, wl, 1, m.Name), values(next, wl, 1, m.Name)
			if len(b) == 0 || len(n) == 0 || (stat.Median(b) == 0 && stat.Median(n) == 0) {
				continue
			}
			fmt.Fprintf(w, "  %-48s %12.4g %12.4g %s\n", m.Name+" ("+m.Unit+")", stat.Median(b), stat.Median(n), m.Better)
		}
	}
	return status
}

// canary is the median host canary over a set's runs: a set measured on a
// slower host reads higher.
func canary(recs []record) float64 {
	var vs []float64
	for _, r := range recs {
		vs = append(vs, r.Env.CanaryMs)
	}
	return stat.Median(vs)
}

func summary(vs []float64) string {
	q1, q2, q3 := stat.Quartiles(vs)
	return fmt.Sprintf("%10.4g [%.4g, %.4g] n=%d", q2, q1, q3, len(vs))
}

// Verdicts on one end-to-end metric of one workload.
const (
	improved   = "improved"
	noWorse    = "no worse"
	unresolved = "unresolved"
	regressed  = "regressed"
)

// judge compares the new runs with the base runs of one metric: runs are
// paired in order, and bound is the share of the base median the metric may
// worsen by.
func judge(base, next []float64, higherBetter bool, bound float64) (verdict string, wins, pairs int) {
	sign := -1.0
	if higherBetter {
		sign = 1
	}
	pairs = min(len(base), len(next))
	for i := 0; i < pairs; i++ {
		if sign*(next[i]-base[i]) > 0 {
			wins++
		}
	}
	bq1, bmed, bq3 := stat.Quartiles(base)
	gain := sign * (stat.Median(next) - bmed)
	if pairs > 0 && 10*wins >= 9*pairs && gain > bq3-bq1 {
		return improved, wins, pairs
	}
	if math.Max(stat.Spread(base), stat.Spread(next)) > bound {
		if dominates(base, next, sign) {
			return noWorse, wins, pairs
		}
		return unresolved, wins, pairs
	}
	if -gain <= bound*math.Abs(bmed) {
		return noWorse, wins, pairs
	}
	return regressed, wins, pairs
}

// dominates reports whether every new run reads better than every base run.
func dominates(base, next []float64, sign float64) bool {
	for _, b := range base {
		for _, n := range next {
			if sign*(n-b) <= 0 {
				return false
			}
		}
	}
	return true
}

// agreement checks two sets of runs of one commit against one bound: at
// least five runs a side, medians within the bound of each other, and each
// side's spread within the bound.
func agreement(a, b []float64, bound float64) (string, bool) {
	drift := math.Abs(stat.Median(b)/stat.Median(a) - 1)
	sa, sb := stat.Spread(a), stat.Spread(b)
	ok := len(a) >= 5 && len(b) >= 5 && drift <= bound && sa <= bound && sb <= bound
	verdict := "agree"
	if !ok {
		verdict = "disagree"
	}
	return fmt.Sprintf("drift %.1f%%, spreads %.1f%% / %.1f%% (bound %.0f%%)  %s", 100*drift, 100*sa, 100*sb, 100*bound, verdict), ok
}
