// Command vtrain-cluster runs the case-study-2 multi-tenant scheduling
// experiments (Section V-B): ElasticFlow-style deadline-aware elastic
// scheduling on a 1,024-GPU cluster, with baseline (data-parallel-only)
// profiles versus vTrain-informed optimal-plan profiles.
//
// By default both systems schedule against failure-adjusted throughput
// profiles: every allocation's iteration time is derated by the goodput
// the resilience model (internal/resilience) predicts for that model at
// that GPU count, so deadlines and JCTs include failures and
// checkpoint-restart overhead. -no-resilience reproduces the ideal
// failure-free experiments; -mtbf and -ckpt-bw override the catalog's
// failure and storage assumptions.
//
//	-deadlines   Fig. 12 — deadline satisfactory ratio over traces
//	-jct         Fig. 13 — average JCT on deadline-free 32-job traces
//	-makespan    Fig. 14 — makespan with simultaneous submissions
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"vtrain/internal/cluster"
	"vtrain/internal/core"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/resilience"
	"vtrain/internal/taskgraph"
	"vtrain/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vtrain-cluster: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command behind a testable seam: golden CLI tests drive
// it in-process with a buffer for stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vtrain-cluster", flag.ContinueOnError)
	deadlines := fs.Bool("deadlines", false, "run the Fig. 12 deadline experiments")
	jct := fs.Bool("jct", false, "run the Fig. 13 JCT experiments")
	makespan := fs.Bool("makespan", false, "run the Fig. 14 makespan experiments")
	traces := fs.Int("traces", 9, "number of synthetic traces per experiment")
	gpus := fs.Int("gpus", 1024, "total cluster GPUs")
	mtbf := fs.Float64("mtbf", 0, "per-GPU mean time between failures in hours (0 = catalog default)")
	ckptBW := fs.Float64("ckpt-bw", 0, "checkpoint storage write bandwidth in GB/s (0 = catalog default)")
	restart := fs.Float64("restart", 0, "failure-recovery latency in seconds (0 = default)")
	noRes := fs.Bool("no-resilience", false, "schedule against ideal failure-free profiles")
	contention := fs.Bool("contention", false, "model topology-aware link congestion between concurrent collectives")
	timing := fs.Bool("timing", true, "report wall-clock progress")
	cacheDir := fs.String("cache-dir", "", "persistent structural-artifact cache directory (empty = no disk cache)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *mtbf < 0 || *ckptBW < 0 || *restart < 0 {
		return fmt.Errorf("-mtbf, -ckpt-bw, and -restart must be non-negative (got %v, %v, %v)", *mtbf, *ckptBW, *restart)
	}
	if !*deadlines && !*jct && !*makespan {
		*deadlines, *jct, *makespan = true, true, true
	}

	start := time.Now()
	cl := hw.PaperCluster(*gpus / 8)
	// Profile building rarely repeats a configuration (16 of about 700
	// lookups at 1,024 GPUs), so a report cache would hold reports nobody
	// reads; the structural cache still shares lowerings between them.
	simOpts := []core.Option{core.WithFidelity(taskgraph.OperatorLevel), core.WithContention(*contention), core.WithCacheSize(0)}
	if *cacheDir != "" {
		simOpts = append(simOpts, core.WithArtifactDir(*cacheDir))
	}
	sim, err := core.New(cl, simOpts...)
	if err != nil {
		return err
	}
	base, err := cluster.BuildProfiles(sim, cluster.Baseline, *gpus)
	if err != nil {
		return err
	}
	vt, err := cluster.BuildProfiles(sim, cluster.VTrainEnabled, *gpus)
	if err != nil {
		return err
	}
	if *timing {
		fmt.Fprintf(stdout, "offline profiles built in %v\n\n", time.Since(start).Round(time.Millisecond))
	}

	if !*noRes {
		opts := resilience.Options{MTBF: *mtbf * 3600, WriteBandwidth: *ckptBW * 1e9, Restart: *restart}
		if base, err = base.WithResilience(cl, opts); err != nil {
			return err
		}
		if vt, err = vt.WithResilience(cl, opts); err != nil {
			return err
		}
		printGoodput(stdout, cl, *gpus, opts)
	} else {
		fmt.Fprintf(stdout, "resilience: disabled — profiles assume uninterrupted runs\n\n")
	}

	runBoth := func(jobs []trace.Job) (b, v cluster.Outcome, err error) {
		ob, err := cluster.NewScheduler(*gpus, base).Run(jobs)
		if err != nil {
			return b, v, err
		}
		ov, err := cluster.NewScheduler(*gpus, vt).Run(jobs)
		if err != nil {
			return b, v, err
		}
		return ob, ov, nil
	}

	if *deadlines {
		for _, n := range []int{64, 128} {
			fmt.Fprintf(stdout, "Fig. 12 — deadline satisfactory ratio, %d jobs:\n", n)
			fmt.Fprintf(stdout, "%8s %12s %10s %8s\n", "trace", "ElasticFlow", "vTrain", "gain")
			var sb, sv float64
			for id := 1; id <= *traces; id++ {
				jobs, err := trace.Generate(id, trace.DefaultOptions(n))
				if err != nil {
					return err
				}
				ob, ov, err := runBoth(jobs)
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "%8d %12.3f %10.3f %7.2fx\n", id,
					ob.DeadlineSatisfactoryRatio, ov.DeadlineSatisfactoryRatio,
					ov.DeadlineSatisfactoryRatio/ob.DeadlineSatisfactoryRatio)
				sb += ob.DeadlineSatisfactoryRatio
				sv += ov.DeadlineSatisfactoryRatio
			}
			fmt.Fprintf(stdout, "%8s %12.3f %10.3f %7.2fx\n\n", "avg",
				sb/float64(*traces), sv/float64(*traces), sv/sb)
		}
	}

	if *jct {
		fmt.Fprintln(stdout, "Fig. 13 — average JCT, deadline-free 32-job traces (normalized to ElasticFlow):")
		fmt.Fprintf(stdout, "%8s %12s %10s %12s\n", "trace", "base (h)", "vTrain (h)", "normalized")
		opts := trace.DefaultOptions(32)
		opts.WithDeadlines = false
		var sum float64
		for id := 1; id <= *traces; id++ {
			jobs, err := trace.Generate(id, opts)
			if err != nil {
				return err
			}
			ob, ov, err := runBoth(jobs)
			if err != nil {
				return err
			}
			norm := ov.AvgJCT / ob.AvgJCT
			sum += norm
			fmt.Fprintf(stdout, "%8d %12.2f %10.2f %12.3f\n", id, ob.AvgJCT/3600, ov.AvgJCT/3600, norm)
		}
		fmt.Fprintf(stdout, "%8s %35.3f\n\n", "avg", sum/float64(*traces))
	}

	if *makespan {
		fmt.Fprintln(stdout, "Fig. 14 — makespan, simultaneous submission (normalized to ElasticFlow):")
		fmt.Fprintf(stdout, "%8s %12s %10s %12s\n", "jobs", "base (h)", "vTrain (h)", "normalized")
		for _, n := range []int{16, 32, 48, 64, 72} {
			jobs, err := trace.Generate(100+n, trace.Options{Jobs: n, MinIterations: 500, MaxIterations: 5000})
			if err != nil {
				return err
			}
			ob, ov, err := runBoth(jobs)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%8d %12.2f %10.2f %12.3f\n", n,
				ob.Makespan/3600, ov.Makespan/3600, ov.Makespan/ob.Makespan)
		}
		fmt.Fprintln(stdout)
	}
	if *timing {
		fmt.Fprintf(stdout, "total %v\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// printGoodput prints the goodput column of the derated profiles: per
// Table III model class, the checkpoint size and the effective-throughput
// fraction at one node and at the whole cluster — the range over which the
// scheduler's elastic allocations move.
func printGoodput(w io.Writer, cl hw.Cluster, gpus int, o resilience.Options) {
	mtbf := cl.Node.GPU.MTBF
	if o.MTBF > 0 {
		mtbf = o.MTBF
	}
	bw := cl.CheckpointBandwidth
	if o.WriteBandwidth > 0 {
		bw = o.WriteBandwidth
	}
	fmt.Fprintf(w, "resilience: per-GPU MTBF %gh, checkpoint bandwidth %g GB/s — profiles derated by goodput\n",
		mtbf/3600, bw/1e9)
	fmt.Fprintf(w, "%16s %10s %10s %10s\n", "model", "ckpt(GiB)", "good%@8", fmt.Sprintf("good%%@%d", gpus))
	for _, row := range model.TableIII() {
		line := fmt.Sprintf("%16s %10.1f", row.Config.Name, float64(row.Config.CheckpointBytes())/(1<<30))
		for _, g := range []int{8, gpus} {
			if mod, err := resilience.For(row.Config, cl, g, o); err == nil {
				line += fmt.Sprintf(" %10.2f", 100*mod.Goodput)
			} else {
				line += fmt.Sprintf(" %10s", "-")
			}
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w)
}
