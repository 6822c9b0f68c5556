// Command multitenant reproduces a slice of case study 2 (Section V-B) as
// an example of the cluster-scheduling API: it profiles the Table III model
// zoo offline for both systems (ElasticFlow's data-parallel-only scaling
// vs. vTrain's optimal plans), replays one synthetic 64-job trace on a
// 1,024-GPU cluster, and compares deadline satisfaction.
package main

import (
	"fmt"
	"log"

	"vtrain/internal/cluster"
	"vtrain/internal/core"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/taskgraph"
	"vtrain/internal/trace"
)

func main() {
	const gpus = 1024
	// Profiles rarely repeat a configuration, so the report cache is off.
	sim, err := core.New(hw.PaperCluster(gpus/8), core.WithFidelity(taskgraph.OperatorLevel), core.WithCacheSize(0))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("building offline throughput profiles (Table III models)...")
	base, err := cluster.BuildProfiles(sim, cluster.Baseline, gpus)
	if err != nil {
		log.Fatal(err)
	}
	vt, err := cluster.BuildProfiles(sim, cluster.VTrainEnabled, gpus)
	if err != nil {
		log.Fatal(err)
	}

	// Show why vTrain helps: iteration time by allocation size.
	for _, row := range model.TableIII() {
		pb, _ := base.For(row.Config)
		pv, _ := vt.For(row.Config)
		fmt.Printf("\n%s (batch %d): iteration seconds by GPU allocation\n", row.Config.Name, row.Batch)
		fmt.Printf("%8s %14s %14s %12s\n", "GPUs", "ElasticFlow", "vTrain", "speedup")
		for _, g := range cluster.Allocations(gpus) {
			tb, okB := pb.IterTime[g]
			tv, okV := pv.IterTime[g]
			switch {
			case okB && okV:
				fmt.Printf("%8d %14.2f %14.2f %11.2fx\n", g, tb, tv, tb/tv)
			case okV:
				fmt.Printf("%8d %14s %14.2f %12s\n", g, "infeasible", tv, "-")
			}
		}
	}

	jobs, err := trace.Generate(1, trace.DefaultOptions(64))
	if err != nil {
		log.Fatal(err)
	}
	ob, err := cluster.NewScheduler(gpus, base).Run(jobs)
	if err != nil {
		log.Fatal(err)
	}
	ov, err := cluster.NewScheduler(gpus, vt).Run(jobs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n64-job trace on %d GPUs:\n", gpus)
	fmt.Printf("  deadline satisfactory ratio: ElasticFlow %.3f, vTrain %.3f (%.2fx)\n",
		ob.DeadlineSatisfactoryRatio, ov.DeadlineSatisfactoryRatio,
		ov.DeadlineSatisfactoryRatio/ob.DeadlineSatisfactoryRatio)
	fmt.Printf("  cluster GPU-hours consumed:  ElasticFlow %.0f, vTrain %.0f\n",
		ob.GPUSeconds/3600, ov.GPUSeconds/3600)
}
