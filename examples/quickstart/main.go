// Command quickstart simulates one training iteration of GPT-3 175B on a
// 128-node (1,024 GPU) A100 cluster — the scenario of the paper's Fig. 1 —
// and prints the predicted iteration time, utilization, and end-to-end
// training projection for 300B tokens.
//
// Under the hood, core.Simulator runs the full pipeline per simulation:
// taskgraph.LowerPlan expands each operator into its kernel tasks in an
// immutable task graph as the opgraph builder emits the operators, and the
// Algorithm 1 replay engine walks that graph with pooled scratch state. Results are memoized
// per (model, plan, fidelity), so re-simulating this configuration is a
// cache hit. See docs/ARCHITECTURE.md for the layer contracts.
package main

import (
	"fmt"
	"log"
	"sort"

	"vtrain/internal/core"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
)

func main() {
	cluster := hw.PaperCluster(128) // 128 nodes x 8 A100 = 1,024 GPUs
	sim, err := core.New(cluster)
	if err != nil {
		log.Fatal(err)
	}

	m := model.GPT3175B()
	plan := parallel.Plan{
		Tensor:          8,
		Data:            16,
		Pipeline:        8,
		MicroBatch:      2,
		GlobalBatch:     1536,
		Schedule:        parallel.OneFOneB,
		GradientBuckets: 2,
		// GPT-3-scale activations exceed 80 GB without checkpointing —
		// the same trade real Megatron runs make.
		Recompute: true,
	}

	rep, train, err := sim.Train(m, plan, 300e9)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("model:            %s\n", m)
	fmt.Printf("plan:             %s  (%d GPUs)\n", plan, plan.GPUs())
	fmt.Printf("iteration time:   %.3f s  (%d tasks replayed)\n", rep.IterTime, rep.Tasks)
	fmt.Printf("GPU utilization:  %.1f %%\n", 100*rep.Utilization)
	fmt.Printf("compute/comm:     %.3f s / %.3f s per stage (bubble %.1f %%)\n",
		rep.ComputeSeconds, rep.CommSeconds, 100*rep.BubbleFraction)
	fmt.Printf("peak memory:      %.1f GiB per GPU (fits: %v)\n",
		float64(rep.PeakMemoryBytes)/(1<<30), rep.FitsMemory)
	fmt.Printf("300B tokens:      %d iterations, %.1f days, $%.2fM\n",
		train.Iterations, train.Days, train.TotalDollars/1e6)

	fmt.Println("\nper-class busy time across all stages (one data replica):")
	classes := make([]string, 0, len(rep.Breakdown))
	for c := range rep.Breakdown {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return rep.Breakdown[classes[i]] > rep.Breakdown[classes[j]] })
	for _, c := range classes {
		fmt.Printf("  %-14s %8.3f s\n", c, rep.Breakdown[c])
	}
}
