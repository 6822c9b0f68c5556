// Package validate regenerates the paper's Section IV validation study
// (Fig. 9): vTrain-predicted single-iteration training times compared
// against "measured" times from the high-fidelity testbed, on the same two
// campaigns the paper runs — 1,440 single-node (8-GPU) points and 116
// multi-node (512-GPU) points — reporting MAPE and R².
package validate

import (
	"fmt"
	"runtime"
	"sync"

	"vtrain/internal/core"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/stats"
	"vtrain/internal/taskgraph"
	"vtrain/internal/testbed"
)

// Case is one validation point: a model and a parallelization plan.
type Case struct {
	Model model.Config
	Plan  parallel.Plan
}

// Result is the outcome of a validation campaign.
type Result struct {
	Cases     []Case
	Predicted []float64
	Measured  []float64
	MAPE      float64
	R2        float64
}

// SingleNodeCases generates the 1,440-point single-node campaign: LLM
// configurations and tensor/data/pipeline plans that fit inside one 8-GPU
// node, mirroring "various LLM model configurations and parallelization
// plans" with measured iteration times up to ~1.8 s.
func SingleNodeCases() []Case {
	hiddens := []struct{ h, heads int }{
		{1024, 16}, {1536, 16}, {2048, 16}, {2560, 32}, {3072, 32},
	}
	layerss := []int{2, 4}
	seqs := []int{1024, 2048}
	micros := []int{1, 2, 4}
	plans := [][3]int{ // (t, d, p) with t*d*p <= 8
		{1, 1, 1}, {1, 2, 1}, {1, 4, 1}, {1, 8, 1},
		{2, 1, 1}, {2, 2, 1}, {2, 4, 1},
		{4, 1, 1}, {4, 2, 1}, {8, 1, 1},
		{1, 2, 2}, {2, 1, 2},
	}
	nmbs := []int{4, 8}

	var cases []Case
	for _, hh := range hiddens {
		for _, l := range layerss {
			for _, s := range seqs {
				for _, mb := range micros {
					for _, tdp := range plans {
						for _, nmb := range nmbs {
							m := model.Config{
								Name:   fmt.Sprintf("val-h%d-L%d-s%d", hh.h, l, s),
								Hidden: hh.h, Layers: l, SeqLen: s,
								Heads: hh.heads, Vocab: 51200,
							}
							p := parallel.Plan{
								Tensor: tdp[0], Data: tdp[1], Pipeline: tdp[2],
								MicroBatch:      mb,
								GlobalBatch:     tdp[1] * mb * nmb,
								GradientBuckets: 1,
							}
							if p.Pipeline > l {
								continue
							}
							cases = append(cases, Case{Model: m, Plan: p})
						}
					}
				}
			}
		}
	}
	return cases
}

// MultiNodeCases generates the 116-point multi-node campaign on 512 GPUs,
// based on the Megatron-LM scale-down model configurations the paper's
// validation data uses.
func MultiNodeCases() []Case {
	models := []model.Config{
		model.Megatron3_6B(),
		model.Megatron18_4B(),
		model.Megatron39_1B(),
	}
	type planShape struct{ t, d, p, m, batch int }
	shapes := []planShape{
		{1, 64, 1, 2, 512}, {1, 64, 1, 4, 512}, {1, 64, 1, 8, 512},
		{2, 32, 1, 4, 512}, {2, 32, 1, 8, 512}, {2, 32, 1, 16, 512},
		{4, 16, 1, 2, 512}, {4, 16, 1, 4, 512}, {4, 32, 1, 4, 1024},
		{8, 8, 1, 2, 512}, {8, 16, 1, 4, 1024}, {8, 32, 1, 4, 1024},
		{8, 32, 1, 8, 1024}, {8, 16, 2, 2, 512}, {8, 16, 2, 4, 1024},
		{8, 32, 2, 4, 1536}, {8, 16, 4, 2, 1024}, {4, 32, 4, 2, 1024},
		{4, 32, 2, 2, 512}, {4, 16, 8, 1, 512}, {2, 32, 8, 1, 512},
		{8, 8, 8, 1, 512}, {4, 64, 2, 2, 1024}, {2, 64, 4, 1, 512},
		{8, 64, 1, 4, 1536}, {4, 64, 1, 4, 1024}, {2, 64, 2, 2, 1024},
		{1, 32, 2, 4, 512}, {8, 4, 16, 1, 512}, {4, 8, 16, 1, 512},
		{2, 16, 16, 1, 512}, {8, 8, 4, 1, 512}, {4, 16, 4, 1, 512},
		{2, 32, 4, 2, 512}, {1, 64, 2, 2, 512}, {8, 16, 1, 8, 1024},
		{4, 8, 2, 4, 512}, {2, 8, 4, 2, 512}, {8, 2, 2, 8, 512},
		{4, 4, 8, 1, 512},
	}
	var cases []Case
	for _, m := range models {
		for _, s := range shapes {
			p := parallel.Plan{
				Tensor: s.t, Data: s.d, Pipeline: s.p,
				MicroBatch:      s.m,
				GlobalBatch:     s.batch,
				GradientBuckets: 2,
			}
			if s.p > m.Layers || m.Heads%s.t != 0 {
				continue
			}
			if s.batch%(s.d*s.m) != 0 {
				continue
			}
			cases = append(cases, Case{Model: m, Plan: p})
		}
	}
	// The paper secured 116 multi-node data points; trim to the same
	// count for a like-for-like campaign.
	if len(cases) > 116 {
		cases = cases[:116]
	}
	return cases
}

// Run executes a campaign: for every case, vTrain predicts the iteration
// time and the testbed measures it; the two series are compared. Cases are
// evaluated in parallel across CPU cores.
func Run(cluster hw.Cluster, cases []Case, tbCfg testbed.Config, seed uint64) (Result, error) {
	sim, err := core.New(cluster, core.WithFidelity(taskgraph.OperatorLevel))
	if err != nil {
		return Result{}, err
	}
	return run(sim, cases, tbCfg, seed)
}

// run predicts every case with sim and measures it on a testbed of sim's
// cluster.
func run(sim *core.Simulator, cases []Case, tbCfg testbed.Config, seed uint64) (Result, error) {
	tb := testbed.New(sim.Cluster(), tbCfg, seed)

	res := Result{
		Cases:     cases,
		Predicted: make([]float64, len(cases)),
		Measured:  make([]float64, len(cases)),
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, c := range cases {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, c Case) {
			defer wg.Done()
			defer func() { <-sem }()
			rep, err := sim.Simulate(c.Model, c.Plan)
			if err == nil {
				res.Predicted[i] = rep.IterTime
				res.Measured[i], err = tb.Measure(c.Model, c.Plan)
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("case %d (%s %s): %w", i, c.Model.Name, c.Plan, err)
				}
				mu.Unlock()
			}
		}(i, c)
	}
	wg.Wait()
	if firstErr != nil {
		return Result{}, firstErr
	}

	var err error
	if res.MAPE, err = stats.MAPE(res.Predicted, res.Measured); err != nil {
		return Result{}, err
	}
	if res.R2, err = stats.R2(res.Predicted, res.Measured); err != nil {
		return Result{}, err
	}
	return res, nil
}
