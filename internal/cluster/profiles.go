// Package cluster implements case study 2 (Section V-B): multi-tenant GPU
// cluster scheduling of concurrent LLM training jobs with ElasticFlow-style
// deadline-aware elastic resource scaling.
//
// The scheduler is identical for both compared systems; what differs is the
// throughput profile it consults:
//
//   - Baseline (ElasticFlow): each model keeps the minimum tensor/pipeline
//     degree it needs to fit memory and scales only the data-parallel
//     dimension — the restriction the paper identifies as the source of
//     ElasticFlow's sub-optimal decisions;
//   - VTrainEnabled: for every allocation size, the profile holds the best
//     (t, d, p, m) plan found by vTrain's full design-space exploration,
//     guaranteed at least as fast as the baseline.
package cluster

import (
	"errors"
	"fmt"
	"sort"

	"vtrain/internal/core"
	"vtrain/internal/dse"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/resilience"
)

// System selects how job throughput profiles are obtained.
type System int

const (
	// Baseline is ElasticFlow's data-parallel-only scaling.
	Baseline System = iota
	// VTrainEnabled uses vTrain's optimal parallelization per size.
	VTrainEnabled
)

// String implements fmt.Stringer.
func (s System) String() string {
	if s == Baseline {
		return "ElasticFlow"
	}
	return "vTrain"
}

// Allocations are the GPU grant sizes the scheduler works with: powers of
// two from one node (8 GPUs) to the full 1,024-GPU cluster, matching
// ElasticFlow's power-of-two allocation policy.
func Allocations(totalGPUs int) []int {
	var out []int
	for g := 8; g <= totalGPUs; g *= 2 {
		out = append(out, g)
	}
	return out
}

// minimalTP returns the baseline's fixed (tensor, pipeline) degrees for a
// model: the smallest memory-feasible footprint, e.g. (8, 2) for the 39.1B
// model as stated in the paper.
func minimalTP(m model.Config, sim *core.Simulator) (t, p int, err error) {
	gpu := sim.Cluster().Node.GPU
	for _, tp := range [][2]int{{1, 1}, {2, 1}, {4, 1}, {8, 1}, {8, 2}, {8, 4}, {8, 8}, {8, 16}} {
		plan := parallel.Plan{
			Tensor: tp[0], Data: 1, Pipeline: tp[1],
			MicroBatch: 1, GlobalBatch: 1, Recompute: true,
		}
		if plan.PeakMemoryBytes(m) <= gpu.MemCapacity {
			return tp[0], tp[1], nil
		}
	}
	return 0, 0, fmt.Errorf("cluster: %s does not fit any baseline footprint", m.Name)
}

// Profile maps allocation size to simulated iteration time for one model.
type Profile struct {
	// Model and GlobalBatch identify the job class.
	Model       model.Config
	GlobalBatch int
	// IterTime[g] is the single-iteration time with g GPUs; only
	// feasible allocations appear.
	IterTime map[int]float64
	// Plans records the plan behind each allocation, for reports.
	Plans map[int]parallel.Plan
}

// Sizes returns the feasible allocation sizes in ascending order.
func (p *Profile) Sizes() []int {
	out := make([]int, 0, len(p.IterTime))
	for g := range p.IterTime {
		out = append(out, g)
	}
	sort.Ints(out)
	return out
}

// Rate returns iterations per second at allocation g (zero if infeasible).
func (p *Profile) Rate(g int) float64 {
	t, ok := p.IterTime[g]
	if !ok || t <= 0 {
		return 0
	}
	return 1 / t
}

// MinSize returns the smallest feasible allocation, or 0 if none.
func (p *Profile) MinSize() int {
	sizes := p.Sizes()
	if len(sizes) == 0 {
		return 0
	}
	return sizes[0]
}

// BuildProfile computes the offline throughput profile of one model class
// under the given system, across the allocation sizes. Profile building is
// where the simulator's structural cache earns its keep: the many plans of
// each VTrainEnabled sweep share a handful of structural shapes, so only
// duration binding and replay scale with the sweep size. The report cache
// matters little here: a plan's GPU count is its allocation size, so no
// plan recurs across allocation sizes, and the hits are Baseline plans
// that a later VTrainEnabled sweep meets again. The commands that build
// profiles therefore run with core.WithCacheSize(0).
func BuildProfile(sim *core.Simulator, system System, m model.Config, globalBatch int, allocs []int) (*Profile, error) {
	prof := &Profile{
		Model:       m,
		GlobalBatch: globalBatch,
		IterTime:    make(map[int]float64),
		Plans:       make(map[int]parallel.Plan),
	}
	switch system {
	case Baseline:
		t, p, err := minimalTP(m, sim)
		if err != nil {
			return nil, err
		}
		for _, g := range allocs {
			if g%(t*p) != 0 {
				continue
			}
			d := g / (t * p)
			// ElasticFlow scales d and keeps the micro-batch at the
			// largest memory-feasible power of two.
			for _, mb := range []int{8, 4, 2, 1} {
				plan := parallel.Plan{
					Tensor: t, Data: d, Pipeline: p,
					MicroBatch: mb, GlobalBatch: globalBatch,
					GradientBuckets: 2, Recompute: true,
				}
				if globalBatch%(d*mb) != 0 {
					continue
				}
				if err := plan.Validate(m, sim.Cluster()); err != nil {
					continue
				}
				if !plan.FitsMemory(m, sim.Cluster().Node.GPU) {
					continue
				}
				rep, err := sim.Simulate(m, plan)
				if err != nil {
					return nil, err
				}
				prof.IterTime[g] = rep.IterTime
				prof.Plans[g] = plan
				break
			}
		}
	case VTrainEnabled:
		for _, g := range allocs {
			space := dse.DefaultSpace(m, globalBatch)
			space.ExactGPUs = g
			// Offline profiling across many allocation sizes: cap the
			// pathological tiny-d plans and the cross-node TP degree
			// that never wins at this scale.
			space.TensorWidths = []int{1, 2, 4, 8}
			space.MaxMicroBatches = 256
			// Stream the sweep and keep only the fastest plan; the
			// simulator's plan-level cache dedupes configurations that
			// recur across systems and job classes (each sweep fixes the
			// GPU count, so none recurs across allocation sizes).
			best, found, err := dse.ExploreBest(sim, m, space)
			if err != nil || !found {
				continue // no feasible plan at this size
			}
			prof.IterTime[g] = best.Report.IterTime
			prof.Plans[g] = best.Plan
		}
	default:
		return nil, fmt.Errorf("cluster: unknown system %d", system)
	}
	if len(prof.IterTime) == 0 {
		return nil, fmt.Errorf("cluster: %s has no feasible allocation under %v", m.Name, system)
	}
	return prof, nil
}

// ProfileSet holds the offline profiles for every job class.
type ProfileSet struct {
	System   System
	profiles map[string]*Profile
}

// BuildProfiles profiles the Table III model zoo for a system.
func BuildProfiles(sim *core.Simulator, system System, totalGPUs int) (*ProfileSet, error) {
	allocs := Allocations(totalGPUs)
	set := &ProfileSet{System: system, profiles: make(map[string]*Profile)}
	for _, row := range model.TableIII() {
		p, err := BuildProfile(sim, system, row.Config, row.Batch, allocs)
		if err != nil {
			return nil, err
		}
		set.profiles[row.Config.Name] = p
	}
	return set, nil
}

// WithResilience returns a derated copy of the profile set: every
// allocation's iteration time is divided by the goodput fraction the
// resilience model predicts for that model at that GPU count on cluster c
// (failures scale with the allocation, checkpoint size with the model), so
// the scheduler's admission, deadline, and allocation decisions account
// for failures and checkpoint-restart overhead. Allocations whose goodput
// is non-positive — the job would fail faster than it can checkpoint — are
// dropped like memory-infeasible ones; a model class that loses every
// allocation is an error. The receiver is not modified.
func (s *ProfileSet) WithResilience(c hw.Cluster, o resilience.Options) (*ProfileSet, error) {
	out := &ProfileSet{System: s.System, profiles: make(map[string]*Profile, len(s.profiles))}
	for name, p := range s.profiles {
		np := &Profile{
			Model:       p.Model,
			GlobalBatch: p.GlobalBatch,
			IterTime:    make(map[int]float64, len(p.IterTime)),
			Plans:       make(map[int]parallel.Plan, len(p.Plans)),
		}
		for g, it := range p.IterTime {
			mod, err := resilience.For(p.Model, c, g, o)
			if errors.Is(err, resilience.ErrUnreliable) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("cluster: derating %s at %d GPUs: %w", name, g, err)
			}
			np.IterTime[g] = it / mod.Goodput
			np.Plans[g] = p.Plans[g]
		}
		if len(np.IterTime) == 0 {
			return nil, fmt.Errorf("cluster: %s has no allocation with positive goodput on this cluster", name)
		}
		out.profiles[name] = np
	}
	return out, nil
}

// For returns the profile of a model class.
func (s *ProfileSet) For(m model.Config) (*Profile, error) {
	p, ok := s.profiles[m.Name]
	if !ok {
		return nil, fmt.Errorf("cluster: no profile for model %q", m.Name)
	}
	return p, nil
}
