// Package dse performs the design-space exploration of Section V-A: given a
// model, a cluster, and a global batch, it enumerates every valid
// (t, d, p, m)-way 3D-parallel plan, simulates each with vTrain, and ranks
// the candidates by iteration time, GPU utilization, or end-to-end training
// cost — the search that produced Fig. 10, Fig. 11, Table I, and Table II.
//
// Plans whose activations exceed device memory automatically retry with
// full activation recomputation (exactly what a practitioner would do);
// plans that still do not fit are excluded during enumeration, so every
// explored point is memory-feasible.
//
// A sweep's cost structure leans on the simulator's two cache levels: the
// plan-level report cache dedupes repeated (model, plan) configurations,
// and the shape-keyed structural cache lets the thousands of enumerated
// plans share a few dozen lowered task graphs — each point then pays only
// duration binding and replay, not graph construction. Simulator.CacheStats
// exposes both hit rates for sweep diagnostics.
package dse

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"vtrain/internal/core"
	"vtrain/internal/cost"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
)

// Space describes the sweep.
type Space struct {
	// TensorWidths are the tensor-parallel degrees to explore
	// (Fig. 10 uses 4, 8, 16; tmax = 16).
	TensorWidths []int
	// DataWidths are the data-parallel degrees (Fig. 10: up to 32).
	DataWidths []int
	// PipelineDepths are the pipeline degrees (Fig. 10: up to 105).
	PipelineDepths []int
	// MicroBatches are the per-replica micro-batch sizes.
	MicroBatches []int
	// GlobalBatch is the iteration batch in sequences.
	GlobalBatch int
	// GradientBuckets configures DP overlap for every candidate.
	GradientBuckets int
	// Schedule is the pipeline schedule for every candidate.
	Schedule parallel.Schedule
	// MaxGPUs, when positive, caps t*d*p.
	MaxGPUs int
	// ExactGPUs, when positive, requires t*d*p to match exactly (used
	// for the fixed-budget comparisons of Table II).
	ExactGPUs int
	// MaxMicroBatches, when positive, skips plans whose per-pipeline
	// micro-batch count exceeds the limit. Very large counts arise only
	// for tiny data-parallel widths, are essentially never optimal, and
	// dominate simulation cost; offline profile builders cap them.
	MaxMicroBatches int
}

// DefaultSpace mirrors the paper's MT-NLG sweep: tmax=16, dmax=32,
// pipeline over the divisors of the layer count up to pmax=L.
func DefaultSpace(m model.Config, globalBatch int) Space {
	var depths []int
	for p := 1; p <= m.Layers; p++ {
		if m.Layers%p == 0 {
			depths = append(depths, p)
		}
	}
	var data []int
	for d := 1; d <= 32; d++ {
		if globalBatch%d == 0 {
			data = append(data, d)
		}
	}
	return Space{
		TensorWidths:    []int{1, 2, 4, 8, 16},
		DataWidths:      data,
		PipelineDepths:  depths,
		MicroBatches:    []int{1, 2, 4, 8, 16},
		GlobalBatch:     globalBatch,
		GradientBuckets: 2,
	}
}

// ErrNoValidPlan is returned (wrapped) by ExploreFunc when the search space
// contains no plan that validates and fits memory on the simulator's
// cluster. Multi-cluster searches (internal/clusterdse) detect it with
// errors.Is to skip hardware candidates the model cannot run on at all.
var ErrNoValidPlan = errors.New("no valid plan in the search space")

// Point is one evaluated design point.
type Point struct {
	Plan   parallel.Plan
	Report core.Report
}

// Enumerate lists the valid plans of the space for m on sim's cluster,
// choosing recomputation automatically where required for memory.
func (s Space) Enumerate(m model.Config, sim *core.Simulator) []parallel.Plan {
	cluster := sim.Cluster()
	gpu := cluster.Node.GPU
	var plans []parallel.Plan
	for _, t := range s.TensorWidths {
		for _, d := range s.DataWidths {
			for _, p := range s.PipelineDepths {
				gpus := t * d * p
				if s.MaxGPUs > 0 && gpus > s.MaxGPUs {
					continue
				}
				if s.ExactGPUs > 0 && gpus != s.ExactGPUs {
					continue
				}
				for _, mb := range s.MicroBatches {
					plan := parallel.Plan{
						Tensor: t, Data: d, Pipeline: p,
						MicroBatch:      mb,
						GlobalBatch:     s.GlobalBatch,
						Schedule:        s.Schedule,
						GradientBuckets: s.GradientBuckets,
					}
					if err := plan.Validate(m, cluster); err != nil {
						continue
					}
					if s.MaxMicroBatches > 0 && plan.MicroBatches() > s.MaxMicroBatches {
						continue
					}
					if !plan.FitsMemory(m, gpu) {
						plan.Recompute = true
						if !plan.FitsMemory(m, gpu) {
							continue // does not fit even with recomputation
						}
					}
					plans = append(plans, plan)
				}
			}
		}
	}
	return plans
}

// Better reports whether p should rank ahead of q: lower iteration time,
// with the (t, d, p, m) tuple as a deterministic tie-break so rankings are
// stable regardless of the order points were evaluated in.
func (p Point) Better(q Point) bool { return better(&p, &q) }

// better is Better through pointers, so a sort compares points in place.
func better(p, q *Point) bool {
	if p.Report.IterTime != q.Report.IterTime {
		return p.Report.IterTime < q.Report.IterTime
	}
	a, b := p.Plan, q.Plan
	switch {
	case a.Tensor != b.Tensor:
		return a.Tensor < b.Tensor
	case a.Data != b.Data:
		return a.Data < b.Data
	case a.Pipeline != b.Pipeline:
		return a.Pipeline < b.Pipeline
	default:
		return a.MicroBatch < b.MicroBatch
	}
}

// StreamGate is the streaming discipline of Sweep (and of the serving
// layer's NDJSON streams). It serializes point streaming and latches a
// sweep's first error, whether a worker's or an emission's: once an error
// is latched, Publish refuses every subsequent emission, so callers never
// observe output after a failure — including output from batches that were
// already in flight on other workers when the error hit.
type StreamGate struct {
	mu  sync.Mutex
	err error
}

// Publish runs emit under the gate's lock, unless an error has been
// latched, and latches emit's error. It returns the latched error, nil if
// none.
func (g *StreamGate) Publish(emit func() error) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err == nil {
		g.err = emit()
	}
	return g.err
}

// Fail latches a non-nil err as the sweep's error; only the first call
// wins.
func (g *StreamGate) Fail(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err == nil {
		g.err = err
	}
}

// Stopped reports whether an error has been latched.
func (g *StreamGate) Stopped() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err != nil
}

// FirstErr returns the latched error, nil if none.
func (g *StreamGate) FirstErr() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// Sweep simulates every plans[i] on sims[i] and passes each report to emit
// with its index. It is the executor both sweep drivers (ExploreFunc and
// clusterdse.ExploreFunc) share. Indices are grouped by structural shape
// (core.Simulator.PlanShape), preserving input order within and across
// groups so the batch composition is deterministic, and each group flushes
// through one core.SimulateBatch on a bounded worker pool: every plan of a
// shape — on any ForCluster sibling — replays the shared lowered graph in
// columnar lockstep, and concurrent first requests for a shape
// single-flight onto one lowering.
//
// Calls to emit are serialized, a whole batch at a time, in nondeterministic
// batch order. On a simulation error the sweep stops and returns a
// *core.PlanError whose Index points into plans; on an emit error it stops
// and returns that error. Either way no further batch starts, and no emit
// runs after the failure, even for batches that were still in flight (see
// StreamGate).
func Sweep(m model.Config, sims []*core.Simulator, plans []parallel.Plan, emit func(i int, rep core.Report) error) error {
	if len(sims) != len(plans) {
		return fmt.Errorf("dse: Sweep got %d simulators for %d plans", len(sims), len(plans))
	}
	var (
		batches  [][]int
		shapeIdx = make(map[core.Shape]int)
	)
	for i, p := range plans {
		sh := sims[i].PlanShape(m, p)
		bi, ok := shapeIdx[sh]
		if !ok {
			bi = len(batches)
			shapeIdx[sh] = bi
			batches = append(batches, nil)
		}
		batches[bi] = append(batches[bi], i)
	}
	var (
		gate StreamGate
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := min(runtime.GOMAXPROCS(0), len(batches)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !gate.Stopped() {
				bi := int(next.Add(1)) - 1
				if bi >= len(batches) {
					return
				}
				idx := batches[bi]
				bsims := make([]*core.Simulator, len(idx))
				bplans := make([]parallel.Plan, len(idx))
				for j, i := range idx {
					bsims[j], bplans[j] = sims[i], plans[i]
				}
				reps, err := core.SimulateBatch(m, bsims, bplans)
				if err != nil {
					// SimulateBatch indexes its failure into the batch;
					// re-index it into the sweep.
					var pe *core.PlanError
					if errors.As(err, &pe) {
						pe.Index = idx[pe.Index]
					}
					gate.Fail(err)
					return
				}
				gate.Publish(func() error {
					for j, i := range idx {
						if err := emit(i, reps[j]); err != nil {
							return err
						}
					}
					return nil
				})
			}
		}()
	}
	wg.Wait()
	return gate.FirstErr()
}

// ExploreFunc simulates every plan of the space through Sweep and streams
// each evaluated Point to fn as it completes. Every streamed point is
// feasible (Enumerate excludes plans that cannot fit memory). Calls to fn
// are serialized (one at a time), so callers can rank incrementally — keep
// a running best, feed a top-k heap — without holding every point in
// memory. Completion order is nondeterministic; use Point.Better for
// deterministic ranking. The workers share the simulator's caches, so
// repeated configurations across sweeps cost one simulation.
//
// On a simulation error, or an error from fn, the sweep stops and the
// error is returned; no point is streamed to fn after the failure.
func ExploreFunc(sim *core.Simulator, m model.Config, s Space, fn func(Point) error) error {
	plans := s.Enumerate(m, sim)
	if len(plans) == 0 {
		return fmt.Errorf("dse: %s: %w", m.Name, ErrNoValidPlan)
	}
	sims := make([]*core.Simulator, len(plans))
	for i := range sims {
		sims[i] = sim
	}
	err := Sweep(m, sims, plans, func(i int, rep core.Report) error {
		return fn(Point{Plan: plans[i], Report: rep})
	})
	var pe *core.PlanError
	if errors.As(err, &pe) {
		// Unwrap so the sweep error reads exactly like the sequential
		// path's.
		return fmt.Errorf("dse: %s: %w", pe.Plan, pe.Err)
	}
	return err
}

// Explore simulates every plan of the space in parallel and returns the
// evaluated points sorted fastest-first (see Point.Better).
func Explore(sim *core.Simulator, m model.Config, s Space) ([]Point, error) {
	points := make([]Point, 0, 64)
	if err := ExploreFunc(sim, m, s, func(p Point) error {
		points = append(points, p)
		return nil
	}); err != nil {
		return nil, err
	}
	rank(points)
	return points, nil
}

// rank sorts points by Better. It sorts their indices, so no comparison or
// swap copies a point, then moves each point once, cycle by cycle.
func rank(points []Point) {
	idx := make([]int32, len(points))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool { return better(&points[idx[a]], &points[idx[b]]) })
	// idx[j] is where the point that belongs at j stands, until it moves
	// there and idx[j] becomes j.
	for i := range idx {
		if int(idx[i]) == i {
			continue
		}
		tmp, j := points[i], i
		for int(idx[j]) != i {
			k := int(idx[j])
			points[j], idx[j] = points[k], int32(j)
			j = k
		}
		points[j], idx[j] = tmp, int32(j)
	}
}

// ExploreBest streams the sweep and returns only the best-ranked point
// (per Point.Better), for callers that need one winner from a large space
// without holding every point in memory. ok is false when no point was
// evaluated or an error occurred.
func ExploreBest(sim *core.Simulator, m model.Config, s Space) (best Point, ok bool, err error) {
	err = ExploreFunc(sim, m, s, func(p Point) error {
		if !ok || p.Better(best) {
			best, ok = p, true
		}
		return nil
	})
	if err != nil {
		return Point{}, false, err
	}
	return best, ok, nil
}

// Fastest returns the first of points, which is the fastest when points
// are sorted as Explore returns them; ok is false when points is empty.
func Fastest(points []Point) (Point, bool) {
	if len(points) == 0 {
		return Point{}, false
	}
	return points[0], true
}

// Cheapest returns the point minimizing end-to-end training cost
// for totalTokens, pricing each plan's GPU count at the cluster rate.
func Cheapest(sim *core.Simulator, points []Point, totalTokens uint64) (Point, cost.Training, bool) {
	return CheapestOn(sim.Cluster(), points, totalTokens)
}

// CheapestOn is Cheapest for callers holding only the cluster description
// rather than a simulator — the serving layer's thin CLI clients rank
// streamed points against the cluster their sweep resolved to.
func CheapestOn(c hw.Cluster, points []Point, totalTokens uint64) (Point, cost.Training, bool) {
	var (
		best   Point
		bestTr cost.Training
		found  bool
	)
	for _, p := range points {
		tr := cost.Train(p.Report.Model, p.Plan.GlobalBatch, p.Report.IterTime, p.Plan.GPUs(), totalTokens, c)
		if !found || tr.TotalDollars < bestTr.TotalDollars {
			best, bestTr, found = p, tr, true
		}
	}
	return best, bestTr, found
}

// CheapestWithin returns the cheapest point whose end-to-end days
// do not exceed maxDays — the "balance training time and cost" objective of
// case study 1.
func CheapestWithin(sim *core.Simulator, points []Point, totalTokens uint64, maxDays float64) (Point, cost.Training, bool) {
	var (
		best   Point
		bestTr cost.Training
		found  bool
	)
	for _, p := range points {
		tr := cost.Train(p.Report.Model, p.Plan.GlobalBatch, p.Report.IterTime, p.Plan.GPUs(), totalTokens, sim.Cluster())
		if tr.Days > maxDays {
			continue
		}
		if !found || tr.TotalDollars < bestTr.TotalDollars {
			best, bestTr, found = p, tr, true
		}
	}
	return best, bestTr, found
}

// ParetoFront returns the points not dominated in (iteration time, GPU
// count): no other point is both faster and smaller — the frontier
// a practitioner inspects in Fig. 11.
func ParetoFront(points []Point) []Point {
	var front []Point
	for _, p := range points {
		dominated := false
		for _, q := range points {
			if q.Report.IterTime < p.Report.IterTime && q.Plan.GPUs() <= p.Plan.GPUs() ||
				q.Report.IterTime <= p.Report.IterTime && q.Plan.GPUs() < p.Plan.GPUs() {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	return front
}
