// Package clusterdse performs joint cluster-design exploration — the
// question behind the paper's third case study (Section V-C, Table II):
// which cluster trains a model most cost-effectively, and which is the
// cheapest that still meets a deadline?
//
// Where internal/dse sweeps the parallel-plan axes (t, d, p, m) on one
// fixed cluster, this package additionally sweeps the hardware axes of the
// catalog in internal/hw: GPU generation, node count, and interconnect
// tier, each candidate carrying its own per-GPU-hour price. Every candidate
// cluster is required to be fully used (the plan's t·d·p equals the
// cluster's GPU count, as in Table II's 64/256/512-GPU comparisons), so a
// candidate's training cost is the price of the whole provisioned cluster
// for the whole run.
//
// The sweep's cost structure leans on the structure/timing split: task-graph
// structure is hardware-invariant, so all hardware variants of one plan
// shape share a single lowered graph. ExploreFunc derives one sibling
// simulator per candidate cluster from a single root via
// core.Simulator.ForCluster — they share the shape-keyed structural cache
// and one profiler per GPU — and a hardware-only sweep therefore pays for
// exactly one lowering no matter how many clusters it compares (pinned by
// the package tests and BenchmarkClusterSweep).
package clusterdse

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"vtrain/internal/core"
	"vtrain/internal/cost"
	"vtrain/internal/dse"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/resilience"
)

// Space describes a joint (hardware x plan) sweep.
type Space struct {
	// Offerings are the hardware candidates: GPU generation + node type +
	// interconnect tier + price (see hw.Catalog).
	Offerings []hw.Offering
	// NodeCounts are the cluster sizes to provision, in nodes.
	NodeCounts []int
	// Plans carries the parallel-plan axes swept inside each candidate
	// cluster. Its ExactGPUs field is overwritten per candidate so every
	// plan uses the whole provisioned cluster; MaxGPUs is ignored.
	Plans dse.Space
	// TotalTokens is the training-run length the costs are projected over.
	TotalTokens uint64
	// Resilience, when non-nil, prices failures and checkpoint-restart
	// into every point (see internal/resilience): each candidate gets a
	// goodput model from its catalog-pinned MTBF and checkpoint
	// bandwidth (overridable through the options), points carry the
	// failure-adjusted economics, and ranking uses effective rather than
	// ideal cost. Candidates whose goodput is non-positive — they fail
	// faster than they can checkpoint — are skipped like
	// memory-infeasible plans. Nil disables resilience entirely: points
	// carry a zero Resilience and the sweep is byte-identical to the
	// resilience-free ranking.
	Resilience *resilience.Options
	// Contention enables the topology-aware congestion fidelity level on
	// every candidate's sibling simulator (see core.WithContention):
	// replays derate communication tasks sharing fat-tree links with
	// concurrently in-flight ones. Off by default; with it off the sweep is
	// byte-identical to a build without the knob — same points, same
	// lowering and batching counters — mirroring the Resilience nil
	// contract.
	Contention bool
}

// DefaultSpace sweeps the full catalog over the given node counts with the
// standard plan space of dse.DefaultSpace.
func DefaultSpace(m model.Config, globalBatch int, totalTokens uint64, nodeCounts []int) Space {
	plans := dse.DefaultSpace(m, globalBatch)
	plans.MaxMicroBatches = 512
	return Space{
		Offerings:   hw.Catalog(),
		NodeCounts:  nodeCounts,
		Plans:       plans,
		TotalTokens: totalTokens,
		Resilience:  &resilience.Options{},
	}
}

// SelectOfferings resolves offering names against the hardware catalog:
// empty names mean the whole catalog. cross additionally pairs every node
// type with every interconnect tier, keeping the node's price — the "same
// machines, different network" axis. The CLI and the serving layer both
// build their sweep spaces through it.
func SelectOfferings(names []string, cross bool) ([]hw.Offering, error) {
	var base []hw.Offering
	if len(names) == 0 {
		base = hw.Catalog()
	} else {
		for _, n := range names {
			o, err := hw.LookupOffering(strings.TrimSpace(n))
			if err != nil {
				return nil, err
			}
			base = append(base, o)
		}
	}
	if !cross {
		return base, nil
	}
	var out []hw.Offering
	for _, o := range base {
		out = append(out, o)
		for _, ic := range hw.Interconnects() {
			if ic.Name == o.Interconnect.Name {
				continue
			}
			out = append(out, o.WithInterconnect(ic))
		}
	}
	return out, nil
}

// Candidate is one hardware configuration of the sweep.
type Candidate struct {
	Offering hw.Offering
	Nodes    int
}

// Cluster materializes the candidate.
func (c Candidate) Cluster() hw.Cluster { return c.Offering.Cluster(c.Nodes) }

// GPUs returns the candidate's total GPU count.
func (c Candidate) GPUs() int { return c.Nodes * c.Offering.Node.GPUsPerNode }

// String implements fmt.Stringer.
func (c Candidate) String() string {
	return fmt.Sprintf("%s x%d nodes (%d GPUs, %s)", c.Offering.Name, c.Nodes, c.GPUs(), c.Offering.Interconnect.Name)
}

// Point is one evaluated (hardware, plan) design point. Every streamed
// point is feasible: infeasible plans are excluded during enumeration, and
// candidates the model cannot run on at all are skipped.
type Point struct {
	Candidate
	Plan     parallel.Plan
	Report   core.Report
	Training cost.Training
	// Resilience carries the failure-adjusted economics when the space
	// enables resilience modeling; it is the zero value otherwise, and
	// the Effective* accessors fall back to the ideal figures.
	Resilience cost.Resilience
}

// EffectiveDollars returns the cost the ranking uses: the failure-adjusted
// training cost when resilience is modeled, the ideal cost otherwise.
func (p Point) EffectiveDollars() float64 {
	if p.Resilience.GoodputFraction > 0 {
		return p.Resilience.EffectiveDollars
	}
	return p.Training.TotalDollars
}

// EffectiveDays returns the wall-clock days the ranking and deadline
// checks use: failure-adjusted when resilience is modeled, ideal
// otherwise.
func (p Point) EffectiveDays() float64 {
	if p.Resilience.GoodputFraction > 0 {
		return p.Resilience.EffectiveDays
	}
	return p.Training.Days
}

// Better reports whether p should rank ahead of q: lower effective
// training cost (failure-adjusted when resilience is modeled, ideal
// otherwise — bigger-but-faster clusters pay a visible reliability tax),
// then fewer effective days, then the (offering, nodes, t, d, p, m) tuple
// as a deterministic tie-break — the ranking analogue of dse.Point.Better,
// with cost in iteration time's role. With resilience disabled the
// comparison reduces exactly to the raw (dollars, days) ranking.
func (p Point) Better(q Point) bool {
	if pd, qd := p.EffectiveDollars(), q.EffectiveDollars(); pd != qd {
		return pd < qd
	}
	if pd, qd := p.EffectiveDays(), q.EffectiveDays(); pd != qd {
		return pd < qd
	}
	if p.Offering.Name != q.Offering.Name {
		return p.Offering.Name < q.Offering.Name
	}
	if p.Nodes != q.Nodes {
		return p.Nodes < q.Nodes
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

// NewSimulator builds the root simulator a sweep derives its per-cluster
// siblings from, using the space's first candidate as the root cluster.
// Pass core.WithFidelity(taskgraph.OperatorLevel) for sweep-speed fidelity;
// the option set otherwise mirrors core.New.
func NewSimulator(s Space, opts ...core.Option) (*core.Simulator, error) {
	if len(s.Offerings) == 0 || len(s.NodeCounts) == 0 {
		return nil, fmt.Errorf("clusterdse: space needs at least one offering and one node count")
	}
	return core.New(s.Offerings[0].Cluster(s.NodeCounts[0]), opts...)
}

// ExploreFunc evaluates every feasible (offering, node count, plan)
// configuration of the space and streams each Point to fn as it completes.
// Calls to fn are serialized; completion order is nondeterministic (bounded
// worker pool over shape batches), so rank with Point.Better.
//
// All candidates are simulated through siblings derived straight from sim
// (see core.Simulator.ForCluster), so they share sim's tree: the hardware
// axes add design points but no lowerings, and each GPU profiles its
// operators once. The sweep batches by structural shape across
// candidates, not per candidate: every feasible (candidate, plan) pair is
// enumerated up front and handed to dse.Sweep, so pairs sharing a shape —
// regardless of which cluster they price — flush through one
// core.SimulateBatch, and one lowered graph replays up to a full batch of
// duration tables per pass. Within one candidate only
// a handful of plans share a shape (t·d·p must equal the cluster's GPU
// count), so cross-candidate grouping is what makes the batches wide;
// sim.CacheStats reports the shared structural and batching counters
// after the sweep.
//
// Candidates on which the model has no valid, memory-feasible plan are
// skipped; if every candidate is skipped the sweep returns an error. On a
// simulation error the sweep stops without streaming any further point to
// fn (see dse.Sweep).
func ExploreFunc(sim *core.Simulator, m model.Config, s Space, fn func(Point)) error {
	if len(s.Offerings) == 0 || len(s.NodeCounts) == 0 {
		return fmt.Errorf("clusterdse: space needs at least one offering and one node count")
	}
	if s.TotalTokens == 0 {
		return fmt.Errorf("clusterdse: space needs TotalTokens to price training runs")
	}

	// Enumerate every feasible (candidate, plan) pair in deterministic
	// candidate-then-enumeration order: sims[i] simulates plans[i], and
	// entries[i] carries its per-candidate pricing context.
	type entry struct {
		cand Candidate
		cl   hw.Cluster
		res  resilience.Model
	}
	var (
		entries []entry
		sims    []*core.Simulator
		plans   []parallel.Plan
	)
	for _, off := range s.Offerings {
		if err := off.Validate(); err != nil {
			return fmt.Errorf("clusterdse: %w", err)
		}
		for _, nodes := range s.NodeCounts {
			cand := Candidate{Offering: off, Nodes: nodes}
			cl := cand.Cluster()
			// The goodput model depends only on (model, cluster), not the
			// plan: compute it once per candidate. A candidate that fails
			// faster than it can checkpoint is skipped exactly like one
			// with no memory-feasible plan; anything else (missing catalog
			// data, malformed overrides) fails the sweep loudly.
			var resMod resilience.Model
			if s.Resilience != nil {
				var err error
				resMod, err = resilience.For(m, cl, cl.TotalGPUs(), *s.Resilience)
				if errors.Is(err, resilience.ErrUnreliable) {
					continue
				}
				if err != nil {
					return fmt.Errorf("clusterdse: %s: %w", cand, err)
				}
			}
			// A sibling lives for one sweep and sees each of its plans
			// once, so a report cache could never hit: derive it without.
			sib, err := sim.ForCluster(cl, core.WithContention(s.Contention), core.WithCacheSize(0))
			if err != nil {
				return fmt.Errorf("clusterdse: %s: %w", cand, err)
			}
			ps := s.Plans
			ps.MaxGPUs = 0
			ps.ExactGPUs = cl.TotalGPUs()
			for _, plan := range ps.Enumerate(m, sib) {
				entries = append(entries, entry{cand: cand, cl: cl, res: resMod})
				sims = append(sims, sib)
				plans = append(plans, plan)
			}
		}
	}
	if len(entries) == 0 {
		return fmt.Errorf("clusterdse: no feasible (offering, node count, plan) configuration for %s: %w", m.Name, dse.ErrNoValidPlan)
	}

	err := dse.Sweep(m, sims, plans, func(i int, rep core.Report) {
		e, plan := entries[i], plans[i]
		tr := cost.Train(m, plan.GlobalBatch, rep.IterTime, plan.GPUs(), s.TotalTokens, e.cl)
		pt := Point{Candidate: e.cand, Plan: plan, Report: rep, Training: tr}
		if s.Resilience != nil {
			pt.Resilience = cost.ApplyResilience(tr, e.res)
		}
		fn(pt)
	})
	var pe *core.PlanError
	if errors.As(err, &pe) {
		// Attribute the failure to its (candidate, plan); the unwrapped
		// Err reads exactly like a sequential Simulate failure.
		return fmt.Errorf("clusterdse: %s under %s: %w", entries[pe.Index].cand, pe.Plan, pe.Err)
	}
	return err
}

// Explore runs the sweep and returns every point ranked cheapest-first
// (see Point.Better).
func Explore(sim *core.Simulator, m model.Config, s Space) ([]Point, error) {
	var points []Point
	if err := ExploreFunc(sim, m, s, func(p Point) { points = append(points, p) }); err != nil {
		return nil, err
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Better(points[j]) })
	return points, nil
}

// ParetoFrontier returns the (training cost, training days) frontier over
// the effective (failure-adjusted when modeled) figures: the cost-ascending
// sequence of points with strictly decreasing days, i.e. for every point no
// other point is at most as expensive AND at most as slow with one of the
// two strict. Ties resolve by Point.Better, so the frontier is
// deterministic regardless of input order.
func ParetoFrontier(points []Point) []Point {
	if len(points) == 0 {
		return nil
	}
	sorted := append([]Point(nil), points...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Better(sorted[j]) })
	var front []Point
	bestDays := sorted[0].EffectiveDays() + 1
	for _, p := range sorted {
		if p.EffectiveDays() < bestDays {
			front = append(front, p)
			bestDays = p.EffectiveDays()
		}
	}
	return front
}

// CheapestWithinDeadline returns the cheapest point whose end-to-end
// effective training time (failure-adjusted when modeled) does not exceed
// maxDays, ranking candidates by Point.Better (so equal-cost ties break
// deterministically). ok is false when no point meets the deadline.
func CheapestWithinDeadline(points []Point, maxDays float64) (best Point, ok bool) {
	for _, p := range points {
		if p.EffectiveDays() > maxDays {
			continue
		}
		if !ok || p.Better(best) {
			best, ok = p, true
		}
	}
	return best, ok
}
