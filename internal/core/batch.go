package core

import (
	"fmt"

	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/taskgraph"
)

// maxBatchWidth bounds the lanes of one batched replay. Batch scratch is
// O(tasks x lanes); sixteen lanes amortize the structural walk almost
// completely while keeping the columnar state cache-resident for the
// sweep-sized graphs batching targets.
const maxBatchWidth = 16

// Shape is an opaque identifier of a plan's structural equivalence class
// under one simulator: two plans with equal Shapes lower to the same
// structural task graph (and therefore batch together in SimulateBatch).
// Shape is comparable, so sweep drivers use it directly as a map key to
// group pending plans before flushing them through SimulateBatch.
type Shape struct {
	key shapeKey
}

// PlanShape projects (m, plan) onto its structural Shape at the simulator's
// fidelity. Siblings at one fidelity agree on shapes: the projection
// contains no hardware fields, mirroring the shared structural cache.
func (s *Simulator) PlanShape(m model.Config, plan parallel.Plan) Shape {
	return Shape{key: shapeOf(m, plan, s.fidelity)}
}

// PlanError attributes a SimulateBatch failure to the plan that caused it.
// Index is that plan's position in the plans argument, which tells apart
// equal plans on different siblings. Err is exactly the error an
// individual Simulate of that plan would have returned, so callers that
// unwrap PlanError can report batched and sequential failures identically.
type PlanError struct {
	Index int
	Plan  parallel.Plan
	Err   error
}

// Error implements error.
func (e *PlanError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying simulation error to errors.Is/As.
func (e *PlanError) Unwrap() error { return e.Err }

// SimulateBatch predicts the iteration time of m under every plans[i] on
// sims[i], returning reports in input order. It is equivalent to
// len(plans) sequential sims[i].Simulate calls — same reports
// (bit-identical; each lane of a batched replay performs the sequential
// replay's float operations in the same order), same report- and
// structural-cache accounting, single-flight lowering preserved — but plans
// sharing a structural shape replay the shared graph's CSR structure once
// for up to maxBatchWidth duration tables at a time, which is what makes
// wide design-space sweeps cheap.
//
// Plans on different ForCluster siblings that share a shape batch into one
// replay: the structure is hardware-invariant, only each lane's bound
// durations differ. Siblings of one root share a structural cache, and may
// mix fidelities: plans group per (shape, fidelity). Unrelated simulators
// still produce correct reports but group into disjoint batches.
//
// On error the returned reports are nil and the error is a *PlanError
// naming the offending plan; reports of plans already simulated may have
// been cached. Concurrent SimulateBatch calls (including ones sharing a
// shape) are safe, like Simulate.
func SimulateBatch(m model.Config, sims []*Simulator, plans []parallel.Plan) ([]Report, error) {
	if len(sims) != len(plans) {
		return nil, fmt.Errorf("core: SimulateBatch got %d simulators for %d plans", len(sims), len(plans))
	}
	reports := make([]Report, len(plans))

	// Report-cache pass, in input order. A duplicate of a pending
	// configuration is resolved after its first occurrence simulates —
	// through Simulate, so hit/miss totals match the sequential call
	// sequence. (The same plan on siblings of different clusters is not a
	// duplicate: the key carries the cluster.)
	pending := make([]int, 0, len(plans))
	var dups []int
	var seen map[cacheKey]bool
	for i, plan := range plans {
		si := sims[i]
		if si.tree.results == nil {
			pending = append(pending, i)
			continue
		}
		key := si.reportKey(m, plan)
		if seen[key] {
			dups = append(dups, i)
			continue
		}
		if rep, ok := si.cachedReport(key); ok {
			reports[i] = rep
			continue
		}
		if seen == nil {
			seen = make(map[cacheKey]bool)
		}
		seen[key] = true
		pending = append(pending, i)
	}

	// Group the pending plans by structural graph. structural() is called
	// per plan in input order — identical validation and structural-cache
	// accounting to sequential Simulates; plans of one shape resolve to one
	// *Graph (single-flight across siblings sharing the cache), which is
	// the grouping key.
	type group struct {
		tg  *taskgraph.Graph
		idx []int
	}
	var groups []group
	var byGraph map[*taskgraph.Graph]int
	for _, i := range pending {
		tg, err := sims[i].structural(m, plans[i])
		if err != nil {
			return nil, &PlanError{Index: i, Plan: plans[i], Err: err}
		}
		if byGraph == nil {
			byGraph = make(map[*taskgraph.Graph]int)
		}
		gi, ok := byGraph[tg]
		if !ok {
			gi = len(groups)
			byGraph[tg] = gi
			groups = append(groups, group{tg: tg})
		}
		groups[gi].idx = append(groups[gi].idx, i)
	}

	// Bind each plan's table against its group's shared structure and
	// batch-replay, up to maxBatchWidth lanes per pass. Each lane binds
	// with its own simulator's profiler, comm model, and cluster.
	for _, gr := range groups {
		for lo := 0; lo < len(gr.idx); lo += maxBatchWidth {
			hi := min(lo+maxBatchWidth, len(gr.idx))
			chunk := gr.idx[lo:hi]
			tables := make([]*taskgraph.DurationTable, len(chunk))
			// Contention tables are per lane, like duration tables: siblings
			// in one chunk may differ in contention level, and a fully ideal
			// chunk passes cts == nil so the batch replay stays on the
			// contention-free code path.
			var cts []*taskgraph.ContentionTable
			for j, i := range chunk {
				si := sims[i]
				tables[j] = gr.tg.Bind(si.timing.profiler, si.comm, plans[i], si.cluster)
				if si.contention {
					if cts == nil {
						cts = make([]*taskgraph.ContentionTable, len(chunk))
					}
					cts[j] = gr.tg.BindContention(plans[i], si.cluster, tables[j])
				}
			}
			results, err := gr.tg.ReplayBatchContended(tables, cts)
			// A chunk's lanes share one graph, so one tree: counting against
			// its first lane records the whole sweep's batching in one place.
			tr := sims[chunk[0]].tree
			tr.batchReplays.Add(1)
			tr.batchedPlans.Add(uint64(len(chunk)))
			if err != nil {
				for _, t := range tables {
					t.Release()
				}
				// A replay error is structural: it afflicts every lane.
				// Attribute it to the chunk's first plan, wrapped exactly
				// as an individual Simulate would wrap it.
				i, p := chunk[0], plans[chunk[0]]
				return nil, &PlanError{Index: i, Plan: p, Err: fmt.Errorf("core: simulating %s under %s: %w", m.Name, p, err)}
			}
			for j, i := range chunk {
				si := sims[i]
				rep := si.assembleReport(m, plans[i], results[j])
				reports[i] = rep
				if si.tree.results != nil {
					si.tree.results.put(si.reportKey(m, plans[i]), rep)
				}
				// The whole chunk has bound, so a lane's operator table is
				// saved at most once per chunk: saveOps writes only growth.
				si.tree.saveOps(si.timing)
				tables[j].Release()
			}
		}
	}

	// Duplicates resolve through Simulate: normally a cache hit on the
	// report their first occurrence put — exactly the lookup a sequential
	// call sequence would record — and a fresh simulation in the edge case
	// where a tiny cache already evicted it, again like sequential calls.
	for _, i := range dups {
		rep, err := sims[i].Simulate(m, plans[i])
		if err != nil {
			return nil, &PlanError{Index: i, Plan: plans[i], Err: err}
		}
		reports[i] = rep
	}
	return reports, nil
}
