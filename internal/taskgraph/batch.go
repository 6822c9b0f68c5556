package taskgraph

import (
	"fmt"
	"sync"
)

// fitZero returns a zeroed slice of length n, reusing s's storage when it
// is large enough. Pooled scratch keeps what it grew: sync.Pool releases
// idle objects within two GCs, so a large graph pins its storage only while
// the pool is in use.
func fitZero[T bool | int32 | float64 | taskOffsets](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// fitRaw is fitZero without the zeroing, for buffers the caller fully
// overwrites before reading.
func fitRaw[T int32 | float64 | descVal](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// batchScratch holds all mutable state of one replay: the columnar
// per-lane clocks. The per-task columns are lane-major ([task][lane]
// flattened), so the hot inner loop advances k adjacent lanes with
// contiguous loads and stores.
type batchScratch struct {
	// vals[di*k+lane] is lane's bound value of descriptor di: the lanes'
	// tables gathered descriptor-major (a few dozen rows), so each task
	// reads its k lane values from one contiguous row. Width-1 replays read
	// their table directly and leave it unused.
	vals []descVal
	// finish[id*k+lane] is lane's finish time of task id. Not pre-zeroed:
	// the replay writes each task's row before any child reads it.
	finish []float64
	// free[slot*k+lane] is lane's timeline for slot = 2*device+stream.
	free []float64
	// busy[slot*k+lane] accumulates lane's busy seconds per slot.
	busy []float64
	// classSec[class*k+lane] accumulates lane's busy seconds per class.
	classSec []float64
	// flopsSum[lane] accumulates lane's executed FLOPs.
	flopsSum []float64
	// states[lane] is lane's pooled occupancy ledger under contention (nil
	// for ideal lanes, which include lanes with no live task).
	states []*contState
	// live is a contended lock-step batch's mask: the OR of its contended
	// lanes' ContentionTable.live masks, so a task no lane can contend on
	// runs the ideal lane loop.
	live []bool
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// reset sizes the scratch for k lanes over a graph with n tasks, devices
// devices, and classes distinct classes, zeroing what the replay reads.
// Storage grown for a larger graph is kept (see fitZero).
func (sc *batchScratch) reset(n, devices, classes, k int) {
	sc.finish = fitRaw(sc.finish, n*k)
	sc.free = fitZero(sc.free, 2*devices*k)
	sc.busy = fitZero(sc.busy, 2*devices*k)
	sc.classSec = fitZero(sc.classSec, classes*k)
	sc.flopsSum = fitZero(sc.flopsSum, k)
}

// Replay simulates the graph per Algorithm 1 under the per-plan durations
// bound in tbl, over per-device timelines split into compute and
// communication streams. Tasks dispatch in id order, which is Algorithm 1's
// FIFO order (see Graph): each starts once its parents have finished and
// its stream is free. ct, when non-nil, selects the contention fidelity
// level: communication tasks sharing fat-tree links with concurrently
// in-flight ones run slower by the congestion model's derate factors. A nil
// ct performs exactly the ideal replay's float operations. The graph and
// tables are read-only during replay, so one shared structural graph may be
// replayed under many tables concurrently.
func (g *Graph) Replay(tbl *DurationTable, ct *ContentionTable) (Result, error) {
	res, _, err := g.replayOne(tbl, ct, nil)
	return res, err
}

func (g *Graph) replayOne(tbl *DurationTable, ct *ContentionTable, labels []string) (Result, []Span, error) {
	results, spans, err := g.replayBatch([]*DurationTable{tbl}, []*ContentionTable{ct}, labels)
	if results == nil {
		return Result{}, nil, err
	}
	return results[0], spans, err
}

// ReplayBatchContended replays the graph under every table in tables,
// walking the structure once while advancing len(tables) simulated clocks
// in lockstep. Results[i] is bit-identical to Replay(tables[i], cts[i]):
// each lane performs exactly the floating-point operations of a
// single-lane replay, in the same order — batching shares only the
// structure-determined work (the walk over tasks and their parents, task
// decoding), which is identical across lanes.
//
// cts may be nil, and any cts[i] may be nil; such lanes replay ideally, so
// mixed ideal/contended batches stay well-defined. Each contended lane
// carries its own occupancy ledger — lanes are independent simulated
// clusters and never contend with each other. An empty batch returns nil.
func (g *Graph) ReplayBatchContended(tables []*DurationTable, cts []*ContentionTable) ([]Result, error) {
	results, _, err := g.replayBatch(tables, cts, nil)
	return results, err
}

// replayBatch runs Algorithm 1 for every lane over the immutable graph using
// pooled scratch state: one forward pass over the tasks in dispatch order.
// It never writes to g, the tables, or the contention tables, so concurrent
// replays of one graph are safe. Non-nil labels record the execution
// timeline, naming span id labels[id]; they are only honored at width 1.
func (g *Graph) replayBatch(tables []*DurationTable, cts []*ContentionTable, labels []string) ([]Result, []Span, error) {
	k := len(tables)
	if cts != nil && len(cts) != k {
		return nil, nil, fmt.Errorf("taskgraph: batch has %d tables but %d contention tables", k, len(cts))
	}
	if k == 0 {
		return nil, nil, nil
	}
	n := g.NumTasks()
	if n == 0 {
		return nil, nil, fmt.Errorf("taskgraph: graph has no tasks")
	}
	for i, tbl := range tables {
		if tbl == nil {
			return nil, nil, fmt.Errorf("taskgraph: duration table %d is nil; Bind a DurationTable per lane", i)
		}
		if tbl.Len() != n || len(tbl.vals) != len(g.descs) {
			return nil, nil, fmt.Errorf("taskgraph: duration table %d binds %d tasks, graph has %d", i, tbl.Len(), n)
		}
	}

	sc := batchScratchPool.Get().(*batchScratch)
	sc.reset(n, g.Devices, len(g.classes), k)

	// Occupancy ledgers are per lane: each lane is an independent simulated
	// cluster, so flows contend only within their own lane. states stays nil
	// for batches of ideal lanes (a lane with no live task is one), keeping
	// the hot loops branch-predictable; the ledgers themselves come from the
	// contState pool, like every other piece of replay scratch.
	var states []*contState
	for l, ct := range cts {
		if ct == nil || !ct.anyLive {
			continue
		}
		if states == nil {
			if cap(sc.states) < k {
				sc.states = make([]*contState, k)
			}
			states = sc.states[:k]
		}
		states[l] = getContState(ct)
	}

	vals := tables[0].vals
	if k > 1 {
		sc.vals = fitRaw(sc.vals, len(g.descs)*k)
		vals = sc.vals
		for l, tbl := range tables {
			for di, v := range tbl.vals {
				vals[di*k+l] = v
			}
		}
	}

	var spans []Span
	if k == 1 {
		// Width-1 replays (single simulations, and shape groups with one
		// pending plan) skip the lane machinery: the scalar loop below
		// performs the identical float operations on the same columnar state
		// with lane subscripts collapsed away, and alone captures spans.
		var st *contState
		var live []bool
		if states != nil {
			st, live = states[0], cts[0].live
		}
		if labels != nil {
			spans = make([]Span, 0, n)
		}
		flopsSum := 0.0
		for id := 0; id < n; id++ {
			slot := g.slotOf[id]
			di := g.durIdx[id]
			v := &vals[di]
			d := v.dur
			// The ready time, max(0, parents' finish times). Every parent
			// has a smaller id, so its finish time is final.
			start := 0.0
			for _, p := range g.parents[g.parentStart[id]:g.parentStart[id+1]] {
				if f := sc.finish[p]; f > start {
					start = f
				}
			}
			if f := sc.free[slot]; f > start {
				start = f
			}
			if live != nil && live[int(di)*g.Devices+int(slot>>1)] {
				d = cts[0].contend(st, slot>>1, di, g.descs[di].kind, start, d)
			}
			finish := start + d
			sc.finish[id] = finish
			sc.free[slot] = finish // proceed the timeline
			sc.busy[slot] += d
			sc.classSec[g.descClass[di]] += d
			flopsSum += v.flops
			if labels != nil {
				spans = append(spans, Span{Device: int(slot >> 1), Stream: Stream(slot & 1), Start: start, End: finish, Label: labels[id]})
			}
		}
		sc.flopsSum[0] = flopsSum
	}
	var live []bool
	if k > 1 && states != nil {
		sc.live = fitZero(sc.live, len(g.descs)*g.Devices)
		live = sc.live
		for l, ct := range cts {
			if states[l] != nil {
				for m, b := range ct.live {
					live[m] = live[m] || b
				}
			}
		}
	}
	for id := 0; k > 1 && id < n; id++ {
		slot := int(g.slotOf[id])
		di := g.durIdx[id]
		// Row subslices fix the bounds once, so the lane loops below are
		// check-free.
		finish := sc.finish[id*k : id*k+k]
		row := vals[int(di)*k:][:len(finish)]
		free := sc.free[slot*k:][:len(finish)]
		busy := sc.busy[slot*k:][:len(finish)]
		c := int(g.descClass[di])
		classSec := sc.classSec[c*k:][:len(finish)]
		flopsSum := sc.flopsSum[:len(finish)]
		ps := g.parents[g.parentStart[id]:g.parentStart[id+1]]
		m := int(di)*g.Devices + slot>>1
		contends := live != nil && live[m]
		// The ready time is max(0, pf): a lone parent's finish row, or the
		// task's own row, where the parents' finish times merge lane by
		// lane as in the scalar loop (never below +0, so the max is exact).
		pf := finish
		if len(ps) == 1 && !contends {
			pf = sc.finish[int(ps[0])*k:][:len(finish)]
		} else {
			clear(finish)
			for _, p := range ps {
				pr := sc.finish[int(p)*k:][:len(finish)]
				for l := range finish {
					if f := pr[l]; f > finish[l] {
						finish[l] = f
					}
				}
			}
		}
		if contends {
			// Some lane can contend on this task: the same lane loop,
			// calling contend for the lanes whose own entry is set.
			kind := g.descs[di].kind
			for l := range finish {
				dur := row[l].dur
				start := finish[l]
				if f := free[l]; f > start {
					start = f
				}
				if st := states[l]; st != nil && cts[l].live[m] {
					dur = cts[l].contend(st, int32(slot>>1), di, kind, start, dur)
				}
				finish[l] = start + dur
				free[l] = finish[l] // proceed lane l's timeline
				busy[l] += dur
				classSec[l] += dur
				flopsSum[l] += row[l].flops
			}
			continue
		}
		pf = pf[:len(finish)]
		for l := range finish {
			dur := row[l].dur
			start := 0.0
			if f := pf[l]; f > start {
				start = f
			}
			if f := free[l]; f > start {
				start = f
			}
			finish[l] = start + dur
			free[l] = finish[l] // proceed lane l's timeline
			busy[l] += dur
			classSec[l] += dur
			flopsSum[l] += row[l].flops
		}
	}

	results := make([]Result, k)
	for l := range results {
		res := &results[l]
		res.ComputeBusy = make([]float64, g.Devices)
		res.CommBusy = make([]float64, g.Devices)
		for d := 0; d < g.Devices; d++ {
			res.ComputeBusy[d] = sc.busy[(2*d+int(ComputeStream))*k+l]
			res.CommBusy[d] = sc.busy[(2*d+int(CommStream))*k+l]
		}
		// Max over slots in slot order, matching the sequential replay.
		for slot := 0; slot < 2*g.Devices; slot++ {
			if f := sc.free[slot*k+l]; f > res.IterTime {
				res.IterTime = f
			}
		}
		res.FLOPs = sc.flopsSum[l]
		res.Executed = n
		res.ClassSeconds = make(map[string]float64, len(g.classes))
		for c, name := range g.classes {
			res.ClassSeconds[name] = sc.classSec[c*k+l]
		}
	}

	for l := range states {
		putContState(states[l])
		states[l] = nil
	}
	batchScratchPool.Put(sc)
	return results, spans, nil
}
