package taskgraph

import (
	"sort"
	"sync"

	"vtrain/internal/comm"
	"vtrain/internal/hw"
	"vtrain/internal/parallel"
)

// This file implements the contention fidelity level: instead of pricing
// every collective on an ideal uncontended link, the replay tracks which
// communication tasks are simultaneously in flight on shared fat-tree links
// (node NVSwitches, per-node HCA bundles, the spine) and derates their
// durations by comm.Congestion's per-class weights.
//
// The split mirrors the structure/timing split. BindContention binds the
// plan's placement once per (graph, plan, cluster) into an immutable
// ContentionTable, by the placement rule Bind prices with. The replay-time
// part (this file's occupancy ledger, pooled and owned per replay call and
// per batch lane) derives each comm task's comm.Path from its descriptor
// and that placement in O(1), then counts interval overlaps against the
// flows already recorded on the path's link classes. Contention never
// changes the graph's structure, so structural caching, artifact
// round-trips, and cross-plan sharing are untouched; with a nil table every
// replay entry point performs bit-identical float operations to the
// contention-free path.
//
// Each link class keeps the start values and the end values of its
// recorded flows in two ascending arrays. Because every recorded interval
// has end >= start and every query has end > start, "overlaps [s, e)"
// decomposes exactly into
//
//	#(recorded end > s)  -  #(recorded start >= e)
//
// (a flow starting at or after e cannot end at or before s, so the start
// count only removes flows the end count included). Both counts are read
// off the tails of the sorted arrays, so the count — and therefore the
// derate arithmetic — is bit-identical to a flat scan over every recorded
// interval.
//
// The arrays stay cheap to keep sorted because replay records flows in
// nearly time order: over the 1,068-point contended cluster sweep, 98.7% of
// the 15M value inserts land at the tail and none shifts more than 3 slots.
// An insert costs O(slots shifted), so a class fed in reverse time order
// degrades to a quadratic (memmove) insert cost — never to a wrong count.

// ContentionTable is the per-(plan, cluster) placement binding of one
// structural graph, and holds placement only: contend derives every comm
// task's fat-tree links from it. Like a DurationTable it is immutable after
// binding, so one table can back any number of concurrent replays — the
// mutable occupancy state lives in a per-replay contState.
type ContentionTable struct {
	cg comm.Congestion
	// repNode maps each device (pipeline stage) to its representative node,
	// the node holding the stage's first rank.
	repNode []int32
	// tpSpan and dpSpan are the node spans of the plan's tensor- and
	// data-parallel collectives (1 = node-local).
	tpSpan, dpSpan int
	// classes is the link-class count: spine, then (nv, hca) per node.
	classes int
}

// Link-class layout: class 0 is the spine; node k's NVSwitch is 1+2k and
// its HCA bundle 2+2k.
func nvClass(node int) int  { return 1 + 2*node }
func hcaClass(node int) int { return 2 + 2*node }

// BindContention binds the plan's placement on the cluster's fat tree:
// each stage's representative node and the node spans of the tensor- and
// data-parallel collectives. tbl, the plan's bound DurationTable, is
// unused: the parameter keeps call sites binding contention next to the
// durations it derates.
func (g *Graph) BindContention(plan parallel.Plan, c hw.Cluster, tbl *DurationTable) *ContentionTable {
	gpn := c.Node.GPUsPerNode
	ct := &ContentionTable{
		cg:      comm.NewCongestion(c),
		repNode: make([]int32, g.Devices),
		tpSpan:  nodeSpan(allReduceTPArgs(plan, gpn)),
		dpSpan:  nodeSpan(allReduceDPArgs(plan, gpn)),
	}
	for dev := range ct.repNode {
		ct.repNode[dev] = int32(stageNode(dev, plan, gpn))
	}
	maxNode := (g.Devices*plan.Tensor*plan.Data - 1) / gpn // the last rank's node
	ct.classes = hcaClass(maxNode) + 1
	return ct
}

// nodeSpan is the node count a collective with the given pricing arguments
// covers: one for a node-local group, the participating nodes otherwise.
func nodeSpan(n int, intraNode bool) int {
	if intraNode {
		return 1
	}
	return n
}

// classLedger is one link class's occupancy ledger: the start values and
// the end values of the flows recorded on that class this replay, each
// kept ascending. starts[0] and ends[len-1] bound the recorded intervals: a
// query outside them overlaps nothing — the common case on classes whose
// flows are serialized by a dependency chain (one comm stream feeding one
// NVSwitch), where each flow starts at or after the previous one's end.
type classLedger struct {
	starts []float64
	ends   []float64
}

// insert adds v to the ascending slice s, shifting any larger tail values
// up one slot, and returns the grown slice. A full slice moves into an
// array of at least twice its length — the smallest spare that fits, or a
// fresh one — and the outgrown array joins the spares. Doubling is
// explicit because append grows large slices by only ~1.25x.
func (cs *contState) insert(s []float64, v float64) []float64 {
	n := len(s)
	if n == cap(s) {
		need := max(2*n, 16)
		best := -1
		for i, sp := range cs.spare {
			if c := cap(sp); c >= need && (best < 0 || c < cap(cs.spare[best])) {
				best = i
			}
		}
		var grown []float64
		if best < 0 {
			grown = make([]float64, n, need)
		} else {
			grown = cs.spare[best][:n]
			last := len(cs.spare) - 1
			cs.spare[best], cs.spare[last] = cs.spare[last], nil
			cs.spare = cs.spare[:last]
		}
		copy(grown, s)
		if cap(s) > 0 {
			cs.spare = append(cs.spare, s[:0])
		}
		s = grown
	}
	s = s[:n+1]
	for ; n > 0 && s[n-1] > v; n-- {
		s[n] = s[n-1]
	}
	s[n] = v
	return s
}

// tailScan bounds the backward walk of countGT and countGE before they fall
// back to binary search: queries land near the present, so most counts
// resolve within the first few tail slots.
const tailScan = 8

// countGT returns how many values of the ascending slice s exceed v.
func countGT(s []float64, v float64) int {
	n := len(s)
	i := n
	for i > 0 && s[i-1] > v {
		if i--; n-i == tailScan {
			return n - sort.Search(i, func(j int) bool { return s[j] > v })
		}
	}
	return n - i
}

// countGE returns how many values of the ascending slice s are >= v.
func countGE(s []float64, v float64) int {
	n := len(s)
	i := n
	for i > 0 && s[i-1] >= v {
		if i--; n-i == tailScan {
			return n - sort.Search(i, func(j int) bool { return s[j] >= v })
		}
	}
	return n - i
}

// contState is the mutable occupancy ledger of one replay (or one batch
// lane): per link class, the sorted start and end values of the flows
// recorded so far. Replay visits tasks in topological (not time) order, so
// a flow only contends with flows recorded before it — a deterministic,
// conservative under-count that keeps the replay single-pass. States are
// pooled (getContState / putContState), and storage follows the same
// wantShrink hysteresis as the rest of the replay scratch.
type contState struct {
	led []classLedger
	// spare holds unused ledger arrays — those emptied by reset and those
	// outgrown by insert — for whichever classes grow next. A sweep's plans
	// spread their flows over different link classes, so storage must move
	// between classes for a pooled state to stop allocating.
	spare [][]float64
	// oversizedLed / oversizedSpare are the wantShrink counters of the
	// ledger slice and of the spare arrays' total capacity.
	oversizedLed   int8
	oversizedSpare int8
}

var contStatePool = sync.Pool{New: func() any { return new(contState) }}

// getContState returns a pooled occupancy ledger reset for ct. Must be
// released with putContState when the replay completes.
func getContState(ct *ContentionTable) *contState {
	cs := contStatePool.Get().(*contState)
	cs.reset(ct)
	return cs
}

func putContState(cs *contState) {
	if cs != nil {
		contStatePool.Put(cs)
	}
}

func (cs *contState) reset(ct *ContentionTable) {
	// Empty every ledger into spare, sized against the values the previous
	// replay recorded.
	used, held := 0, 0
	for i := range cs.led {
		led := &cs.led[i]
		used += 2 * len(led.starts)
		for _, s := range [2][]float64{led.starts, led.ends} {
			if cap(s) > 0 {
				cs.spare = append(cs.spare, s[:0])
			}
		}
		*led = classLedger{}
	}
	for _, s := range cs.spare {
		held += cap(s)
	}
	if wantShrink(held, used, &cs.oversizedSpare) {
		clear(cs.spare)
		cs.spare = cs.spare[:0]
	}
	if wantShrink(cap(cs.led), ct.classes, &cs.oversizedLed) {
		cs.led = make([]classLedger, ct.classes)
	} else if len(cs.led) < ct.classes {
		// Append growth can leave cap > len, so a later intermediate class
		// count must reslice within capacity rather than append from cap
		// (which would make a negative-length tail).
		if cap(cs.led) < ct.classes {
			cs.led = append(cs.led, make([]classLedger, ct.classes-len(cs.led))...)
		} else {
			cs.led = cs.led[:ct.classes]
		}
	}
}

// overlaps counts recorded flows on class whose interval intersects
// [start, end) — exactly the flows with iv.start < end && iv.end > start.
// Every recorded interval has end >= start and every query end > start, so
// the count is the difference of the two tail counts (see the file
// comment).
func (cs *contState) overlaps(class int, start, end float64) int {
	led := &cs.led[class]
	n := len(led.starts)
	// Overlap needs iv.end > start and iv.start < end; outside the recorded
	// bounds (or on an empty ledger) the count is zero, no lookup needed.
	if n == 0 || start >= led.ends[n-1] || end <= led.starts[0] {
		return 0
	}
	return countGT(led.ends, start) - countGE(led.starts, end)
}

// record adds [start, end) to class's ledger.
func (cs *contState) record(class int, start, end float64) {
	led := &cs.led[class]
	led.starts = cs.insert(led.starts, start)
	led.ends = cs.insert(led.ends, end)
}

// contend derates the base duration of the comm task in slot with
// descriptor d, given its dependency-and-stream start time, and records
// the derated flow on its link classes. The path follows from d's kind: a
// collective rings from the device's representative node over its
// plan-wide node span, and a pipeline transfer connects its two stages'
// representative nodes. Compute tasks, which occupy no link, pass through
// unchanged, and so do tasks that occupy no time: zero-duration tasks
// (e.g. width-1 collectives) and tasks so short that start+dur rounds to
// start. Such a query interval would be empty, on which the overlap count's
// decomposition can go negative. The returned duration is always >= dur:
// every weight is non-negative and the overlap counts only grow with
// concurrency.
func (ct *ContentionTable) contend(st *contState, slot int32, d *durDesc, start, dur float64) float64 {
	if start+dur <= start {
		return dur
	}
	var path comm.Path
	switch d.kind {
	case descAllReduceTP:
		path = ct.cg.CollectivePath(int(ct.repNode[slot>>1]), ct.tpSpan)
	case descAllReduceDP:
		path = ct.cg.CollectivePath(int(ct.repNode[slot>>1]), ct.dpSpan)
	case descP2P:
		path = ct.cg.SendRecvPath(int(ct.repNode[d.from]), int(ct.repNode[d.to]))
	default:
		return dur
	}
	end := start + dur
	nv, hca, spine := 0, 0, 0
	if path.NVNode >= 0 {
		nv = st.overlaps(nvClass(path.NVNode), start, end)
	}
	for _, n := range path.HCANodes {
		if n >= 0 {
			hca += st.overlaps(hcaClass(n), start, end)
		}
	}
	if path.Spine {
		spine = st.overlaps(0, start, end)
	}
	dur *= ct.cg.Derate(nv, hca, spine)
	fend := start + dur
	if path.NVNode >= 0 {
		st.record(nvClass(path.NVNode), start, fend)
	}
	for _, n := range path.HCANodes {
		if n >= 0 {
			st.record(hcaClass(n), start, fend)
		}
	}
	if path.Spine {
		st.record(0, start, fend)
	}
	return dur
}
