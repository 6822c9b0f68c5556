package taskgraph

import (
	"slices"
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
// plan's placement once per (graph, plan, cluster), by the placement rule
// Bind prices with, and resolves every route a comm task can take into the
// link classes it occupies: each device's tensor- and data-parallel
// collective, and each pipeline-transfer descriptor, less the classes no
// other device can share. The immutable ContentionTable holds those
// routes. The replay-time part (this file's occupancy ledger, pooled and
// owned per replay call and per batch lane) picks a comm task's route by
// its descriptor kind, then counts interval overlaps against the flows
// already recorded on the route's link classes; it never builds a
// comm.Path. Contention never changes the graph's structure, so structural
// caching, artifact round-trips, and cross-plan sharing are untouched; with
// a nil table every replay entry point performs bit-identical float
// operations to the contention-free path.
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
// nearly time order: over the 1,068-point contended cluster sweep, 88.7% of
// the 1.67M value inserts land at the tail and none shifts more than 3
// slots. An insert costs O(slots shifted), so a class fed in reverse time
// order degrades to a quadratic (memmove) insert cost — never to a wrong
// count.
//
// Most classes need no ledger at all. Every comm task of a device runs on
// its one comm-stream slot and starts at or after that slot's free time,
// the latest finish of any task the slot has run, and so the end of every
// flow the slot has recorded. On a class that only one device's flows can
// occupy, every recorded interval therefore ends at or before the query's
// start, and both counts above are 0. BindContention clears such private
// classes from every route (so a sweep where each stage owns its node
// keeps no NVSwitch ledger): Derate sees the same counts, so every result
// is bit-identical. Clearing them cut the sweep's value inserts from 15.0M
// to 1.67M.
//
// A task whose route is left empty would pass through contend unchanged,
// so BindContention also marks, per (descriptor, device), which comm tasks
// keep a route (ContentionTable.live), and replay calls contend for those
// alone. In the sweep only 7.5% of comm task-lanes keep one, and 132 of its
// 1,068 lanes have none, so they replay as ideal lanes. A lock-step batch
// ORs its lanes' masks, so a task no lane can contend on runs the ideal lane
// loop.

// ContentionTable is the per-(plan, cluster) contention binding of one
// structural graph: the derate weights and every comm task's route, with
// link classes resolved. Like a DurationTable it is immutable after
// binding, so one table can back any number of concurrent replays — the
// mutable occupancy state lives in a per-replay contState.
type ContentionTable struct {
	cg comm.Congestion
	// tp and dp are each device's tensor- and data-parallel collective
	// routes: a ring from the device's representative node over the plan's
	// node span.
	tp, dp []route
	// p2p is indexed by descriptor: the route of each pipeline-transfer
	// descriptor between its stages' representative nodes. Entries of
	// other descriptor kinds are unused.
	p2p []route
	// live[di*Devices+dev] reports whether a comm task of descriptor di on
	// device dev's comm stream has a route left once the private classes
	// are cleared. Only such a task can be derated or record a flow, so
	// replay calls contend for it alone. A pipeline transfer's row sets at
	// most its to stage's entry, the one comm stream that issues it.
	live []bool
	// anyLive reports whether any live entry is set: replay runs a lane
	// without one as ideal, with no ledger.
	anyLive bool
	// classes is the link-class count: spine, then (nv, hca) per node.
	classes int
}

// route is the link classes one comm task occupies: nv is the NVSwitch
// class of a flow that stays on one node, hca the HCA-bundle classes of an
// inter-node flow (one for a collective, two for a cross-node transfer),
// and spine whether it crosses leaf switches. A class of -1 is unused.
type route struct {
	nv    int32
	hca   [2]int32
	spine bool
}

// Link-class layout: class 0 is the spine; node k's NVSwitch is 1+2k and
// its HCA bundle 2+2k.
func nvClass(node int) int  { return 1 + 2*node }
func hcaClass(node int) int { return 2 + 2*node }

// routeOf translates a fat-tree path's node indices into link classes.
func routeOf(p comm.Path) route {
	r := route{nv: -1, hca: [2]int32{-1, -1}, spine: p.Spine}
	if p.NVNode >= 0 {
		r.nv = int32(nvClass(p.NVNode))
	}
	for i, n := range p.HCANodes {
		if n >= 0 {
			r.hca[i] = int32(hcaClass(n))
		}
	}
	return r
}

// BindContention binds the plan's placement on the cluster's fat tree and
// resolves every route of the graph's comm tasks: per device, the tensor-
// and data-parallel collectives from the stage's representative node (the
// node holding its first rank) over the collectives' node spans, and per
// pipeline-transfer descriptor, the path between its stages'
// representative nodes; then it clears from every route the classes only
// one device can occupy and marks the tasks whose route keeps a class (see
// the file comment). tbl, the plan's bound DurationTable, is unused: the
// parameter keeps call sites binding contention next to the durations it
// derates.
func (g *Graph) BindContention(plan parallel.Plan, c hw.Cluster, tbl *DurationTable) *ContentionTable {
	gpn := c.Node.GPUsPerNode
	cg := comm.NewCongestion(c)
	tpSpan := nodeSpan(allReduceTPArgs(plan, gpn))
	dpSpan := nodeSpan(allReduceDPArgs(plan, gpn))
	routes := make([]route, 2*g.Devices+len(g.descs))
	ct := &ContentionTable{
		cg:  cg,
		tp:  routes[:g.Devices:g.Devices],
		dp:  routes[g.Devices : 2*g.Devices : 2*g.Devices],
		p2p: routes[2*g.Devices:],
	}
	maxNode := (g.Devices*plan.Tensor*plan.Data - 1) / gpn // the last rank's node
	ct.classes = hcaClass(maxNode) + 1
	// Each route is claimed by the device whose comm stream issues it: a
	// collective by its device, a pipeline transfer by its `to` stage, on
	// whose comm stream Lower places it (UnmarshalArtifact rejects any
	// other placement). A route no task issues still claims its classes,
	// which can only keep a class shared.
	owner := make([]int32, ct.classes)
	for dev := range ct.tp {
		node := stageNode(dev, plan, gpn)
		ct.tp[dev] = routeOf(cg.CollectivePath(node, tpSpan))
		ct.dp[dev] = routeOf(cg.CollectivePath(node, dpSpan))
		ct.tp[dev].claim(owner, int32(dev))
		ct.dp[dev].claim(owner, int32(dev))
	}
	for di := range g.descs {
		if d := &g.descs[di]; d.kind == descP2P {
			ct.p2p[di] = routeOf(cg.SendRecvPath(stageNode(int(d.from), plan, gpn), stageNode(int(d.to), plan, gpn)))
			ct.p2p[di].claim(owner, d.to)
		}
	}
	for dev := range ct.tp {
		ct.tp[dev].clearPrivate(owner)
		ct.dp[dev].clearPrivate(owner)
	}
	ct.live = make([]bool, len(g.descs)*g.Devices)
	for di := range g.descs {
		live := ct.live[di*g.Devices : (di+1)*g.Devices]
		switch d := &g.descs[di]; d.kind {
		case descAllReduceTP:
			for dev, r := range ct.tp {
				live[dev] = !r.empty()
			}
		case descAllReduceDP:
			for dev, r := range ct.dp {
				live[dev] = !r.empty()
			}
		case descP2P:
			// Only the to stage's comm stream issues the transfer.
			ct.p2p[di].clearPrivate(owner)
			live[d.to] = !ct.p2p[di].empty()
		}
	}
	ct.anyLive = slices.Contains(ct.live, true)
	return ct
}

// claim records in owner that dev can put flows on r's classes. owner[c]
// is 0 while no route claims class c, dev+1 while only device dev does,
// and -1 once two devices do.
func (r route) claim(owner []int32, dev int32) {
	spine := int32(-1)
	if r.spine {
		spine = 0
	}
	for _, c := range [...]int32{r.nv, r.hca[0], r.hca[1], spine} {
		if c < 0 {
			continue
		}
		if o := &owner[c]; *o == 0 {
			*o = dev + 1
		} else if *o != dev+1 {
			*o = -1
		}
	}
}

// empty reports whether r occupies no link class.
func (r route) empty() bool { return r.nv < 0 && r.hca[0] < 0 && r.hca[1] < 0 && !r.spine }

// clearPrivate clears from r each class that only one device claims in
// owner: no other device's flow can overlap a flow there (see the file
// comment), so replay keeps no ledger for it.
func (r *route) clearPrivate(owner []int32) {
	private := func(c int32) bool { return c >= 0 && owner[c] > 0 }
	if private(r.nv) {
		r.nv = -1
	}
	for j, c := range r.hca {
		if private(c) {
			r.hca[j] = -1
		}
	}
	r.spine = r.spine && !private(0)
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

// contend derates the base duration of the comm task on device dev with
// descriptor index di and kind, given its dependency-and-stream start time,
// and records the derated flow on its link classes. The route was resolved
// at bind time and is picked by kind: a collective's by its device, a
// pipeline transfer's by its descriptor. Replay calls contend only for a
// task whose live entry is set, so the task is a comm task with a
// non-empty route; every other task's counts would all be 0 (see the file
// comment), and its duration passes through untouched. Tasks that occupy
// no time also pass through: zero-duration tasks (e.g. width-1
// collectives) and tasks so short that start+dur rounds to start. Such a
// query interval would be empty, on which the overlap count's
// decomposition can go negative. The returned duration is always >= dur:
// every weight is non-negative and the overlap counts only grow with
// concurrency.
func (ct *ContentionTable) contend(st *contState, dev, di int32, kind descKind, start, dur float64) float64 {
	if start+dur <= start {
		return dur
	}
	var r *route
	switch kind {
	case descAllReduceTP:
		r = &ct.tp[dev]
	case descAllReduceDP:
		r = &ct.dp[dev]
	default: // descP2P, the only other kind live marks
		r = &ct.p2p[di]
	}
	end := start + dur
	nv, hca, spine := 0, 0, 0
	if r.nv >= 0 {
		nv = st.overlaps(int(r.nv), start, end)
	}
	for _, c := range r.hca {
		if c >= 0 {
			hca += st.overlaps(int(c), start, end)
		}
	}
	if r.spine {
		spine = st.overlaps(0, start, end)
	}
	dur *= ct.cg.Derate(nv, hca, spine)
	fend := start + dur
	if r.nv >= 0 {
		st.record(int(r.nv), start, fend)
	}
	for _, c := range r.hca {
		if c >= 0 {
			st.record(int(c), start, fend)
		}
	}
	if r.spine {
		st.record(0, start, fend)
	}
	return dur
}
