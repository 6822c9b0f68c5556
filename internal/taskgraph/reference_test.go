package taskgraph

import (
	"math"

	"vtrain/internal/comm"
	"vtrain/internal/hw"
	"vtrain/internal/parallel"
)

// placement is the plan and cluster a contended replay is bound for.
type placement struct {
	plan parallel.Plan
	c    hw.Cluster
}

// referenceReplay is a deliberately naive Algorithm 1 that the optimized
// replay loops are checked against bit for bit: maps instead of slabs, its
// own dependency counts and FIFO queue, and — under contention — a
// brute-force overlap count against every flow recorded earlier on each
// link, priced through comm.Congestion's paths and Derate. It shares no
// replay code with the package: only the graph's structure and the table's
// bound values. A nil pl replays ideally; otherwise it re-derives each
// comm task's path from pl by its descriptor kind, through the placement
// rule (stageNode, allReduceTPArgs, allReduceDPArgs) and comm's paths,
// never through a ContentionTable's bound routes.
//
// It derives each task's children by transposing the parents CSR, so
// children list in ascending id, and seeds the queue with the roots in
// ascending id. That tie-breaking reproduces the stored dispatch order:
// Build numbered the tasks in FIFO order, so roots hold the smallest ids
// and the children a task releases were numbered in the order they were
// queued. The FIFO order of the renumbered graph is therefore the id order,
// which the optimized loops walk directly.
func referenceReplay(g *Graph, tbl *DurationTable, pl *placement) Result {
	type link struct{ kind, node int } // kind 0 = NVSwitch, 1 = HCA, 2 = spine
	type flow struct{ start, end float64 }
	res := Result{
		ComputeBusy:  make([]float64, g.Devices),
		CommBusy:     make([]float64, g.Devices),
		ClassSeconds: map[string]float64{},
	}
	children := map[int32][]int32{}
	ref := map[int32]int{}
	for id := 0; id < g.NumTasks(); id++ {
		for _, p := range g.parents[g.parentStart[id]:g.parentStart[id+1]] {
			children[p] = append(children[p], int32(id))
			ref[int32(id)]++
		}
	}
	var queue []int32
	for id := 0; id < g.NumTasks(); id++ {
		if ref[int32(id)] == 0 {
			queue = append(queue, int32(id))
		}
	}
	ready := map[int32]float64{}
	free := map[int]float64{}
	flows := map[link][]flow{}
	var cg comm.Congestion
	var gpn int
	if pl != nil {
		cg, gpn = comm.NewCongestion(pl.c), pl.c.Node.GPUsPerNode
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		t := g.TaskAt(int(id))
		slot := 2*t.Device + int(t.Stream)
		di := tbl.durIdx[id]
		dur, flops := tbl.vals[di].dur, tbl.vals[di].flops
		start := math.Max(ready[id], free[slot])
		d := &g.descs[di]
		comms := d.kind == descAllReduceTP || d.kind == descAllReduceDP || d.kind == descP2P
		// A flow that occupies no time on the timeline contends with
		// nothing, as in contend.
		if pl != nil && t.Stream == CommStream && comms && start+dur > start {
			var path comm.Path
			switch d.kind {
			case descAllReduceTP:
				path = cg.CollectivePath(stageNode(t.Device, pl.plan, gpn), nodeSpan(allReduceTPArgs(pl.plan, gpn)))
			case descAllReduceDP:
				path = cg.CollectivePath(stageNode(t.Device, pl.plan, gpn), nodeSpan(allReduceDPArgs(pl.plan, gpn)))
			default:
				path = cg.SendRecvPath(stageNode(int(d.from), pl.plan, gpn), stageNode(int(d.to), pl.plan, gpn))
			}
			var links []link
			if path.NVNode >= 0 {
				links = append(links, link{0, path.NVNode})
			}
			for _, n := range path.HCANodes {
				if n >= 0 {
					links = append(links, link{1, n})
				}
			}
			if path.Spine {
				links = append(links, link{2, 0})
			}
			var overlaps [3]int
			for _, l := range links {
				for _, f := range flows[l] {
					if f.start < start+dur && f.end > start {
						overlaps[l.kind]++
					}
				}
			}
			dur *= cg.Derate(overlaps[0], overlaps[1], overlaps[2])
			for _, l := range links {
				flows[l] = append(flows[l], flow{start, start + dur})
			}
		}
		finish := start + dur
		free[slot] = finish
		if t.Stream == CommStream {
			res.CommBusy[t.Device] += dur
		} else {
			res.ComputeBusy[t.Device] += dur
		}
		res.ClassSeconds[t.Class] += dur
		res.FLOPs += flops
		res.Executed++
		for _, c := range children[id] {
			ready[c] = math.Max(ready[c], finish)
			if ref[c]--; ref[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	for _, f := range free {
		res.IterTime = math.Max(res.IterTime, f)
	}
	return res
}
