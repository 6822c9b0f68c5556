package main

import (
	"time"

	"vtrain/bench/stat"
)

// canaryRefMs is the canary's time on the reference host, a two-vCPU Xeon
// virtual machine: the speed every gated timing is scaled to.
const canaryRefMs = 8.0

// canaryGraph is a fixed random task graph of 2^17 tasks over 64 devices,
// each task depending on one to three of the 512 tasks before it — the
// shape of work vtrain's replay does, in a few megabytes. It is the
// benchmark's own code, so no change to vtrain moves it.
type canaryGraph struct {
	off, child []int32 // CSR children
	indeg, dev []int32
	dur        []float64
	// replay scratch, reused so the canary allocates nothing
	pending []int32
	ready   []float64
	queue   []int32
}

const canaryTasks = 1 << 17

var canaryDAG = func() *canaryGraph {
	x := uint64(7)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	children := make([][]int32, canaryTasks)
	g := &canaryGraph{
		indeg: make([]int32, canaryTasks), dev: make([]int32, canaryTasks), dur: make([]float64, canaryTasks),
		pending: make([]int32, canaryTasks), ready: make([]float64, canaryTasks), queue: make([]int32, 0, canaryTasks),
		off: make([]int32, canaryTasks+1),
	}
	for i := 1; i < canaryTasks; i++ {
		for j := 0; j < 1+int(rnd()%3); j++ {
			p := i - 1 - int(rnd()%uint64(min(i, 512)))
			children[p] = append(children[p], int32(i))
			g.indeg[i]++
		}
	}
	for i, cs := range children {
		g.off[i+1] = g.off[i] + int32(len(cs))
		g.child = append(g.child, cs...)
		g.dev[i] = int32(rnd() % 64)
		g.dur[i] = float64(rnd()%1000) * 1e-6
	}
	return g
}()

// canarySink keeps the canary's result observable.
var canarySink float64

// canary times one list-scheduling replay of canaryDAG: a FIFO ready queue,
// per-device free times, dependency counts. When every workload slows at
// once and so does this, the host got slower, not the commit.
func canary() time.Duration {
	g := canaryDAG
	start := time.Now()
	copy(g.pending, g.indeg)
	clear(g.ready)
	var free [64]float64
	q := append(g.queue[:0], 0)
	end := 0.0
	for h := 0; h < len(q); h++ {
		t := q[h]
		f := max(g.ready[t], free[g.dev[t]]) + g.dur[t]
		free[g.dev[t]] = f
		end = max(end, f)
		for _, c := range g.child[g.off[t]:g.off[t+1]] {
			g.ready[c] = max(g.ready[c], f)
			if g.pending[c]--; g.pending[c] == 0 {
				q = append(q, c)
			}
		}
	}
	canarySink = end
	return time.Since(start)
}

// hostClock scales measured durations to the reference host's speed. The
// host's speed swings by up to 2x within seconds (other tenants' load), so
// each measured interval is bracketed by canaries: the canary before it —
// the one the previous interval ended with — and a fresh one after it.
type hostClock struct {
	last    time.Duration
	samples []float64 // every canary, ms
}

func newHostClock() *hostClock {
	c := &hostClock{}
	c.tick()
	return c
}

// tick runs the canary.
func (c *hostClock) tick() time.Duration {
	c.last = canary()
	c.samples = append(c.samples, msOf(c.last))
	return c.last
}

// adjust runs a fresh canary and returns d, measured since the previous
// one, in seconds at the reference host's speed.
func (c *hostClock) adjust(d time.Duration) float64 {
	before := c.last
	after := c.tick()
	return d.Seconds() * canaryRefMs / msOf((before+after)/2)
}

// medianMs is the run's typical canary time: host.calib_ms.
func (c *hostClock) medianMs() float64 { return stat.Median(c.samples) }
