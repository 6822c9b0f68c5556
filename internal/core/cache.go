package core

import (
	"sync"

	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/taskgraph"
)

// DefaultCacheSize is the report cache capacity of a new Simulator. A full
// MT-NLG design-space sweep evaluates a few thousand plans; 16Ki entries
// hold several sweeps at ~200 bytes per Report.
const DefaultCacheSize = 16384

// DefaultStructCacheSize is the structural-graph cache capacity of a new
// Simulator. A design-space sweep's thousands of plans collapse to a few
// dozen structural shapes — (schedule, pipeline depth, micro-batch count,
// interleaving, layer split, fidelity) tuples — but structural graphs are
// much larger than Reports, so the bound is far tighter than the report
// cache's.
const DefaultStructCacheSize = 128

// cacheKey identifies one simulated configuration. Both model.Config and
// parallel.Plan are flat comparable structs, so the tuple is a valid map
// key; the fidelity and contention level complete the configuration (one
// Simulator only ever uses one of each, but keying on them keeps the
// invariant explicit).
type cacheKey struct {
	model      model.Config
	plan       parallel.Plan
	fidelity   taskgraph.Fidelity
	contention bool
}

// reportCache is a concurrency-safe, bounded (model, plan, fidelity) →
// Report cache with FIFO eviction. Design-space exploration, the cluster
// scheduler's offline profiling, and the Chinchilla search repeatedly
// evaluate overlapping configurations; deduping them to one simulation is
// the plan-level analogue of the profiler's kernel cache.
type reportCache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey]Report
	// order is a FIFO ring of the inserted keys; head indexes the next
	// victim once the cache is full.
	order        []cacheKey
	head         int
	hits, misses uint64
}

func newReportCache(max int) *reportCache {
	if max <= 0 {
		return nil
	}
	return &reportCache{
		max:     max,
		entries: make(map[cacheKey]Report, min(max, 1024)),
		order:   make([]cacheKey, 0, min(max, 1024)),
	}
}

func (c *reportCache) get(k cacheKey) (Report, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, ok := c.entries[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return rep, ok
}

func (c *reportCache) put(k cacheKey, rep Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[k]; ok {
		c.entries[k] = rep
		return
	}
	if len(c.entries) < c.max {
		c.entries[k] = rep
		c.order = append(c.order, k)
		return
	}
	delete(c.entries, c.order[c.head])
	c.entries[k] = rep
	c.order[c.head] = k
	c.head = (c.head + 1) % c.max
}

func (c *reportCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// shapeKey identifies one structural shape: everything that determines the
// task-graph topology of a plan, and nothing that only determines its
// durations. Two plans with equal shapeKeys lower to identical structural
// graphs; their tensor width, data width, and micro-batch size differ only
// in the DurationTable bound at replay. The key deliberately contains no
// hardware fields: structural graphs are hardware-invariant (pinned by
// taskgraph.TestStructureHardwareInvariance), which is what lets
// ForCluster siblings share one structural cache across clusters.
type shapeKey struct {
	// model matters structurally through its layer count (the per-stage
	// layer split) and, conservatively, its other fields: a simulator may
	// sweep several models, and keying the whole comparable config keeps
	// each model's shapes distinct without a bespoke projection.
	model model.Config
	// schedule, pipeline, microBatches, and virtualStages select the slot
	// order and cross-stage dependency pattern.
	schedule      parallel.Schedule
	pipeline      int
	microBatches  int
	virtualStages int
	// recompute adds the recomputation operator chains to every backward.
	recompute bool
	// tensorPar and dataPar record the *presence* of tensor-parallel
	// All-Reduces and gradient All-Reduces; the widths themselves only
	// scale durations.
	tensorPar, dataPar bool
	// gradientBuckets is the requested bucket count; the effective
	// per-stage count derives from it plus the fields above.
	gradientBuckets int
	// fidelity selects kernel- vs operator-granularity tasks.
	fidelity taskgraph.Fidelity
}

// shapeOf projects a configuration onto its structural shape.
func shapeOf(m model.Config, plan parallel.Plan, fid taskgraph.Fidelity) shapeKey {
	v := plan.VirtualStages
	if v < 1 {
		v = 1
	}
	return shapeKey{
		model:           m,
		schedule:        plan.Schedule,
		pipeline:        plan.Pipeline,
		microBatches:    plan.MicroBatches(),
		virtualStages:   v,
		recompute:       plan.Recompute,
		tensorPar:       plan.Tensor > 1,
		dataPar:         plan.Data > 1,
		gradientBuckets: plan.GradientBuckets,
		fidelity:        fid,
	}
}

// structEntry is one structural-cache slot. The entry is inserted before
// the graph is lowered and built through its sync.Once, so concurrent
// misses on one shape lower exactly once — the others block on the Once and
// share the result (single-flight).
type structEntry struct {
	once sync.Once
	g    *taskgraph.Graph
	err  error
}

// structCache is the concurrency-safe, bounded shape → structural-graph
// cache with FIFO eviction. It is the lowering-level analogue of the report
// cache: where the report cache dedupes identical (model, plan)
// configurations, the structural cache dedupes the far coarser equivalence
// classes of plans sharing a topology, so a 2,000-point sweep lowers a few
// dozen graphs instead of 2,000.
type structCache struct {
	mu      sync.Mutex
	max     int
	entries map[shapeKey]*structEntry
	order   []shapeKey
	head    int
	hits    uint64
	misses  uint64
}

func newStructCache(max int) *structCache {
	return &structCache{
		max:     max,
		entries: make(map[shapeKey]*structEntry, min(max, 64)),
		order:   make([]shapeKey, 0, min(max, 64)),
	}
}

// get returns the structural graph for k, lowering it via build on the
// first request (and after an eviction). Lowering errors are cached with
// the entry: they are deterministic properties of the shape.
func (c *structCache) get(k shapeKey, build func() (*taskgraph.Graph, error)) (*taskgraph.Graph, error) {
	c.mu.Lock()
	e, ok := c.entries[k]
	if ok {
		c.hits++
	} else {
		c.misses++
		e = new(structEntry)
		if len(c.entries) < c.max {
			c.entries[k] = e
			c.order = append(c.order, k)
		} else {
			delete(c.entries, c.order[c.head])
			c.entries[k] = e
			c.order[c.head] = k
			c.head = (c.head + 1) % c.max
		}
	}
	c.mu.Unlock()
	e.once.Do(func() { e.g, e.err = build() })
	return e.g, e.err
}

func (c *structCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
