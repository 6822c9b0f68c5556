package core

import (
	"sync"
	"sync/atomic"

	"vtrain/internal/artifact"
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

// fifo is a concurrency-safe map bounded to max entries with FIFO
// eviction. It backs both core caches: each simulator's plan-level report
// cache (one Report per simulated configuration — design-space exploration,
// the cluster scheduler's offline profiling and the Chinchilla search
// evaluate overlapping configurations, and each dedupes to one simulation)
// and its tree's shape-keyed structural cache (one lowered graph per plan
// topology). Callers count their hits and misses on the tree.
type fifo[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	entries map[K]V
	// order is a FIFO ring of the inserted keys; head indexes the next
	// victim once the cache is full.
	order []K
	head  int
}

// newFIFO returns an empty cache of capacity max, or nil when max <= 0
// (caching disabled).
func newFIFO[K comparable, V any](max int) *fifo[K, V] {
	if max <= 0 {
		return nil
	}
	return &fifo[K, V]{
		max:     max,
		entries: make(map[K]V, min(max, 1024)),
		order:   make([]K, 0, min(max, 1024)),
	}
}

func (c *fifo[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[k]
	return v, ok
}

// getOrInsert returns the value at k, first inserting fresh() when k is
// absent (evicting the oldest entry when full); ok reports whether k was
// present.
func (c *fifo[K, V]) getOrInsert(k K, fresh func() V) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok = c.entries[k]; ok {
		return v, ok
	}
	if len(c.order) < c.max {
		c.order = append(c.order, k)
	} else {
		delete(c.entries, c.order[c.head])
		c.order[c.head] = k
		c.head = (c.head + 1) % c.max
	}
	v = fresh()
	c.entries[k] = v
	return v, ok
}

// put inserts v at k unless k is already present. Values put at one key
// are interchangeable (two concurrent misses simulate the same report), so
// keeping the first is as good as keeping the last.
func (c *fifo[K, V]) put(k K, v V) {
	c.getOrInsert(k, func() V { return v })
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

// tree is the state a root simulator shares, through one pointer, with
// every ForCluster sibling derived from it: the structural cache, the
// persistent artifact store, and every CacheStats counter. A multi-cluster
// sweep therefore reports its totals in one place, and a sibling that is
// dropped has already recorded everything it did into its tree.
type tree struct {
	// shapes is the structural cache: one lowered graph per plan topology.
	shapes *fifo[shapeKey, *structEntry]
	// artifacts is the persistent tier below the structural cache (nil
	// unless WithArtifactDir is given): memory miss -> disk load ->
	// lowering, with fresh lowerings written back. The store counts its own
	// disk hits, misses and writes.
	artifacts *artifact.Store
	// reports counts the report-cache lookups of every simulator in the
	// tree (each owns its cache: a report depends on the cluster), structs
	// the lookups in shapes.
	reports, structs lookups
	// batchReplays counts batched replay passes, batchedPlans the plans
	// they carried.
	batchReplays, batchedPlans atomic.Uint64
	// lowerings counts actual taskgraph.Lower runs; with a persistent tier
	// it can be smaller than the structural misses, since misses served
	// from disk do not lower.
	lowerings atomic.Uint64
}

// lookups counts one cache's hits and misses.
type lookups struct {
	hits, misses atomic.Uint64
}

func (l *lookups) record(hit bool) {
	if hit {
		l.hits.Add(1)
	} else {
		l.misses.Add(1)
	}
}
