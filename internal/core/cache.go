package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"vtrain/internal/artifact"
	"vtrain/internal/gpu"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
	"vtrain/internal/taskgraph"
)

// DefaultCacheSize is the report cache capacity of a new simulator tree. A
// full MT-NLG design-space sweep evaluates a few thousand plans; 16Ki
// entries hold several sweeps at ~200 bytes per Report.
const DefaultCacheSize = 16384

// DefaultStructCacheSize is the structural-graph cache capacity of a new
// Simulator. A design-space sweep's thousands of plans collapse to a few
// dozen structural shapes — (schedule, pipeline depth, micro-batch count,
// interleaving, layer split, fidelity) tuples — but structural graphs are
// much larger than Reports, so the bound is far tighter than the report
// cache's.
const DefaultStructCacheSize = 128

// cacheKey identifies one simulated configuration in a tree's report cache.
// hw.Cluster, model.Config and parallel.Plan are flat comparable structs,
// so the tuple is a valid map key. Within one tree the device timing model
// follows from the cluster's GPU and the communication model from the
// cluster, so the key determines the report.
type cacheKey struct {
	cluster    hw.Cluster
	model      model.Config
	plan       parallel.Plan
	fidelity   taskgraph.Fidelity
	contention bool
}

// fifo is a concurrency-safe map bounded to max entries with FIFO
// eviction. It backs both of a tree's caches: the plan-level report cache
// (one Report per simulated configuration — design-space exploration, the
// cluster scheduler's offline profiling, the Chinchilla search and repeated
// server requests evaluate overlapping configurations, and each dedupes to
// one simulation) and the shape-keyed structural cache (one lowered graph
// per plan topology). Callers count their hits and misses on the tree.
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
// every ForCluster sibling derived from it: the report cache, the
// structural cache, the persistent artifact store, one device timing model
// and profiler per GPU, and every CacheStats counter. A multi-cluster sweep
// therefore profiles each operator once per GPU and reports its totals in
// one place, and a sibling that is dropped has already recorded everything
// it did into its tree.
type tree struct {
	// results is the report cache (nil when disabled), bounded by the
	// root's WithCacheSize.
	results *fifo[cacheKey, Report]
	// shapes is the structural cache: one lowered graph per plan topology
	// and fidelity.
	shapes *fifo[shapeKey, *structEntry]
	// artifacts is the persistent tier below the structural cache (nil
	// unless WithArtifactDir is given): memory miss -> disk load ->
	// lowering, with fresh lowerings written back. The store counts its own
	// disk hits, misses and writes.
	artifacts *artifact.Store
	// gpus holds each GPU's timing model, guarded by gpusMu.
	gpusMu sync.Mutex
	gpus   map[hw.GPU]*gpuTiming
	// reports counts the lookups in results, structs those in shapes.
	reports, structs lookups
	// batchReplays counts batched replay passes, batchedPlans the plans
	// they carried.
	batchReplays, batchedPlans atomic.Uint64
	// lowerings counts actual lowerings (taskgraph.LowerPlan runs); with a
	// persistent tier it can be smaller than the structural misses, since
	// misses served from disk do not lower.
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

// gpuTiming is one GPU's device timing model and the profiler built on it.
// The profiler is internally synchronized, so every simulator of a tree on
// that GPU binds through it and profiles each operator once.
type gpuTiming struct {
	device   *gpu.Device
	profiler *profiler.Profiler
	// saved is the profiler entry count at the last operator-table save,
	// so the table is re-persisted only when it grew.
	saved atomic.Int64
}

func newGPUTiming(d *gpu.Device) *gpuTiming {
	return &gpuTiming{device: d, profiler: profiler.New(d)}
}

// timingFor returns the tree's timing model for g, building it — and
// pre-warming its profiler from the artifact store — on first use.
func (t *tree) timingFor(g hw.GPU) *gpuTiming {
	t.gpusMu.Lock()
	defer t.gpusMu.Unlock()
	gt, ok := t.gpus[g]
	if !ok {
		gt = newGPUTiming(gpu.NewDevice(g))
		t.loadOps(gt)
		t.gpus[g] = gt
	}
	return gt
}

// opsKey is the artifact store address of gt's operator table, keyed by
// the full device timing model: a different GPU — or a tuned device — must
// never read another's kernel timings.
func (gt *gpuTiming) opsKey() string {
	d := gt.device
	return artifact.Key(
		"ops",
		strconv.Itoa(artifact.OpsEncodingVersion),
		artifact.BuildID(),
		fmt.Sprintf("%+v|%g|%g", d.Spec, d.MaxTensorEff, d.MemEff),
	)
}

// loadOps pre-warms gt's profiler from the persisted operator table, if the
// store has one for its device. Installed entries count as neither hits
// nor misses, so profiler statistics still reflect this process's demand.
func (t *tree) loadOps(gt *gpuTiming) {
	if t.artifacts == nil {
		return
	}
	if entries, ok := t.artifacts.LoadOperators(gt.opsKey()); ok {
		gt.profiler.Install(entries)
		gt.saved.Store(int64(gt.profiler.Entries()))
	}
}

// saveOps persists gt's operator table when it grew since the last save.
// Callers save after binding a plan's durations: lowering reads only kernel
// counts, so the table fills as plans bind, and only re-saving when it grew
// keeps the write traffic bounded. Concurrent savers may both write; the
// content is deterministic per device, so the duplicate write is harmless.
func (t *tree) saveOps(gt *gpuTiming) {
	if t.artifacts == nil {
		return
	}
	n := int64(gt.profiler.Entries())
	if n == 0 || n == gt.saved.Load() {
		return
	}
	if t.artifacts.SaveOperators(gt.opsKey(), gt.profiler.Table()) {
		gt.saved.Store(n)
	}
}
