// Package core is vTrain's public facade: it wires the profiling module,
// the communication model, the execution-graph builders, and the Algorithm 1
// replay engine into the end-to-end simulation flow of Fig. 4:
//
//	description -> operator graph -> profile -> task graph -> iteration time
//
// A Simulator is safe for concurrent use: design-space exploration runs
// thousands of Simulate calls across goroutines sharing one profile cache,
// which is how the paper evaluates a full (t,d,p) sweep "in tens of minutes
// on a multi-core CPU server".
package core

import (
	"fmt"
	"strconv"

	"vtrain/internal/artifact"
	"vtrain/internal/comm"
	"vtrain/internal/cost"
	"vtrain/internal/gpu"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
	"vtrain/internal/taskgraph"
)

// Simulator predicts LLM training time on a cluster. A Simulator is safe
// for concurrent use: the profiler and the plan-level report cache are
// internally synchronized, and the graphs built per simulation are
// immutable.
type Simulator struct {
	cluster hw.Cluster
	// timing is the device model and profiler the simulator binds with:
	// its tree's entry for the cluster's GPU.
	timing   *gpuTiming
	comm     taskgraph.CommTimer
	fidelity taskgraph.Fidelity
	// contention enables the topology-aware congestion fidelity level:
	// replays derate communication tasks that share fat-tree links with
	// concurrently in-flight ones (see taskgraph.BindContention). Off by
	// default; with it off, reports are byte-identical to a build that
	// predates the knob.
	contention bool
	// cacheSize and artifactDir are root-only settings New builds the tree
	// from; tree holds what the root shares with its ForCluster siblings.
	cacheSize   int
	artifactDir string
	tree        *tree
}

// Option configures a Simulator.
type Option func(*Simulator)

// WithFidelity selects the lowering granularity (TaskLevel by default).
func WithFidelity(f taskgraph.Fidelity) Option {
	return func(s *Simulator) { s.fidelity = f }
}

// WithCommTimer overrides the root's communication model (the testbed
// injects a contention-aware one here). Its reports are then not a function
// of the cluster, so such a root keeps no report cache; its ForCluster
// siblings use their own cluster's model. Root-only.
func WithCommTimer(ct taskgraph.CommTimer) Option {
	return func(s *Simulator) { s.comm = ct }
}

// WithContention toggles the topology-aware congestion fidelity level:
// when on, every replay tracks which communication tasks are simultaneously
// in flight on shared fat-tree links (node NVSwitches, HCA bundles, the
// leaf-spine uplinks) and derates their durations accordingly. When off —
// the default — the replay performs bit-identical float operations to a
// build without the knob, so the fast analytic path is untouched.
// Contention binds at replay time and never changes graph structure, so
// ForCluster siblings may differ in it while still sharing one structural
// cache.
func WithContention(on bool) Option {
	return func(s *Simulator) { s.contention = on }
}

// WithDevice overrides the GPU timing model: it becomes the tree's model for
// the root's GPU, which every sibling on that GPU shares. Root-only.
func WithDevice(d *gpu.Device) Option {
	return func(s *Simulator) { s.timing = newGPUTiming(d) }
}

// WithCacheSize bounds the tree's plan-level report cache to n entries
// (DefaultCacheSize if the option is not given). n <= 0 disables caching —
// useful for one-shot simulators whose configurations never repeat.
// Root-only.
func WithCacheSize(n int) Option {
	return func(s *Simulator) { s.cacheSize = n }
}

// WithArtifactDir enables the persistent artifact tier rooted at dir:
// structural graphs (and the profiler's operator table) missing from the
// in-memory caches are loaded from the content-addressed on-disk store
// before being lowered, and fresh lowerings are written back, so a new
// process starts warm with whatever any previous process already paid for.
// Artifacts are keyed by shape, fidelity, encoding version, and build ID,
// and reports are byte-identical whether a graph was lowered, memory-
// cached, or disk-loaded. An empty dir leaves the tier disabled (the
// default). Root-only.
func WithArtifactDir(dir string) Option {
	return func(s *Simulator) { s.artifactDir = dir }
}

// New builds a simulator for the cluster, profiling its intra-node fabric.
func New(c hw.Cluster, opts ...Option) (*Simulator, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{cluster: c, fidelity: taskgraph.TaskLevel, cacheSize: DefaultCacheSize}
	for _, o := range opts {
		o(s)
	}
	// The caches are created after the options so every entry reflects the
	// final device and communication model; each New starts a tree of its
	// own, so differently-configured simulators can never serve each
	// other's reports or structural graphs — except siblings derived with
	// ForCluster, which deliberately share the tree (structural graphs are
	// hardware-invariant; see ForCluster). A report is keyed by its
	// cluster, which a custom communication model makes insufficient.
	cacheSize := s.cacheSize
	if s.comm == nil {
		s.comm = comm.NewModel(c)
	} else {
		cacheSize = 0
	}
	if s.timing == nil {
		s.timing = newGPUTiming(gpu.NewDevice(c.Node.GPU))
	}
	s.tree = &tree{
		shapes:  newFIFO[shapeKey, *structEntry](DefaultStructCacheSize),
		results: newFIFO[cacheKey, Report](cacheSize),
		gpus:    map[hw.GPU]*gpuTiming{c.Node.GPU: s.timing},
	}
	if s.artifactDir != "" {
		st, err := artifact.Open(s.artifactDir)
		if err != nil {
			return nil, err
		}
		s.tree.artifacts = st
	}
	s.tree.loadOps(s.timing)
	return s, nil
}

// ForCluster derives a sibling simulator for cluster c that shares s's
// tree — the report cache, the shape-keyed structural cache, the artifact
// store, one device timing model and profiler per GPU, and every CacheStats
// counter — while owning its own communication model.
//
// Sharing is sound because a structural graph is hardware-invariant: Lower
// emits tasks, dependency edges, and duration descriptors only, and
// consults the profiler solely for each operator's kernel count, which is
// fixed per operator kind across GPU generations. Everything a cluster
// changes — kernel durations, collective latencies, link placement, price —
// is bound per plan by Graph.Bind against the sibling's GPU profiler and
// communication model. This is what makes a joint (hardware x plan) sweep
// cheap: all hardware variants of one plan shape replay a single lowered
// graph, and every candidate on one GPU profiles each operator once (see
// internal/clusterdse).
//
// Options may set the sibling's fidelity or contention level: every cache
// key carries both, and contention binds at replay time, so siblings of one
// tree may differ in them. The root-only options configure the tree, so
// ForCluster refuses any that would change it. CacheStats on any sibling
// reports the tree's counters.
func (s *Simulator) ForCluster(c hw.Cluster, opts ...Option) (*Simulator, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	sib := &Simulator{
		cluster:     c,
		fidelity:    s.fidelity,
		contention:  s.contention,
		cacheSize:   s.cacheSize,
		artifactDir: s.artifactDir,
		tree:        s.tree,
	}
	for _, o := range opts {
		o(sib)
	}
	if sib.timing != nil || sib.comm != nil || sib.cacheSize != s.cacheSize || sib.artifactDir != s.artifactDir {
		return nil, fmt.Errorf("core: ForCluster cannot change the report cache, artifact store, device or communication model: they belong to the root")
	}
	sib.comm = comm.NewModel(c)
	sib.timing = s.tree.timingFor(c.Node.GPU)
	return sib, nil
}

// CacheStats summarizes a simulator tree's caches: the plan-level report
// cache (one entry per simulated configuration) and the shape-keyed
// structural cache (one lowered graph per plan topology). Every counter is
// the tree's: a root and each of its ForCluster siblings report the same
// totals, whichever of them did the work. StructMisses is exactly the
// number of lowering invocations performed so far; in a design-space sweep
// the hit rate shows how many plans shared a structure.
type CacheStats struct {
	// ReportHits / ReportMisses count plan-level result cache lookups.
	ReportHits, ReportMisses uint64
	// StructHits / StructMisses count structural-graph cache lookups;
	// both are zero while the report cache absorbs a repeated plan.
	StructHits, StructMisses uint64
	// BatchReplays counts batched replay passes (SimulateBatch issues one
	// per chunk of at most 16 same-shape plans) and BatchedPlans the plans
	// they carried; BatchedPlans/BatchReplays is the sweep's mean batch
	// width.
	BatchReplays, BatchedPlans uint64
	// Lowerings counts actual graph lowerings (taskgraph.LowerPlan runs).
	// Without a persistent tier it equals StructMisses — every miss lowers;
	// with one it can be smaller, since misses served from disk skip the
	// lowering. This is the "cold work actually paid" figure a fully warm
	// disk pins to zero.
	Lowerings uint64
	// DiskHits / DiskMisses / DiskWrites count the persistent artifact
	// tier's file loads and writes (all zero when WithArtifactDir is
	// unset): a persisted graph is one file, as is each operator-table
	// save. A corrupt, truncated, or version-skewed artifact counts as a
	// miss and falls back to lowering; it is never an error.
	DiskHits, DiskMisses, DiskWrites uint64
}

// CacheStats snapshots the counters of the simulator's tree.
func (s *Simulator) CacheStats() CacheStats {
	t := s.tree
	disk := t.artifacts.Stats()
	return CacheStats{
		ReportHits:   t.reports.hits.Load(),
		ReportMisses: t.reports.misses.Load(),
		StructHits:   t.structs.hits.Load(),
		StructMisses: t.structs.misses.Load(),
		BatchReplays: t.batchReplays.Load(),
		BatchedPlans: t.batchedPlans.Load(),
		Lowerings:    t.lowerings.Load(),
		DiskHits:     disk.Hits,
		DiskMisses:   disk.Misses,
		DiskWrites:   disk.Writes,
	}
}

// Cluster returns the simulated cluster description.
func (s *Simulator) Cluster() hw.Cluster { return s.cluster }

// Profiler exposes the operator-to-task lookup table.
func (s *Simulator) Profiler() *profiler.Profiler { return s.timing.profiler }

// Report is the outcome of simulating one training iteration.
type Report struct {
	// Model and Plan identify the simulated configuration.
	Model model.Config
	Plan  parallel.Plan
	// IterTime is the predicted single-iteration training time (s).
	IterTime float64
	// Utilization is GPU compute utilization (model FLOPs over peak).
	Utilization float64
	// HardwareFLOPs is the executed arithmetic per iteration across the
	// whole system (includes attention and other non-model FLOPs).
	HardwareFLOPs float64
	// ComputeSeconds and CommSeconds are mean per-device busy times; the
	// remainder of IterTime is pipeline bubble / idle.
	ComputeSeconds float64
	CommSeconds    float64
	// BubbleFraction is the mean idle fraction of the compute streams.
	BubbleFraction float64
	// PeakMemoryBytes is the estimated per-GPU peak memory.
	PeakMemoryBytes uint64
	// FitsMemory reports whether the plan fits device memory.
	FitsMemory bool
	// Tasks is the number of replayed tasks.
	Tasks int
	// Breakdown attributes per-device busy seconds to operator and
	// communication classes ("FwdMHA", "AllReduceTP", ...), summed over
	// all simulated devices.
	Breakdown map[string]float64
}

// Simulate predicts the single-iteration training time of m under plan.
// Results are memoized per (cluster, model, plan, fidelity, contention) in
// the tree's report cache, which the root and every sibling read and fill:
// repeated configurations across design-space sweeps, scheduler profiling,
// Chinchilla searches and server requests dedupe to one simulation.
// Reports served from the cache share their Breakdown map; callers must
// treat it as read-only.
func (s *Simulator) Simulate(m model.Config, plan parallel.Plan) (Report, error) {
	key := s.reportKey(m, plan)
	if rep, ok := s.cachedReport(key); ok {
		return rep, nil
	}
	rep, _, err := s.simulate(m, plan, false)
	if err == nil && s.tree.results != nil {
		s.tree.results.put(key, rep)
	}
	return rep, err
}

// reportKey is (m, plan)'s report-cache key on this simulator.
func (s *Simulator) reportKey(m model.Config, plan parallel.Plan) cacheKey {
	return cacheKey{cluster: s.cluster, model: m, plan: plan, fidelity: s.fidelity, contention: s.contention}
}

// cachedReport looks key up in the tree's report cache, counting the hit or
// miss; with the cache disabled it misses without counting.
func (s *Simulator) cachedReport(key cacheKey) (Report, bool) {
	if s.tree.results == nil {
		return Report{}, false
	}
	rep, ok := s.tree.results.get(key)
	s.tree.reports.record(ok)
	return rep, ok
}

// SimulateTrace is Simulate plus the full execution timeline, which
// taskgraph.WriteChromeTrace renders for chrome://tracing or Perfetto.
func (s *Simulator) SimulateTrace(m model.Config, plan parallel.Plan) (Report, []taskgraph.Span, error) {
	return s.simulate(m, plan, true)
}

func (s *Simulator) simulate(m model.Config, plan parallel.Plan, capture bool) (Report, []taskgraph.Span, error) {
	tg, err := s.structural(m, plan)
	if err != nil {
		return Report{}, nil, err
	}
	// Bind the per-plan numbers — operator durations from the profiler,
	// collective and P2P times from the communication model — onto the
	// (possibly shared) structure, then replay. Binding allocates only the
	// small per-descriptor table; the structure itself is reused untouched.
	tbl := tg.Bind(s.timing.profiler, s.comm, plan, s.cluster)
	s.tree.saveOps(s.timing)
	var ct *taskgraph.ContentionTable
	if s.contention {
		ct = tg.BindContention(plan, s.cluster, tbl)
	}
	var (
		res   taskgraph.Result
		spans []taskgraph.Span
	)
	if capture {
		// Timings come from the (possibly shared or disk-loaded) structure;
		// span labels come from an operator graph of the same shape, built
		// for this trace alone and recycled once the spans are composed.
		og, berr := opgraph.Build(m, plan, s.cluster)
		if berr != nil {
			return Report{}, nil, berr
		}
		res, spans, err = tg.ReplayTrace(tbl, ct, og)
		og.Recycle()
	} else {
		res, err = tg.Replay(tbl, ct)
	}
	if err != nil {
		return Report{}, nil, fmt.Errorf("core: simulating %s under %s: %w", m.Name, plan, err)
	}
	return s.assembleReport(m, plan, res), spans, nil
}

// structural returns the structural task graph for (m, plan) at the
// simulator's fidelity, serving it from the tier chain: shape-keyed
// in-memory cache, then the persistent artifact store, then a fresh
// lowering. The plan is fully validated on every call — a cache or disk
// hit must not skip the per-plan checks that Build would perform.
func (s *Simulator) structural(m model.Config, plan parallel.Plan) (*taskgraph.Graph, error) {
	if err := opgraph.Validate(m, plan, s.cluster); err != nil {
		return nil, err
	}
	// Build errors stay cached with the entry: they are deterministic
	// properties of the shape.
	e, ok := s.tree.shapes.getOrInsert(shapeOf(m, plan, s.fidelity), func() *structEntry { return new(structEntry) })
	s.tree.structs.record(ok)
	e.once.Do(func() { e.g, e.err = s.buildStructural(m, plan) })
	return e.g, e.err
}

// buildStructural is the tier chain below the in-memory structural cache:
// load from the artifact store when one is configured, otherwise (or on a
// disk miss) lower from scratch and write the result back.
func (s *Simulator) buildStructural(m model.Config, plan parallel.Plan) (*taskgraph.Graph, error) {
	store := s.tree.artifacts
	if store == nil {
		return s.lower(m, plan)
	}
	key := s.graphKey(m, plan)
	if g, ok := store.LoadGraph(key); ok {
		return g, nil
	}
	g, err := s.lower(m, plan)
	if err == nil {
		store.SaveGraph(key, g)
	}
	return g, err
}

// lower builds the structural graph from scratch — every cache tier
// missed — counting the lowering.
func (s *Simulator) lower(m model.Config, plan parallel.Plan) (*taskgraph.Graph, error) {
	tg, err := taskgraph.LowerPlan(m, plan, s.cluster, s.fidelity)
	if err != nil {
		return nil, err
	}
	s.tree.lowerings.Add(1)
	return tg, nil
}

// graphKey is the artifact store address of (m, plan)'s structural graph:
// the shape key (which embeds the model and fidelity), the payload
// encoding version, and the build ID, so new code or a new encoding misses
// cleanly instead of reading stale structure.
func (s *Simulator) graphKey(m model.Config, plan parallel.Plan) string {
	return artifact.Key(
		"graph",
		strconv.Itoa(taskgraph.EncodingVersion),
		artifact.BuildID(),
		fmt.Sprintf("%+v", shapeOf(m, plan, s.fidelity)),
	)
}

// assembleReport derives the Report quantities from a replay result.
func (s *Simulator) assembleReport(m model.Config, plan parallel.Plan, res taskgraph.Result) Report {
	var busyC, busyM float64
	for i := range res.ComputeBusy {
		busyC += res.ComputeBusy[i]
		busyM += res.CommBusy[i]
	}
	stages := float64(len(res.ComputeBusy))
	peakMem := plan.PeakMemoryBytes(m)

	// A degenerate plan (every task priced at zero) yields IterTime == 0;
	// report zero utilization and bubble rather than dividing by it.
	bubble := 0.0
	if res.IterTime > 0 {
		bubble = 1 - busyC/(stages*res.IterTime)
	}

	// The folded graph simulates one (tensor, data) representative per
	// stage; every replica executes the same FLOPs.
	sysFLOPs := res.FLOPs * float64(plan.Tensor) * float64(plan.Data)

	return Report{
		Model:           m,
		Plan:            plan,
		IterTime:        res.IterTime,
		Utilization:     cost.Utilization(m, plan.GlobalBatch, res.IterTime, plan.GPUs(), s.cluster.Node.GPU),
		HardwareFLOPs:   sysFLOPs,
		ComputeSeconds:  busyC / stages,
		CommSeconds:     busyM / stages,
		BubbleFraction:  bubble,
		PeakMemoryBytes: peakMem,
		FitsMemory:      peakMem <= s.cluster.Node.GPU.MemCapacity,
		Tasks:           res.Executed,
		Breakdown:       res.ClassSeconds,
	}
}

// Train extends Simulate with the end-to-end projection for totalTokens:
// days of wall-clock training and its monetary cost.
func (s *Simulator) Train(m model.Config, plan parallel.Plan, totalTokens uint64) (Report, cost.Training, error) {
	rep, err := s.Simulate(m, plan)
	if err != nil {
		return Report{}, cost.Training{}, err
	}
	tr := cost.Train(m, plan.GlobalBatch, rep.IterTime, plan.GPUs(), totalTokens, s.cluster)
	return rep, tr, nil
}
