package server

import (
	"fmt"
	"math"
	"sync"

	"vtrain/internal/clusterdse"
	"vtrain/internal/core"
	"vtrain/internal/cost"
	"vtrain/internal/dse"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/resilience"
	"vtrain/internal/taskgraph"
)

// DefaultPoolSize bounds how many distinct (cluster, fidelity, contention)
// simulators the engine keeps warm. Each pooled simulator is a ForCluster
// sibling that owns a report cache and binds against its own cluster, while
// lowered graphs live in its fidelity root's shared structural cache; the
// bound keeps a hostile request stream (every request a new node count)
// from growing the pool without limit.
const DefaultPoolSize = 64

// Engine is the transport-independent serving core: it resolves requests
// to simulator inputs and routes them to one simulator tree per fidelity —
// a root built with core.New on first use and a pool of its ForCluster
// siblings, one per (cluster, contention) — so a plan shape is lowered once
// per fidelity however many clusters request it. Identical concurrent work
// dedupes through the tree's single-flight lowering; repeated
// configurations across users hit warm caches instead of paying cold
// lowering, which is the whole point of running long-lived.
//
// An Engine is safe for concurrent use.
type Engine struct {
	simOpts  []core.Option
	poolSize int

	mu    sync.Mutex
	sims  map[simKey]*core.Simulator
	order []simKey // insertion order, for FIFO eviction
	roots map[taskgraph.Fidelity]*core.Simulator
}

type simKey struct {
	cluster    hw.Cluster
	fidelity   taskgraph.Fidelity
	contention bool
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithSimulatorOptions appends core options applied to every root simulator
// the engine creates, and inherited by the root's siblings. One-shot CLI
// processes pass core.WithCacheSize(0): their configurations never repeat,
// so the report cache would only hold garbage.
func WithSimulatorOptions(opts ...core.Option) EngineOption {
	return func(e *Engine) { e.simOpts = append(e.simOpts, opts...) }
}

// WithArtifactDir enables the persistent artifact tier under dir for every
// root simulator, and so for every sibling below it: lowered graphs survive
// process restarts, and the disk counters in /metrics are the roots'
// store-wide totals. An empty dir leaves the tier disabled (the default).
func WithArtifactDir(dir string) EngineOption {
	return WithSimulatorOptions(core.WithArtifactDir(dir))
}

// NewEngine builds an empty engine; simulators are created lazily as
// requests arrive and stay warm for the engine's lifetime.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{
		poolSize: DefaultPoolSize,
		sims:     make(map[simKey]*core.Simulator),
		roots:    make(map[taskgraph.Fidelity]*core.Simulator),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// root returns the fidelity's root simulator, building it on cluster c on
// first use. The root's cluster only decides which GPU's profiler later
// siblings share — structure is hardware-invariant and every sibling binds
// its own durations — and the root stays contention-off: contention binds
// at replay time, so siblings set their own. c must be valid.
func (e *Engine) root(fid taskgraph.Fidelity, c hw.Cluster) (*core.Simulator, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, ok := e.roots[fid]; ok {
		return r, nil
	}
	r, err := core.New(c, append([]core.Option{core.WithFidelity(fid)}, e.simOpts...)...)
	if err != nil {
		return nil, err
	}
	e.roots[fid] = r
	return r, nil
}

// simulator returns the pooled sibling for (c, fid, contention), deriving
// it from the fidelity's root on first use. When the pool is full the
// oldest entry is dropped: its report cache is garbage-collected once
// in-flight requests release it, while its lowered graphs and its counters
// stay on the root's tree (siblings are safe to use after eviction; new
// requests just derive a fresh one).
func (e *Engine) simulator(c hw.Cluster, fid taskgraph.Fidelity, contention bool) (*core.Simulator, error) {
	if err := c.Validate(); err != nil {
		return nil, badRequest(err)
	}
	root, err := e.root(fid, c)
	if err != nil {
		return nil, err
	}
	key := simKey{cluster: c, fidelity: fid, contention: contention}
	e.mu.Lock()
	defer e.mu.Unlock()
	if s, ok := e.sims[key]; ok {
		return s, nil
	}
	s, err := root.ForCluster(c, core.WithContention(contention))
	if err != nil {
		return nil, err
	}
	if len(e.order) >= e.poolSize {
		delete(e.sims, e.order[0])
		e.order = e.order[1:]
	}
	e.sims[key] = s
	e.order = append(e.order, key)
	return s, nil
}

// CacheStats is the serving layer's cache-concentration view, exported by
// /metrics: the sum of each fidelity tree's counters. Every sibling records
// into its tree, so the totals stay monotone when the pool evicts.
func (e *Engine) CacheStats() core.CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	var st core.CacheStats
	for _, r := range e.roots {
		st = st.Add(r.CacheStats())
	}
	return st
}

// Simulate resolves and runs one simulation request. Request-resolution
// failures (unparseable sections, invalid plans, unknown fidelity) return
// a *BadRequestError; simulation failures return the simulator's error.
func (e *Engine) Simulate(req SimulateRequest) (SimulateOutcome, error) {
	out, sim, err := e.prepareSimulate(req)
	if err != nil {
		return SimulateOutcome{}, err
	}
	out.Report, err = sim.Simulate(out.Model, out.Plan)
	if err != nil {
		return SimulateOutcome{}, err
	}
	if err := e.project(&out, req); err != nil {
		return SimulateOutcome{}, err
	}
	return out, nil
}

// SimulateTrace is Simulate plus the full execution timeline (the CLI's
// -trace path).
func (e *Engine) SimulateTrace(req SimulateRequest) (SimulateOutcome, []taskgraph.Span, error) {
	out, sim, err := e.prepareSimulate(req)
	if err != nil {
		return SimulateOutcome{}, nil, err
	}
	var spans []taskgraph.Span
	out.Report, spans, err = sim.SimulateTrace(out.Model, out.Plan)
	if err != nil {
		return SimulateOutcome{}, nil, err
	}
	if err := e.project(&out, req); err != nil {
		return SimulateOutcome{}, nil, err
	}
	return out, spans, nil
}

func (e *Engine) prepareSimulate(req SimulateRequest) (SimulateOutcome, *core.Simulator, error) {
	m, plan, cluster, err := req.Description.Resolve()
	if err != nil {
		return SimulateOutcome{}, nil, badRequest(err)
	}
	fid, err := ParseFidelity(req.Fidelity, taskgraph.TaskLevel)
	if err != nil {
		return SimulateOutcome{}, nil, badRequest(err)
	}
	sim, err := e.simulator(cluster, fid, req.Contention)
	if err != nil {
		return SimulateOutcome{}, nil, err
	}
	return SimulateOutcome{Model: m, Plan: plan, Cluster: cluster}, sim, nil
}

// project adds the end-to-end training and resilience economics when the
// request carries a token budget. Economics that overflow (a price or
// budget so large that a figure is ±Inf or NaN) are the client's
// configuration and answer 400: JSON cannot encode them.
func (e *Engine) project(out *SimulateOutcome, req SimulateRequest) error {
	if req.TotalTokens == 0 {
		return nil
	}
	tr := cost.Train(out.Model, out.Plan.GlobalBatch, out.Report.IterTime, out.Plan.GPUs(), req.TotalTokens, out.Cluster)
	ok := finite(tr.IterTime, tr.TotalSeconds, tr.Days, tr.GPUHours, tr.DollarsPerHour, tr.TotalDollars, tr.Utilization)
	var res *cost.Resilience
	if opts, enabled := req.ResilienceOptions(); enabled {
		mod, err := resilience.For(out.Model, out.Cluster, out.Plan.GPUs(), opts)
		if err != nil {
			// The failure environment is part of the request: a cluster
			// that fails faster than it checkpoints, or overrides the
			// catalog cannot complete, is the client's configuration.
			return badRequest(err)
		}
		r := cost.ApplyResilience(tr, mod)
		res = &r
		ok = ok && finite(r.GoodputFraction, r.CheckpointIntervalSeconds, r.CheckpointSeconds, r.CheckpointFraction,
			r.ReworkFraction, r.RestartFraction, r.ExpectedFailures, r.EffectiveDays, r.EffectiveGPUHours, r.EffectiveDollars)
	}
	if !ok {
		return badRequest(fmt.Errorf("server: training economics overflow: %d tokens at $%g/GPU-hour on %d GPUs",
			req.TotalTokens, out.Cluster.DollarsPerGPUHour, out.Plan.GPUs()))
	}
	out.Training, out.Resilience = &tr, res
	return nil
}

// finite reports whether every value is neither ±Inf nor NaN.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// SweepRun is a resolved /v1/sweep request, ready to execute. Splitting
// preparation from execution lets the HTTP layer reject bad requests with
// a clean 400 before committing to a streamed 200.
type SweepRun struct {
	sim     *core.Simulator
	model   model.Config
	cluster hw.Cluster
	space   dse.Space
	tokens  uint64
}

// PrepareSweep resolves a sweep request against the pool. All failures are
// *BadRequestError: an unresolvable model or cluster, a non-positive
// batch, or a plan space with no valid point.
func (e *Engine) PrepareSweep(req SweepRequest) (*SweepRun, error) {
	m, err := req.Model.Resolve()
	if err != nil {
		return nil, badRequest(err)
	}
	cluster, err := req.Cluster.Resolve()
	if err != nil {
		return nil, badRequest(err)
	}
	if req.GlobalBatch <= 0 {
		return nil, badRequest(fmt.Errorf("server: global_batch must be positive, got %d", req.GlobalBatch))
	}
	fid, err := ParseFidelity(req.Fidelity, taskgraph.OperatorLevel)
	if err != nil {
		return nil, badRequest(err)
	}
	sim, err := e.simulator(cluster, fid, req.Contention)
	if err != nil {
		return nil, err
	}
	space := dse.DefaultSpace(m, req.GlobalBatch)
	space.MaxMicroBatches = 512
	if len(req.TensorWidths) > 0 {
		space.TensorWidths = req.TensorWidths
	}
	if len(req.DataWidths) > 0 {
		space.DataWidths = req.DataWidths
	}
	if len(req.PipelineDepths) > 0 {
		space.PipelineDepths = req.PipelineDepths
	}
	if len(req.MicroBatches) > 0 {
		space.MicroBatches = req.MicroBatches
	}
	if req.MaxGPUs > 0 {
		space.MaxGPUs = req.MaxGPUs
	}
	if req.MaxMicroBatches > 0 {
		space.MaxMicroBatches = req.MaxMicroBatches
	}
	if len(space.Enumerate(m, sim)) == 0 {
		return nil, badRequest(fmt.Errorf("dse: %s: %w", m.Name, dse.ErrNoValidPlan))
	}
	return &SweepRun{sim: sim, model: m, cluster: cluster, space: space, tokens: req.TotalTokens}, nil
}

// Cluster returns the cluster the sweep resolved to.
func (r *SweepRun) Cluster() hw.Cluster { return r.cluster }

// TotalTokens returns the request's token budget (0 = no cost projection).
func (r *SweepRun) TotalTokens() uint64 { return r.tokens }

// CacheStats snapshots the counters of the serving sibling's fidelity
// tree; sweep progress reporting polls it mid-run.
func (r *SweepRun) CacheStats() core.CacheStats { return r.sim.CacheStats() }

// Run executes the sweep, streaming each evaluated point to fn. Calls to
// fn are serialized and stop at the first error — dse.Sweep, the executor
// under dse.ExploreFunc, guarantees no emission follows a failure,
// including from batches already in flight on other workers.
func (r *SweepRun) Run(fn func(dse.Point)) (SweepSummary, error) {
	n := 0
	err := dse.ExploreFunc(r.sim, r.model, r.space, func(p dse.Point) {
		n++
		fn(p)
	})
	if err != nil {
		return SweepSummary{}, err
	}
	return SweepSummary{Points: n, Cluster: r.cluster, Cache: r.sim.CacheStats()}, nil
}

// ClusterRun is a resolved /v1/clusterdse request, ready to execute.
type ClusterRun struct {
	root       *core.Simulator
	model      model.Config
	space      clusterdse.Space
	candidates int
	resilient  bool
}

// PrepareClusterDSE resolves a cluster-design sweep against the per-
// fidelity root simulator; every request's candidate siblings share the
// root's structural cache with the pool, so repeated sweeps — and shapes
// other requests already lowered — re-lower nothing.
func (e *Engine) PrepareClusterDSE(req ClusterDSERequest) (*ClusterRun, error) {
	m, err := req.Model.Resolve()
	if err != nil {
		return nil, badRequest(err)
	}
	if req.GlobalBatch <= 0 {
		return nil, badRequest(fmt.Errorf("server: global_batch must be positive, got %d", req.GlobalBatch))
	}
	if req.TotalTokens == 0 {
		return nil, badRequest(fmt.Errorf("server: total_tokens must be positive to price training runs"))
	}
	if len(req.NodeCounts) == 0 {
		return nil, badRequest(fmt.Errorf("server: node_counts must name at least one cluster size"))
	}
	for _, n := range req.NodeCounts {
		if n <= 0 {
			return nil, badRequest(fmt.Errorf("server: node counts must be positive, got %d", n))
		}
	}
	if err := req.Resilience.Validate(); err != nil {
		return nil, badRequest(err)
	}
	offs, err := clusterdse.SelectOfferings(req.Offerings, req.CrossInterconnects)
	if err != nil {
		return nil, badRequest(err)
	}
	for _, o := range offs {
		for _, n := range req.NodeCounts {
			if err := o.Cluster(n).Validate(); err != nil {
				return nil, badRequest(fmt.Errorf("server: %s x %d nodes: %w", o.Name, n, err))
			}
		}
	}
	fid, err := ParseFidelity(req.Fidelity, taskgraph.OperatorLevel)
	if err != nil {
		return nil, badRequest(err)
	}
	space := clusterdse.DefaultSpace(m, req.GlobalBatch, req.TotalTokens, req.NodeCounts)
	space.Offerings = offs
	space.Contention = req.Contention
	opts, enabled := req.Resilience.Options()
	if enabled {
		space.Resilience = &opts
	} else {
		space.Resilience = nil
	}
	if len(req.TensorWidths) > 0 {
		space.Plans.TensorWidths = req.TensorWidths
	}
	if len(req.DataWidths) > 0 {
		space.Plans.DataWidths = req.DataWidths
	}
	if len(req.PipelineDepths) > 0 {
		space.Plans.PipelineDepths = req.PipelineDepths
	}
	if len(req.MicroBatches) > 0 {
		space.Plans.MicroBatches = req.MicroBatches
	}
	if req.MaxMicroBatches > 0 {
		space.Plans.MaxMicroBatches = req.MaxMicroBatches
	}
	root, err := e.root(fid, offs[0].Cluster(req.NodeCounts[0]))
	if err != nil {
		return nil, err
	}
	return &ClusterRun{
		root: root, model: m, space: space,
		candidates: len(offs) * len(req.NodeCounts),
		resilient:  enabled,
	}, nil
}

// Model returns the resolved model configuration.
func (r *ClusterRun) Model() model.Config { return r.model }

// Candidates returns the hardware grid size: offerings x node counts.
func (r *ClusterRun) Candidates() int { return r.candidates }

// Resilient reports whether failure pricing is applied to every point.
func (r *ClusterRun) Resilient() bool { return r.resilient }

// CacheStats snapshots the counters of the root simulator's tree.
func (r *ClusterRun) CacheStats() core.CacheStats { return r.root.CacheStats() }

// Run executes the joint sweep, streaming each evaluated point to fn under
// the same no-emission-after-error discipline as SweepRun.Run.
func (r *ClusterRun) Run(fn func(clusterdse.Point)) (ClusterSummary, error) {
	n := 0
	err := clusterdse.ExploreFunc(r.root, r.model, r.space, func(p clusterdse.Point) {
		n++
		fn(p)
	})
	if err != nil {
		return ClusterSummary{}, err
	}
	return ClusterSummary{
		Points: n, Candidates: r.candidates,
		Resilience: r.resilient, Cache: r.root.CacheStats(),
	}, nil
}
