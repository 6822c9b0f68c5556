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

// Engine is the transport-independent serving core: it resolves requests
// to simulator inputs and routes them to one simulator tree — a root built
// with core.New on first use, and a ForCluster sibling of it per request,
// at the request's cluster, fidelity and contention level. The tree holds
// every cache, so a plan shape is lowered once per fidelity, each GPU's
// operators are profiled once, and each configuration is simulated once,
// however many requests and clusters ask for them; the root's report cache
// bound (core.DefaultCacheSize) is the whole engine's. Identical concurrent
// work dedupes through the tree's single-flight lowering; repeated
// configurations across users hit warm caches instead of paying cold
// lowering, which is the whole point of running long-lived.
//
// An Engine is safe for concurrent use.
type Engine struct {
	simOpts []core.Option

	mu   sync.Mutex
	root *core.Simulator
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithSimulatorOptions appends core options applied to the engine's root
// simulator, and so to the tree every request's sibling shares. One-shot
// CLI processes pass core.WithCacheSize(0): their configurations never
// repeat, so the report cache would only hold garbage.
func WithSimulatorOptions(opts ...core.Option) EngineOption {
	return func(e *Engine) { e.simOpts = append(e.simOpts, opts...) }
}

// WithArtifactDir enables the persistent artifact tier under dir for the
// root simulator, and so for every sibling below it: lowered graphs survive
// process restarts, and the disk counters in /metrics are the root's
// store-wide totals. An empty dir leaves the tier disabled (the default).
func WithArtifactDir(dir string) EngineOption {
	return WithSimulatorOptions(core.WithArtifactDir(dir))
}

// NewEngine builds an empty engine; its simulator tree is created lazily
// on the first request and stays warm for the engine's lifetime.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	return e
}

// simulator derives a sibling of the root on cluster c at fidelity fid,
// building the root on c on first use. The root only anchors the tree:
// structure is hardware-invariant, the tree keeps one profiler per GPU and
// one report cache keyed by cluster, and siblings set their own cluster,
// fidelity and contention.
func (e *Engine) simulator(c hw.Cluster, fid taskgraph.Fidelity, contention bool) (*core.Simulator, error) {
	if err := c.Validate(); err != nil {
		return nil, badRequest(err)
	}
	e.mu.Lock()
	if e.root == nil {
		r, err := core.New(c, e.simOpts...)
		if err != nil {
			e.mu.Unlock()
			return nil, err
		}
		e.root = r
	}
	root := e.root
	e.mu.Unlock()
	return root.ForCluster(c, core.WithFidelity(fid), core.WithContention(contention))
}

// CacheStats is the serving layer's cache-concentration view, exported by
// /metrics: the root tree's counters (zero before the first request). Every
// sibling records into the tree, so the totals are monotone.
func (e *Engine) CacheStats() core.CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.root == nil {
		return core.CacheStats{}
	}
	return e.root.CacheStats()
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
	ok := finiteTraining(tr)
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
		return overflowError(req.TotalTokens, out.Cluster, out.Plan.GPUs())
	}
	out.Training, out.Resilience = &tr, res
	return nil
}

// overflowError is the 400 for training economics that overflow.
func overflowError(tokens uint64, c hw.Cluster, gpus int) error {
	return badRequest(fmt.Errorf("server: training economics overflow: %d tokens at $%g/GPU-hour on %d GPUs",
		tokens, c.DollarsPerGPUHour, gpus))
}

// finiteTraining reports whether JSON can encode every figure of tr.
func finiteTraining(tr cost.Training) bool {
	return finite(tr.IterTime, tr.TotalSeconds, tr.Days, tr.GPUHours, tr.DollarsPerHour, tr.TotalDollars, tr.Utilization)
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

// PrepareSweep resolves a sweep request against the engine's tree. All failures are
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

// CacheStats snapshots the counters of the engine's tree; sweep progress
// reporting polls it mid-run.
func (r *SweepRun) CacheStats() core.CacheStats { return r.sim.CacheStats() }

// Run executes the sweep, streaming each evaluated point to fn. Calls to
// fn are serialized and stop at the first error — dse.Sweep, the executor
// under dse.ExploreFunc, guarantees no emission follows a failure,
// including from batches already in flight on other workers.
func (r *SweepRun) Run(fn func(dse.Point)) (SweepSummary, error) {
	return r.Stream(func(p dse.Point) error {
		fn(p)
		return nil
	})
}

// Stream is Run for an fn that can fail: its first error stops the sweep,
// so no further batch is simulated, and is returned.
func (r *SweepRun) Stream(fn func(dse.Point) error) (SweepSummary, error) {
	n := 0
	err := dse.ExploreFunc(r.sim, r.model, r.space, func(p dse.Point) error {
		n++
		return fn(p)
	})
	if err != nil {
		return SweepSummary{}, err
	}
	return SweepSummary{Points: n, Cluster: r.cluster, Cache: r.sim.CacheStats()}, nil
}

// ClusterRun is a resolved /v1/clusterdse request, ready to execute.
type ClusterRun struct {
	parent     *core.Simulator
	model      model.Config
	space      clusterdse.Space
	candidates int
	resilient  bool
}

// PrepareClusterDSE resolves a cluster-design sweep against a sweep parent
// derived from the root at the requested fidelity; every request's
// candidate siblings share the root's tree, so repeated sweeps are answered
// from its report cache, and shapes and GPUs other requests already served
// re-lower and re-profile nothing.
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
	parent, err := e.simulator(offs[0].Cluster(req.NodeCounts[0]), fid, false)
	if err != nil {
		return nil, err
	}
	return &ClusterRun{
		parent: parent, model: m, space: space,
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

// CacheStats snapshots the counters of the engine's tree.
func (r *ClusterRun) CacheStats() core.CacheStats { return r.parent.CacheStats() }

// Run executes the joint sweep, streaming each evaluated point to fn under
// the same no-emission-after-error discipline as SweepRun.Run.
func (r *ClusterRun) Run(fn func(clusterdse.Point)) (ClusterSummary, error) {
	return r.Stream(func(p clusterdse.Point) error {
		fn(p)
		return nil
	})
}

// Stream is Run for an fn that can fail, as SweepRun.Stream.
func (r *ClusterRun) Stream(fn func(clusterdse.Point) error) (ClusterSummary, error) {
	n := 0
	err := clusterdse.ExploreFunc(r.parent, r.model, r.space, func(p clusterdse.Point) error {
		n++
		return fn(p)
	})
	if err != nil {
		return ClusterSummary{}, err
	}
	return ClusterSummary{
		Points: n, Candidates: r.candidates,
		Resilience: r.resilient, Cache: r.parent.CacheStats(),
	}, nil
}
