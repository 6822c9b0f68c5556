package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"time"

	"vtrain/bench/stat"
	"vtrain/internal/artifact"
	"vtrain/internal/clusterdse"
	"vtrain/internal/comm"
	"vtrain/internal/core"
	"vtrain/internal/cost"
	"vtrain/internal/dse"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
	"vtrain/internal/resilience"
	"vtrain/internal/taskgraph"
)

// sweepSpec is one design-space sweep workload. One operation is one whole
// sweep on a fresh simulator, as a one-shot CLI run pays it.
type sweepSpec struct {
	name       string
	cluster    bool // joint (hardware x plan) sweep through clusterdse; else a plan sweep through dse
	disk       bool // the fresh simulator reads an artifact store filled during set-up
	contention bool
	resilient  bool
}

// sweepSpecs are the sweep workloads, over the spaces of the root package's
// BenchmarkDSESweep and BenchmarkClusterSweep*.
var sweepSpecs = []sweepSpec{
	// Lowering-heavy: 563 plans over 140 shapes, nothing cached across ops.
	{name: "dse-cold"},
	// The same space with lowering bypassed: every shape loads from disk.
	{name: "dse-warm-disk", disk: true},
	// 1,068 points over 38 shapes: wide batched replay dominates.
	{name: "cluster-resilient", cluster: true, resilient: true},
	// The same space on the contended replay path.
	{name: "cluster-contended", cluster: true, contention: true},
}

// maxLanes is the widest batched replay: core.SimulateBatch replays at most
// sixteen plans of one shape per pass, and the traced driver chunks alike.
const maxLanes = 16

// Seed streams: each use of the seed draws from its own PCG stream, so
// adding draws to one never shifts another.
const (
	axisStream uint64 = iota + 1
	serverStream
)

func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := slices.Clone(xs)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// The plan sweep is BenchmarkDSESweep's: Megatron-39.1B on 256 paper
// nodes, 563 (t, d, p, m) plans.
var (
	dseModel   = model.Megatron39_1B()
	dseCluster = hw.PaperCluster(256)
)

// dseSpace is BenchmarkDSESweep's space with each axis in an order drawn
// from rng. Axis order changes enumeration and batching order but no
// result: the ranked output and its digest are the same for every order.
func dseSpace(rng *rand.Rand) dse.Space {
	return dse.Space{
		TensorWidths:    shuffled(rng, []int{1, 2, 4, 8, 16}),
		DataWidths:      shuffled(rng, []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}),
		PipelineDepths:  shuffled(rng, []int{1, 2, 4, 6, 8, 12}),
		MicroBatches:    shuffled(rng, []int{1, 2, 3, 4}),
		GlobalBatch:     384,
		GradientBuckets: 2,
		MaxMicroBatches: 64,
	}
}

// clusterModel is the joint sweep's model, as in BenchmarkClusterSweep.
var clusterModel = model.Megatron18_4B()

// clusterSpace is BenchmarkClusterSweep's 1,068-point joint sweep — every
// catalog offering crossed with every interconnect tier (16 offerings) at 4
// node counts — with each axis in an order drawn from rng.
func clusterSpace(rng *rand.Rand, s sweepSpec) clusterdse.Space {
	var offerings []hw.Offering
	for _, o := range hw.Catalog() {
		offerings = append(offerings, o)
		for _, ic := range hw.Interconnects() {
			if ic.Name != o.Interconnect.Name {
				offerings = append(offerings, o.WithInterconnect(ic))
			}
		}
	}
	space := clusterdse.Space{
		Offerings:  shuffled(rng, offerings),
		NodeCounts: shuffled(rng, []int{4, 8, 16, 32}),
		Plans: dse.Space{
			TensorWidths:    shuffled(rng, []int{1, 2, 4, 8}),
			DataWidths:      shuffled(rng, []int{1, 2, 4, 8, 16, 32, 64}),
			PipelineDepths:  shuffled(rng, []int{1, 2, 4, 8}),
			MicroBatches:    shuffled(rng, []int{1, 2, 4}),
			GlobalBatch:     512,
			GradientBuckets: 2,
			MaxMicroBatches: 64,
		},
		TotalTokens: 300e9,
		Contention:  s.contention,
	}
	if s.resilient {
		space.Resilience = &resilience.Options{}
	}
	return space
}

// sweepSession is one set-up instance of a sweep workload. Every
// operation sweeps the same space with its axes in a fresh order drawn from
// the seed, so a run's timings average over orders instead of depending on
// the one a seed happens to give.
type sweepSession struct {
	spec  sweepSpec
	rng   *rand.Rand
	ds    dse.Space        // plan sweeps: the next operation's space
	cs    clusterdse.Space // joint sweeps: the next operation's space
	store string           // disk only: the artifact directory set-up filled
	want  string           // pinned output digest
}

// model is the swept model.
func (s *sweepSession) model() model.Config {
	if s.spec.cluster {
		return clusterModel
	}
	return dseModel
}

// draw reorders the space for the next operation.
func (s *sweepSession) draw() {
	if s.spec.cluster {
		s.cs = clusterSpace(s.rng, s.spec)
	} else {
		s.ds = dseSpace(s.rng)
	}
}

// setup prepares a session — filling the artifact store for the disk
// workload — and runs one discarded, checked warm-up operation.
func (s sweepSpec) setup(cfg config, i int) (*sweepSession, error) {
	want, err := pinnedDigest(s.name)
	if err != nil {
		return nil, err
	}
	sess := &sweepSession{spec: s, rng: rand.New(rand.NewPCG(uint64(cfg.seed), axisStream)), want: want}
	sess.draw()
	if s.disk {
		sess.store = filepath.Join(cfg.dir, fmt.Sprintf("store-%d", i))
		sim, err := core.New(dseCluster, core.WithFidelity(taskgraph.OperatorLevel), core.WithCacheSize(0), core.WithArtifactDir(sess.store))
		if err == nil {
			_, err = dse.Explore(sim, dseModel, sess.ds)
		}
		if err != nil {
			sess.close()
			return nil, fmt.Errorf("artifact fill: %w", err)
		}
	}
	r, err := sess.explore()
	if err == nil {
		err = sess.check(r)
	}
	if err != nil {
		sess.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return sess, nil
}

func (s *sweepSession) close() {
	if s.store != "" {
		os.RemoveAll(s.store)
	}
}

// sweepResult is one operation's raw output.
type sweepResult struct {
	dse     []dse.Point
	cluster []clusterdse.Point
	sim     *core.Simulator
}

// explore is the timed operation: a fresh simulator and the whole sweep.
func (s *sweepSession) explore() (sweepResult, error) {
	opts := []core.Option{core.WithFidelity(taskgraph.OperatorLevel), core.WithCacheSize(0)}
	if s.spec.cluster {
		sim, err := clusterdse.NewSimulator(s.cs, opts...)
		if err != nil {
			return sweepResult{}, err
		}
		pts, err := clusterdse.Explore(sim, clusterModel, s.cs)
		return sweepResult{cluster: pts, sim: sim}, err
	}
	if s.spec.disk {
		opts = append(opts, core.WithArtifactDir(s.store))
	}
	sim, err := core.New(dseCluster, opts...)
	if err != nil {
		return sweepResult{}, err
	}
	pts, err := dse.Explore(sim, dseModel, s.ds)
	return sweepResult{dse: pts, sim: sim}, err
}

func (s *sweepSession) rows(r sweepResult) []row {
	if s.spec.cluster {
		return clusterRows(r.cluster)
	}
	return dseRows(r.dse, dseCluster)
}

// check verifies an operation's output against the pinned digest and, for
// the disk workload, that every shape came from disk and none was lowered.
func (s *sweepSession) check(r sweepResult) error {
	if d := pointsDigest(s.rows(r)); d != s.want {
		return fmt.Errorf("%s: output digest %s, pinned %s", s.spec.name, d, s.want)
	}
	if s.spec.disk {
		if st := r.sim.CacheStats(); st.Lowerings != 0 || st.DiskMisses != 0 || st.DiskHits == 0 {
			return fmt.Errorf("%s: %d lowerings, %d disk hits, %d disk misses; want every shape from disk",
				s.spec.name, st.Lowerings, st.DiskHits, st.DiskMisses)
		}
	}
	return nil
}

// untraced measures the end-to-end metrics: cfg.seconds of back-to-back
// sweeps after set-up, each timed at the reference host's speed.
func (s sweepSpec) untraced(cfg config, t *tally) (map[string]float64, error) {
	sess, setupS, err := setupTimes(cfg, func(i int) (*sweepSession, error) { return s.setup(cfg, i) })
	if err != nil {
		return nil, err
	}
	defer sess.close()
	var (
		secs, allocMB []float64
		points        int
	)
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < cfg.seconds; n++ {
		sess.draw()
		a0, t0 := allocBytes(), time.Now()
		r, err := sess.explore()
		d, a1 := time.Since(t0), allocBytes()
		refSecs := cfg.clock.adjust(d)
		if err == nil {
			err = sess.check(r)
		}
		if err != nil {
			t.fail(err)
			continue
		}
		t.ok()
		secs = append(secs, refSecs)
		allocMB = append(allocMB, float64(a1-a0)/1e6)
		points = len(r.dse) + len(r.cluster)
	}
	p50 := stat.Median(secs)
	return map[string]float64{
		"points_per_s":    ratio(float64(points), p50),
		"op_p50_ms":       1e3 * p50,
		"alloc_mb_per_op": stat.Median(allocMB),
		"peak_rss_mb":     peakRSSMB(),
		"setup_s":         setupS,
	}, nil
}

// traced measures the per-layer metrics. A third of the budget runs
// untraced sweeps for the exact cache counters, the host diagnostics and
// the reference predictions; the rest alternates passes of the decomposed
// driver with spans on and off.
func (s sweepSpec) traced(cfg config, t *tally, tr *tracer) (map[string]float64, error) {
	sess, err := s.setup(cfg, 0)
	if err != nil {
		return nil, err
	}
	defer sess.close()

	ref := make(map[pointKey]float64)
	var st core.CacheStats
	h0, start := sampleHost(), time.Now()
	for n := 0; n == 0 || time.Since(start) < cfg.seconds/3; n++ {
		sess.draw()
		r, err := sess.explore()
		if err == nil {
			err = sess.check(r)
		}
		if err != nil {
			t.fail(err)
			continue
		}
		t.ok()
		for _, row := range sess.rows(r) {
			ref[row.key()] = row.rep.IterTime
		}
		st = r.sim.CacheStats()
	}
	out := hostMetrics(h0, sampleHost())
	out["core.lowerings"] = float64(st.Lowerings)
	out["core.struct_hit_pct"] = 100 * ratio(float64(st.StructHits), float64(st.StructHits+st.StructMisses))
	out["core.batch_width"] = ratio(float64(st.BatchedPlans), float64(st.BatchReplays))
	out["artifact.disk_hit_pct"] = 100 * ratio(float64(st.DiskHits), float64(st.DiskHits+st.DiskMisses))

	d := &driver{sess: sess, tr: tr}
	if s.disk {
		// The traced fill is the traced run's set-up: it lowers every shape
		// and saves it to the driver's own store, timing the write side of
		// the artifact layer.
		if d.store, err = artifact.Open(filepath.Join(cfg.dir, "traced-store")); err != nil {
			return nil, err
		}
		d.bytes = make(map[string]int)
		tr.on = true
		from := len(tr.spans)
		if _, _, err := d.pass(true); err != nil {
			return nil, fmt.Errorf("traced fill: %w", err)
		}
		tr.on = false
		out["artifact.save_ms"] = msOf(tr.selfTimes(from)["artifact.save"])
	}
	layers := alternate(cfg.seconds*2/3, tr, t, func() (time.Duration, error) {
		sess.draw()
		t0 := time.Now()
		lanes, iters, err := d.pass(false)
		wall := time.Since(t0)
		if err == nil {
			err = crossCheck(lanes, iters, ref)
		}
		return wall, err
	}, d.layerMetrics)
	for k, v := range layers {
		out[k] = v
	}
	return out, nil
}

// crossCheck requires every prediction of the decomposed driver to equal
// the simulator's bit for bit.
func crossCheck(lanes []lane, iters []float64, ref map[pointKey]float64) error {
	if len(lanes) != len(ref) {
		return fmt.Errorf("traced driver evaluated %d points, the simulator %d", len(lanes), len(ref))
	}
	bad, example := 0, ""
	for i, l := range lanes {
		if want, ok := ref[l.key]; !ok || math.Float64bits(want) != math.Float64bits(iters[i]) {
			if bad == 0 {
				example = fmt.Sprintf("%s x%d %s: traced %v, simulator %v", l.key.name, l.key.nodes, l.plan, iters[i], want)
			}
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d traced predictions differ from the simulator's, e.g. %s", bad, len(lanes), example)
	}
	return nil
}

// driver feeds a session's inputs through the layer functions one call at a
// time on one goroutine, recording a span around each call. It does what
// dse.Explore and clusterdse.Explore do inside core: enumerate the plans and
// group them by shape; per shape lower the structure, or load it; per chunk
// of at most 16 plans bind, bind contention when it is on, and replay in
// one batch; then price each point.
type driver struct {
	sess  *sweepSession
	tr    *tracer
	store *artifact.Store // disk only: the driver's own store
	bytes map[string]int  // disk only: graph payload bytes per artifact key
	n     passCounts      // work done by the last pass
}

// passCounts is the work one pass did: the denominators of the per-unit
// layer metrics.
type passCounts struct {
	lowered       int     // tasks lowered
	bound         int     // plans bound
	taskLanes     [4]int  // ideal replay task-lanes per lane-width bucket
	contTaskLanes int     // contended replay task-lanes
	loadedBytes   int     // graph payload bytes loaded from disk
	dollars       float64 // priced training cost, kept so pricing is observable
}

// widthBuckets are the lane-width buckets of the ideal replay's cost per
// task-lane.
var widthBuckets = [4]struct {
	name string
	hi   int
}{{"w1", 1}, {"w2_4", 4}, {"w5_8", 8}, {"w9_16", maxLanes}}

func bucketOf(width int) int {
	for i, b := range widthBuckets {
		if width <= b.hi {
			return i
		}
	}
	return len(widthBuckets) - 1
}

// lane is one design point of a pass, with everything binding and pricing
// it needs.
type lane struct {
	key      pointKey
	plan     parallel.Plan
	cl       hw.Cluster
	prof     *profiler.Profiler
	cm       taskgraph.CommTimer
	res      *resilience.Model // nil without resilience
	contends bool
}

// shapeGroup is the lanes of one structural shape, in enumeration order.
type shapeGroup struct {
	shape core.Shape
	lanes []int
}

// enumerate lists a pass's design points and groups them by structural
// shape, in the order the sweep drivers use.
func (d *driver) enumerate() ([]lane, []shapeGroup, error) {
	sess, m := d.sess, d.sess.model()
	opts := []core.Option{core.WithFidelity(taskgraph.OperatorLevel), core.WithCacheSize(0)}
	var (
		lanes []lane
		root  *core.Simulator
		err   error
	)
	if !sess.spec.cluster {
		if root, err = core.New(dseCluster, opts...); err != nil {
			return nil, nil, err
		}
		cm := comm.NewModel(dseCluster)
		for _, p := range sess.ds.Enumerate(m, root) {
			lanes = append(lanes, lane{key: pointKey{"dse", dseCluster.NodeCount, p}, plan: p, cl: dseCluster, prof: root.Profiler(), cm: cm})
		}
	} else {
		cs := sess.cs
		if root, err = clusterdse.NewSimulator(cs, opts...); err != nil {
			return nil, nil, err
		}
		for _, off := range cs.Offerings {
			parent := root
			for _, nodes := range cs.NodeCounts {
				cl := off.Cluster(nodes)
				var res *resilience.Model
				if cs.Resilience != nil {
					mod, err := resilience.For(m, cl, cl.TotalGPUs(), *cs.Resilience)
					if errors.Is(err, resilience.ErrUnreliable) {
						continue
					}
					if err != nil {
						return nil, nil, err
					}
					res = &mod
				}
				// Like clusterdse, derive node-count variants from the
				// offering's previous sibling so they share its profiler.
				sib, err := parent.ForCluster(cl, core.WithContention(cs.Contention))
				if err != nil {
					return nil, nil, err
				}
				parent = sib
				cm := comm.NewModel(cl)
				ps := cs.Plans
				ps.MaxGPUs, ps.ExactGPUs = 0, cl.TotalGPUs()
				for _, p := range ps.Enumerate(m, sib) {
					lanes = append(lanes, lane{key: pointKey{off.Name, nodes, p}, plan: p, cl: cl,
						prof: sib.Profiler(), cm: cm, res: res, contends: cs.Contention})
				}
			}
		}
	}
	var groups []shapeGroup
	byShape := make(map[core.Shape]int)
	for i, l := range lanes {
		sh := root.PlanShape(m, l.plan)
		g, ok := byShape[sh]
		if !ok {
			g = len(groups)
			byShape[sh] = g
			groups = append(groups, shapeGroup{shape: sh})
		}
		groups[g].lanes = append(groups[g].lanes, i)
	}
	return lanes, groups, nil
}

// graphKey and opsKey address a shape's graph and the operator table in
// the driver's store; the store holds one plan sweep, so one GPU.
func graphKey(shape core.Shape) string { return artifact.Key("bench-graph", fmt.Sprintf("%+v", shape)) }

func opsKey() string { return artifact.Key("bench-ops", dseCluster.Node.GPU.Name) }

// pass runs the decomposed sweep once and returns its lanes with each
// lane's predicted iteration time. With fill set it lowers every shape and
// saves it to the driver's store; otherwise a disk session loads every
// shape from there.
func (d *driver) pass(fill bool) ([]lane, []float64, error) {
	tr, sess, m := d.tr, d.sess, d.sess.model()
	d.n = passCounts{}
	load := sess.spec.disk && !fill
	root := tr.begin("pass")
	sp := tr.begin("dse.enumerate")
	lanes, groups, err := d.enumerate()
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	if load {
		sp := tr.begin("artifact.load_ops")
		entries, ok := d.store.LoadOperators(opsKey())
		if ok {
			lanes[0].prof.Install(entries)
		}
		tr.end(sp)
		if !ok {
			return nil, nil, fmt.Errorf("operator table missing from the traced store")
		}
	}
	iters := make([]float64, len(lanes))
	tables := make([]*taskgraph.DurationTable, 0, maxLanes)
	for _, g := range groups {
		first := lanes[g.lanes[0]]
		var graph *taskgraph.Graph
		if load {
			sp := tr.begin("artifact.load")
			key := graphKey(g.shape)
			graph, _ = d.store.LoadGraph(key)
			tr.end(sp)
			if graph == nil {
				return nil, nil, fmt.Errorf("shape of %s missing from the traced store", first.plan)
			}
			d.n.loadedBytes += d.bytes[key]
		} else {
			sp := tr.begin("opgraph.build")
			og, err := opgraph.Build(m, first.plan, first.cl)
			tr.end(sp)
			if err != nil {
				return nil, nil, err
			}
			sp = tr.begin("taskgraph.lower")
			graph = taskgraph.Lower(og, first.prof, taskgraph.OperatorLevel)
			og.Recycle()
			tr.end(sp)
			d.n.lowered += graph.NumTasks()
			if fill {
				if err := d.save(g.shape, graph); err != nil {
					return nil, nil, err
				}
			}
		}
		for lo := 0; lo < len(g.lanes); lo += maxLanes {
			chunk := g.lanes[lo:min(lo+maxLanes, len(g.lanes))]
			tables = tables[:0]
			var cts []*taskgraph.ContentionTable
			for j, li := range chunk {
				l := lanes[li]
				sp := tr.begin("taskgraph.bind")
				tables = append(tables, graph.Bind(l.prof, l.cm, l.plan, l.cl))
				tr.end(sp)
				if l.contends {
					if cts == nil {
						cts = make([]*taskgraph.ContentionTable, len(chunk))
					}
					sp := tr.begin("taskgraph.bind_contention")
					cts[j] = graph.BindContention(l.plan, l.cl, tables[j])
					tr.end(sp)
				}
			}
			d.n.bound += len(chunk)
			name := "taskgraph.replay_contended"
			if cts == nil {
				name = "taskgraph.replay." + widthBuckets[bucketOf(len(chunk))].name
			}
			sp := tr.begin(name)
			results, err := graph.ReplayBatchContended(tables, cts)
			for _, tb := range tables {
				tb.Release()
			}
			tr.end(sp)
			if err != nil {
				return nil, nil, err
			}
			if cts == nil {
				d.n.taskLanes[bucketOf(len(chunk))] += graph.NumTasks() * len(chunk)
			} else {
				d.n.contTaskLanes += graph.NumTasks() * len(chunk)
			}
			if sess.spec.cluster {
				sp := tr.begin("cost.price")
				for j, li := range chunk {
					l := lanes[li]
					tc := cost.Train(m, l.plan.GlobalBatch, results[j].IterTime, l.plan.GPUs(), sess.cs.TotalTokens, l.cl)
					dollars := tc.TotalDollars
					if l.res != nil {
						dollars = cost.ApplyResilience(tc, *l.res).EffectiveDollars
					}
					d.n.dollars += dollars
				}
				tr.end(sp)
			}
			for j, li := range chunk {
				iters[li] = results[j].IterTime
			}
		}
	}
	if fill {
		sp := tr.begin("artifact.save")
		ok := d.store.SaveOperators(opsKey(), lanes[0].prof.Table())
		tr.end(sp)
		if !ok {
			return nil, nil, fmt.Errorf("saving the operator table failed")
		}
	}
	tr.end(root)
	return lanes, iters, nil
}

// save writes one lowered shape to the driver's store and records its
// payload size for the load throughput.
func (d *driver) save(shape core.Shape, graph *taskgraph.Graph) error {
	key := graphKey(shape)
	sp := d.tr.begin("artifact.save")
	ok := d.store.SaveGraph(key, graph)
	d.tr.end(sp)
	payload, err := graph.MarshalArtifact()
	if !ok || err != nil {
		return fmt.Errorf("saving the graph of shape %+v failed", shape)
	}
	d.bytes[key] = len(payload)
	return nil
}

// layerMetrics turns the spans of the pass that starts at index from into
// per-layer self times and unit costs.
func (d *driver) layerMetrics(from int) map[string]float64 {
	self := d.tr.selfTimes(from)
	root := d.tr.spans[from]
	n := d.n
	ns := func(name string) float64 { return float64(self[name]) }
	m := map[string]float64{
		"dse.enumerate_ms":                            msOf(self["dse.enumerate"]),
		"opgraph.build_ms":                            msOf(self["opgraph.build"]),
		"taskgraph.lower_ms":                          msOf(self["taskgraph.lower"]),
		"taskgraph.lower_ns_per_task":                 ratio(ns("taskgraph.lower"), float64(n.lowered)),
		"artifact.load_ms":                            msOf(self["artifact.load"] + self["artifact.load_ops"]),
		"artifact.load_mb_per_s":                      ratio(float64(n.loadedBytes)/1e6, self["artifact.load"].Seconds()),
		"taskgraph.bind_us_per_plan":                  ratio(ns("taskgraph.bind")/1e3, float64(n.bound)),
		"taskgraph.bind_contention_ms":                msOf(self["taskgraph.bind_contention"]),
		"cost.price_ms":                               msOf(self["cost.price"]),
		"taskgraph.replay_contended_ns_per_task_lane": ratio(ns("taskgraph.replay_contended"), float64(n.contTaskLanes)),
		"trace.coverage_pct":                          100 * (1 - ratio(ns("pass"), float64(root.End-root.Start))),
	}
	replay := self["taskgraph.replay_contended"]
	for i, b := range widthBuckets {
		s := self["taskgraph.replay."+b.name]
		replay += s
		m["taskgraph.replay_ns_per_task_lane."+b.name] = ratio(float64(s), float64(n.taskLanes[i]))
	}
	m["taskgraph.replay_ms"] = msOf(replay)
	return m
}
