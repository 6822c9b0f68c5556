package core

import (
	"reflect"
	"sync"
	"testing"

	"vtrain/internal/gpu"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/taskgraph"
)

func forClusterModel() model.Config {
	return model.Config{Name: "fc-tiny", Hidden: 512, Layers: 4, SeqLen: 256, Heads: 8, Vocab: 8192}
}

func forClusterPlan() parallel.Plan {
	return parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2}
}

// TestForClusterSharesStructuralCache pins the joint-sweep economics: a
// hardware-only sweep — one plan shape simulated on every catalog cluster —
// performs exactly one lowering. The siblings share the parent's structural
// cache, and CacheStats on any of them reports the shared counters.
func TestForClusterSharesStructuralCache(t *testing.T) {
	cat := hw.Catalog()
	root, err := New(cat[0].Cluster(2), WithFidelity(taskgraph.OperatorLevel))
	if err != nil {
		t.Fatal(err)
	}
	m, plan := forClusterModel(), forClusterPlan()

	iterTimes := map[string]float64{}
	for _, off := range cat {
		sib, err := root.ForCluster(off.Cluster(2))
		if err != nil {
			t.Fatalf("%s: %v", off.Name, err)
		}
		rep, err := sib.Simulate(m, plan)
		if err != nil {
			t.Fatalf("%s: %v", off.Name, err)
		}
		iterTimes[off.Name] = rep.IterTime
	}

	st := root.CacheStats()
	if st.StructMisses != 1 {
		t.Errorf("hardware-only sweep lowered %d graphs, want exactly 1", st.StructMisses)
	}
	if want := uint64(len(cat) - 1); st.StructHits != want {
		t.Errorf("StructHits = %d, want %d (every cluster after the first)", st.StructHits, want)
	}
	// The shared structure must still produce hardware-specific timings.
	if iterTimes["h100-sxm-80gb"] >= iterTimes["v100-sxm-32gb"] {
		t.Errorf("H100 iteration (%g s) not faster than V100 (%g s)",
			iterTimes["h100-sxm-80gb"], iterTimes["v100-sxm-32gb"])
	}
	distinct := map[float64]bool{}
	for _, it := range iterTimes {
		distinct[it] = true
	}
	if len(distinct) < 3 {
		t.Errorf("only %d distinct iteration times across %d GPU generations", len(distinct), len(cat))
	}
}

// TestForClusterConcurrentDeterministic exercises the shared cache from
// concurrent sweep workers (run under -race in CI): many goroutines
// simulating the same shape on different clusters must single-flight the
// lowering and agree with a sequential run bit-for-bit.
func TestForClusterConcurrentDeterministic(t *testing.T) {
	cat := hw.Catalog()
	m, plan := forClusterModel(), forClusterPlan()

	sequential := func() map[string]float64 {
		root, err := New(cat[0].Cluster(2), WithFidelity(taskgraph.OperatorLevel))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, off := range cat {
			sib, err := root.ForCluster(off.Cluster(2))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sib.Simulate(m, plan)
			if err != nil {
				t.Fatal(err)
			}
			out[off.Name] = rep.IterTime
		}
		return out
	}()

	root, err := New(cat[0].Cluster(2), WithFidelity(taskgraph.OperatorLevel))
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu  sync.Mutex
		got = map[string]float64{}
		wg  sync.WaitGroup
	)
	const repeats = 4
	for r := 0; r < repeats; r++ {
		for _, off := range cat {
			wg.Add(1)
			go func(off hw.Offering) {
				defer wg.Done()
				sib, err := root.ForCluster(off.Cluster(2))
				if err != nil {
					t.Error(err)
					return
				}
				rep, err := sib.Simulate(m, plan)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				got[off.Name] = rep.IterTime
				mu.Unlock()
			}(off)
		}
	}
	wg.Wait()
	if st := root.CacheStats(); st.StructMisses != 1 {
		t.Errorf("concurrent hardware sweep lowered %d graphs, want 1 (single-flight)", st.StructMisses)
	}
	for name, want := range sequential {
		if got[name] != want {
			t.Errorf("%s: concurrent IterTime %g != sequential %g", name, got[name], want)
		}
	}
}

// TestForClusterRejections pins the error paths: invalid clusters are
// refused, and so are the root-only options — the report cache bound, the
// device and the communication model configure the tree — while a fidelity
// option is a sibling's own setting (every cache key carries the fidelity).
func TestForClusterRejections(t *testing.T) {
	root, err := New(hw.PaperCluster(2))
	if err != nil {
		t.Fatal(err)
	}
	bad := hw.PaperCluster(2)
	bad.NodeCount = 0
	if _, err := root.ForCluster(bad); err == nil {
		t.Error("invalid cluster accepted")
	}
	if _, err := root.ForCluster(hw.PaperCluster(4), WithFidelity(taskgraph.OperatorLevel)); err != nil {
		t.Errorf("fidelity option rejected: %v", err)
	}
	for name, opt := range map[string]Option{
		"WithCacheSize": WithCacheSize(0),
		"WithDevice":    WithDevice(gpu.NewDevice(hw.PaperCluster(4).Node.GPU)),
		"WithCommTimer": WithCommTimer(zeroComm{}),
	} {
		if _, err := root.ForCluster(hw.PaperCluster(4), opt); err == nil {
			t.Errorf("root-only option %s accepted by ForCluster", name)
		}
	}
}

// TestForClusterSiblingsKeepOwnReports checks the tree's report cache keys
// on the cluster: the same (model, plan) on two clusters yields two
// different reports, each served back to its own sibling.
func TestForClusterSiblingsKeepOwnReports(t *testing.T) {
	cat := hw.Catalog()
	root, err := New(cat[0].Cluster(2), WithFidelity(taskgraph.OperatorLevel))
	if err != nil {
		t.Fatal(err)
	}
	m, plan := forClusterModel(), forClusterPlan()
	a, err := root.ForCluster(cat[0].Cluster(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := root.ForCluster(cat[3].Cluster(2))
	if err != nil {
		t.Fatal(err)
	}
	repA1, err := a.Simulate(m, plan)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := b.Simulate(m, plan)
	if err != nil {
		t.Fatal(err)
	}
	repA2, err := a.Simulate(m, plan)
	if err != nil {
		t.Fatal(err)
	}
	if repA1.IterTime != repA2.IterTime {
		t.Error("repeated simulation on one sibling disagrees with itself")
	}
	if repA1.IterTime == repB.IterTime {
		t.Error("different clusters produced identical reports — report caches leaked across siblings")
	}
	if st := a.CacheStats(); st.ReportHits == 0 {
		t.Error("sibling report cache never hit on a repeated configuration")
	}
}

// TestTreeCountsEverySibling pins where the counters live: a root and its
// ForCluster siblings share one tree, so a repeated plan on two siblings
// on different clusters shows the same report hits and misses from the
// root and from either sibling. The concurrent pass lets the race
// detector check the tree's counters.
func TestTreeCountsEverySibling(t *testing.T) {
	cat := hw.Catalog()
	m, plan := forClusterModel(), forClusterPlan()
	tree := func() (root, a, b *Simulator) {
		root, err := New(cat[0].Cluster(2), WithFidelity(taskgraph.OperatorLevel))
		if err != nil {
			t.Fatal(err)
		}
		if a, err = root.ForCluster(cat[0].Cluster(2)); err != nil {
			t.Fatal(err)
		}
		if b, err = root.ForCluster(cat[3].Cluster(2)); err != nil {
			t.Fatal(err)
		}
		return root, a, b
	}
	sameStats := func(root, a, b *Simulator) CacheStats {
		t.Helper()
		st := root.CacheStats()
		if sa, sb := a.CacheStats(), b.CacheStats(); sa != st || sb != st {
			t.Errorf("tree views disagree: root %+v, sibling a %+v, sibling b %+v", st, sa, sb)
		}
		return st
	}

	root, a, b := tree()
	for _, s := range []*Simulator{a, b, a, b} {
		if _, err := s.Simulate(m, plan); err != nil {
			t.Fatal(err)
		}
	}
	if st := sameStats(root, a, b); st.ReportHits != 2 || st.ReportMisses != 2 || st.Lowerings != 1 {
		t.Errorf("sequential: %d report hits, %d misses, %d lowerings; want 2, 2, 1",
			st.ReportHits, st.ReportMisses, st.Lowerings)
	}

	root, a, b = tree()
	const goroutines = 32
	var wg sync.WaitGroup
	for i := range goroutines {
		wg.Add(1)
		go func(s *Simulator) {
			defer wg.Done()
			for range 2 {
				if _, err := s.Simulate(m, plan); err != nil {
					t.Error(err)
				}
			}
		}([]*Simulator{a, b}[i%2])
	}
	wg.Wait()
	st := sameStats(root, a, b)
	if st.ReportHits+st.ReportMisses != 2*goroutines || st.ReportMisses < 2 || st.Lowerings != 1 {
		t.Errorf("concurrent: %d report hits, %d misses, %d lowerings; want %d lookups, at least 2 misses, 1 lowering",
			st.ReportHits, st.ReportMisses, st.Lowerings, 2*goroutines)
	}
}

// TestTreeSharesProfilerPerGPU pins where a GPU's profiler lives: in the
// tree, so every sibling on one GPU binds through one profiler whatever it
// was derived from — including a sibling on the root's GPU derived from a
// sibling on another.
func TestTreeSharesProfilerPerGPU(t *testing.T) {
	a100, h100, v100 := offering(t, "a100-sxm-80gb"), offering(t, "h100-sxm-80gb"), offering(t, "v100-sxm-32gb")
	root, err := New(a100.Cluster(2))
	if err != nil {
		t.Fatal(err)
	}
	derive := func(parent *Simulator, c hw.Cluster) *Simulator {
		t.Helper()
		sib, err := parent.ForCluster(c)
		if err != nil {
			t.Fatal(err)
		}
		return sib
	}
	viaH100 := derive(root, h100.Cluster(2))
	viaV100 := derive(root, v100.Cluster(2))
	if a, b := derive(viaH100, h100.Cluster(4)), derive(viaV100, h100.Cluster(8)); a.Profiler() != b.Profiler() {
		t.Error("H100 siblings derived from an H100 and a V100 parent have two profilers")
	}
	if derive(viaV100, a100.Cluster(8)).Profiler() != root.Profiler() {
		t.Error("A100 sibling derived from a V100 parent does not share the root's profiler")
	}
	if viaH100.Profiler() == root.Profiler() {
		t.Error("an H100 sibling shares the A100 root's profiler")
	}
}

// TestTreeSharesReportCache pins where reports live: in the tree, so
// siblings derived per request — 32 goroutines, each deriving a fresh
// sibling on one of two clusters — read the reports a first pass put,
// without a structural lookup.
func TestTreeSharesReportCache(t *testing.T) {
	cat := hw.Catalog()
	m, plan := forClusterModel(), forClusterPlan()
	clusters := []hw.Cluster{cat[0].Cluster(2), cat[3].Cluster(2)}
	root, err := New(cat[0].Cluster(2), WithFidelity(taskgraph.OperatorLevel))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Report, len(clusters))
	for i, c := range clusters {
		sib, err := root.ForCluster(c)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = sib.Simulate(m, plan); err != nil {
			t.Fatal(err)
		}
	}
	warm := root.CacheStats()
	const goroutines = 32
	var wg sync.WaitGroup
	for i := range goroutines {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sib, err := root.ForCluster(clusters[k])
			if err != nil {
				t.Error(err)
				return
			}
			if rep, err := sib.Simulate(m, plan); err != nil || !reflect.DeepEqual(rep, want[k]) {
				t.Errorf("goroutine on cluster %d: err %v, report matches the first pass %v", k, err, reflect.DeepEqual(rep, want[k]))
			}
		}(i % len(clusters))
	}
	wg.Wait()
	st := root.CacheStats()
	if st.ReportHits-warm.ReportHits != goroutines || st.ReportMisses != warm.ReportMisses || st.StructHits+st.StructMisses != warm.StructHits+warm.StructMisses {
		t.Errorf("per-request siblings: %+v -> %+v; want %d report hits and no other lookup", warm, st, goroutines)
	}
}

// TestCommTimerRootKeepsNoReports: a root given WithCommTimer keeps no
// report cache, since its reports are not a function of its cluster, so it
// and a sibling on the same cluster never serve each other's reports.
func TestCommTimerRootKeepsNoReports(t *testing.T) {
	c := hw.PaperCluster(2)
	m, plan := forClusterModel(), forClusterPlan()
	root, err := New(c, WithFidelity(taskgraph.OperatorLevel), WithCommTimer(zeroComm{}))
	if err != nil {
		t.Fatal(err)
	}
	sib, err := root.ForCluster(c)
	if err != nil {
		t.Fatal(err)
	}
	for pass := range 2 {
		free, err := root.Simulate(m, plan)
		if err != nil {
			t.Fatal(err)
		}
		priced, err := sib.Simulate(m, plan)
		if err != nil {
			t.Fatal(err)
		}
		if free.CommSeconds != 0 || priced.CommSeconds == 0 {
			t.Errorf("pass %d: root comm %g s (want 0), sibling comm %g s (want > 0)", pass, free.CommSeconds, priced.CommSeconds)
		}
	}
	if st := root.CacheStats(); st.ReportHits+st.ReportMisses != 0 {
		t.Errorf("a WithCommTimer root counted %d report hits and %d misses; want no report cache", st.ReportHits, st.ReportMisses)
	}
}

// offering looks a catalog offering up by name.
func offering(t *testing.T, name string) hw.Offering {
	t.Helper()
	o, err := hw.LookupOffering(name)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestMixedFidelityBatch pins fidelity as a sibling setting: siblings of a
// task-level root at both fidelities and on two clusters batch together,
// each report equals a fresh single-fidelity simulator's, and the shared
// structural cache lowers each (shape, fidelity) pair once.
func TestMixedFidelityBatch(t *testing.T) {
	cat := hw.Catalog()
	m := forClusterModel()
	shapes := []parallel.Plan{
		forClusterPlan(),
		{Tensor: 4, Data: 1, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2},
	}
	root, err := New(cat[0].Cluster(2))
	if err != nil {
		t.Fatal(err)
	}
	var (
		sims  []*Simulator
		plans []parallel.Plan
		want  []Report
	)
	for _, fid := range []taskgraph.Fidelity{taskgraph.OperatorLevel, taskgraph.TaskLevel} {
		for _, off := range []hw.Offering{cat[0], cat[3]} {
			sib, err := root.ForCluster(off.Cluster(2), WithFidelity(fid))
			if err != nil {
				t.Fatalf("%s at %v: %v", off.Name, fid, err)
			}
			fresh, err := New(off.Cluster(2), WithFidelity(fid))
			if err != nil {
				t.Fatal(err)
			}
			for _, plan := range shapes {
				rep, err := fresh.Simulate(m, plan)
				if err != nil {
					t.Fatal(err)
				}
				sims, plans, want = append(sims, sib), append(plans, plan), append(want, rep)
			}
		}
	}
	got, err := SimulateBatch(m, sims, plans)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plans {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("lane %d (%s): mixed-fidelity batch report differs from a fresh simulator's", i, plans[i])
		}
	}
	if st := root.CacheStats(); st.Lowerings != 4 {
		t.Errorf("%d lowerings, want 4 (2 shapes x 2 fidelities)", st.Lowerings)
	}
}
