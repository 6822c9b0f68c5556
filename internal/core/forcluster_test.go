package core

import (
	"sync"
	"testing"

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

// TestForClusterRejections pins the error paths: invalid clusters, fidelity
// changes, and structural-cache resizes are all refused, since each would
// poison or fork the shared cache.
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
	if _, err := root.ForCluster(hw.PaperCluster(4), WithFidelity(taskgraph.OperatorLevel)); err == nil {
		t.Error("fidelity change accepted; the shared cache is keyed by the parent's fidelity")
	}
	// Report-cache options remain free per sibling.
	if _, err := root.ForCluster(hw.PaperCluster(4), WithCacheSize(0)); err != nil {
		t.Errorf("report-cache option rejected: %v", err)
	}
}

// TestForClusterSiblingsKeepOwnReports checks the report caches are NOT
// shared: the same (model, plan) on two clusters yields two different
// reports, each served from its own sibling's cache.
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
