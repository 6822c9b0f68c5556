package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vtrain/internal/hw"
	"vtrain/internal/taskgraph"
)

// mangleArtifacts flips one byte in the middle of every file in dir.
func mangleArtifacts(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("no artifacts to mangle")
	}
	for _, e := range ents {
		p := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestArtifactTierWarmStart is the cross-process promise in miniature: a
// second simulator over the same artifact directory must produce an
// identical report with zero lowerings, serving structure and operator
// table from disk.
func TestArtifactTierWarmStart(t *testing.T) {
	dir := t.TempDir()
	m, plan := forClusterModel(), forClusterPlan()

	cold := sim(t, 4, WithFidelity(taskgraph.OperatorLevel), WithArtifactDir(dir))
	repCold, err := cold.Simulate(m, plan)
	if err != nil {
		t.Fatal(err)
	}
	stCold := cold.CacheStats()
	if stCold.Lowerings != 1 {
		t.Fatalf("cold run lowered %d graphs, want 1", stCold.Lowerings)
	}
	if stCold.DiskMisses == 0 || stCold.DiskWrites == 0 {
		t.Fatalf("cold run did not touch the disk tier: %+v", stCold)
	}
	if stCold.DiskHits != 0 {
		t.Fatalf("cold run hit a disk artifact in a fresh directory: %+v", stCold)
	}

	warm := sim(t, 4, WithFidelity(taskgraph.OperatorLevel), WithArtifactDir(dir))
	repWarm, err := warm.Simulate(m, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repWarm, repCold) {
		t.Fatalf("warm report %+v differs from cold report %+v", repWarm, repCold)
	}
	stWarm := warm.CacheStats()
	if stWarm.Lowerings != 0 {
		t.Fatalf("warm run lowered %d graphs, want 0", stWarm.Lowerings)
	}
	// Both loads must hit: the graph, and the operator table the cold run
	// saved once its plan bound.
	if stWarm.DiskHits != 2 || stWarm.DiskMisses != 0 {
		t.Fatalf("warm run missed the disk tier: %+v", stWarm)
	}
	// Warm demand traffic still reads as a structural miss — the
	// memory-tier counters describe memory, not where the fill came from.
	if stWarm.StructMisses != 1 {
		t.Fatalf("warm StructMisses = %d, want 1", stWarm.StructMisses)
	}
}

// TestArtifactTierDisabledByDefault: without WithArtifactDir the simulator
// never touches the disk counters, pinning the no-behavior-change contract.
func TestArtifactTierDisabledByDefault(t *testing.T) {
	s := sim(t, 4, WithFidelity(taskgraph.OperatorLevel))
	if _, err := s.Simulate(forClusterModel(), forClusterPlan()); err != nil {
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st.DiskHits != 0 || st.DiskMisses != 0 || st.DiskWrites != 0 {
		t.Fatalf("disk counters moved without an artifact dir: %+v", st)
	}
}

// TestForClusterSharesArtifactStore: siblings inherit the parent's store —
// structural artifacts are hardware-invariant, so a joint sweep shares one
// directory — and an attempt to re-point a sibling elsewhere is rejected
// like any other shared-cache mutation.
func TestForClusterSharesArtifactStore(t *testing.T) {
	dir := t.TempDir()
	root, err := New(hw.PaperCluster(4), WithFidelity(taskgraph.OperatorLevel), WithArtifactDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	sib, err := root.ForCluster(hw.Catalog()[0].Cluster(1))
	if err != nil {
		t.Fatal(err)
	}
	if sib.tree.artifacts != root.tree.artifacts {
		t.Fatal("sibling does not share the parent's artifact store")
	}
	if _, err := root.ForCluster(hw.Catalog()[0].Cluster(1), WithArtifactDir(t.TempDir())); err == nil {
		t.Fatal("ForCluster accepted a different artifact dir")
	}

	if _, err := sib.Simulate(forClusterModel(), forClusterPlan()); err != nil {
		t.Fatal(err)
	}
	// The sibling's disk traffic shows up in the parent's stats: one
	// shared store, one set of counters.
	if st := root.CacheStats(); st.DiskWrites == 0 {
		t.Fatalf("sibling write invisible in parent stats: %+v", st)
	}
}

// TestArtifactCorruptionFallsBackToLowering: a mangled on-disk artifact
// must cost a re-lowering, not an error and not a wrong report.
func TestArtifactCorruptionFallsBackToLowering(t *testing.T) {
	dir := t.TempDir()
	m, plan := forClusterModel(), forClusterPlan()

	ref, err := sim(t, 4, WithFidelity(taskgraph.OperatorLevel)).Simulate(m, plan)
	if err != nil {
		t.Fatal(err)
	}
	cold := sim(t, 4, WithFidelity(taskgraph.OperatorLevel), WithArtifactDir(dir))
	if _, err := cold.Simulate(m, plan); err != nil {
		t.Fatal(err)
	}
	mangleArtifacts(t, dir)

	warm := sim(t, 4, WithFidelity(taskgraph.OperatorLevel), WithArtifactDir(dir))
	rep, err := warm.Simulate(m, plan)
	if err != nil {
		t.Fatalf("corrupt artifacts must fall back silently, got %v", err)
	}
	if !reflect.DeepEqual(rep, ref) {
		t.Fatalf("report after corruption %+v differs from reference %+v", rep, ref)
	}
	st := warm.CacheStats()
	if st.Lowerings != 1 {
		t.Fatalf("corrupt graph artifact was not re-lowered: %+v", st)
	}
	if st.DiskHits != 0 {
		t.Fatalf("corrupt artifacts counted as hits: %+v", st)
	}
}
