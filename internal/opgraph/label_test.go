package opgraph

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
)

// goldenPlans are the three pipeline schedules whose label streams are
// pinned in testdata/. The golden files were generated by an earlier
// builder, which stored an eager fmt.Sprintf label on every node — the lazy
// Label() output must stay byte-identical to them.
func goldenPlans() []struct {
	name string
	plan parallel.Plan
} {
	return []struct {
		name string
		plan parallel.Plan
	}{
		{"gpipe", parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8,
			GradientBuckets: 2, Recompute: true, Schedule: parallel.GPipe}},
		{"1f1b", parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8,
			GradientBuckets: 2, Recompute: true, Schedule: parallel.OneFOneB}},
		{"interleaved", parallel.Plan{Tensor: 1, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 4,
			GradientBuckets: 4, Schedule: parallel.OneFOneB, VirtualStages: 2}},
	}
}

func TestLazyLabelsMatchEagerGolden(t *testing.T) {
	m := tinyModel()
	c := hw.PaperCluster(8)
	for _, tc := range goldenPlans() {
		want, err := os.ReadFile(filepath.Join("testdata", "labels_"+tc.name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		g, err := Build(m, tc.plan, c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var sb strings.Builder
		for id := 0; id < g.NumNodes(); id++ {
			sb.WriteString(g.Label(id))
			sb.WriteByte('\n')
		}
		if got := sb.String(); got != string(want) {
			gotLines := strings.Split(got, "\n")
			wantLines := strings.Split(string(want), "\n")
			for i := range wantLines {
				if i >= len(gotLines) || gotLines[i] != wantLines[i] {
					t.Fatalf("%s: label %d = %q, want %q", tc.name, i, gotLines[i], wantLines[i])
				}
			}
			t.Fatalf("%s: %d labels, want %d", tc.name, len(gotLines), len(wantLines))
		}
	}
}

// TestBuildPerformsNoLabelFormatting guards the lazy-label contract: when no
// trace is captured, constructing the graph must not format a single label.
// The per-build allocation budget below (node and dependency slices, schedule
// scaffolding) is far smaller than one allocation per node, so any
// reintroduction of eager per-node label strings trips it immediately.
func TestBuildPerformsNoLabelFormatting(t *testing.T) {
	m := model.Config{Name: "alloc", Hidden: 256, Layers: 8, SeqLen: 128, Heads: 4, Vocab: 1024}
	plan := parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 32,
		GradientBuckets: 2, Recompute: true}
	c := hw.PaperCluster(8)
	g, err := Build(m, plan, c)
	if err != nil {
		t.Fatal(err)
	}
	nodes := g.NumNodes()

	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Build(m, plan, c); err != nil {
			t.Fatal(err)
		}
	})
	// One eager label costs at least one allocation per node; the whole
	// build must stay well under that.
	if allocs > float64(nodes)/4 {
		t.Fatalf("Build allocated %.0f times for %d nodes — labels are no longer lazy", allocs, nodes)
	}

	// And rendering a label on demand still works.
	if got := g.Label(0); got != "Fwd Embedding mb0" {
		t.Fatalf("Label(0) = %q", got)
	}
}
