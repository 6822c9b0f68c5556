package validate

import (
	"math"
	"testing"

	"vtrain/internal/core"
	"vtrain/internal/hw"
	"vtrain/internal/taskgraph"
	"vtrain/internal/testbed"
)

func TestSingleNodeCampaignShape(t *testing.T) {
	cases := SingleNodeCases()
	// The paper collects 1,440 single-node data points.
	if len(cases) != 1440 {
		t.Fatalf("single-node cases = %d, want 1440", len(cases))
	}
	cluster := hw.PaperCluster(1)
	for i, c := range cases {
		if err := c.Plan.Validate(c.Model, cluster); err != nil {
			t.Fatalf("case %d invalid: %v", i, err)
		}
		if c.Plan.GPUs() > 8 {
			t.Fatalf("case %d uses %d GPUs, must fit one node", i, c.Plan.GPUs())
		}
	}
}

func TestMultiNodeCampaignShape(t *testing.T) {
	cases := MultiNodeCases()
	// The paper secured 116 multi-node data points.
	if len(cases) != 116 {
		t.Fatalf("multi-node cases = %d, want 116", len(cases))
	}
	cluster := hw.PaperCluster(64)
	for i, c := range cases {
		if err := c.Plan.Validate(c.Model, cluster); err != nil {
			t.Fatalf("case %d (%s %s) invalid: %v", i, c.Model.Name, c.Plan, err)
		}
	}
}

func TestRunSubsetReproducesFig9Bands(t *testing.T) {
	if testing.Short() {
		t.Skip("validation campaign is slow")
	}
	// A deterministic subset keeps the test fast while asserting the
	// headline structure: low MAPE, R^2 near 1.
	cases := SingleNodeCases()
	subset := make([]Case, 0, 180)
	for i := 0; i < len(cases); i += 8 {
		subset = append(subset, cases[i])
	}
	res, err := Run(hw.PaperCluster(1), subset, testbed.DefaultConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAPE <= 0 || res.MAPE > 20 {
		t.Errorf("single-node MAPE = %.2f%%, want in (0, 20] (paper: 8.37%%)", res.MAPE)
	}
	if res.R2 < 0.95 {
		t.Errorf("single-node R2 = %.4f, want >= 0.95 (paper: 0.9896)", res.R2)
	}
	for i := range res.Predicted {
		if res.Predicted[i] <= 0 || res.Measured[i] <= 0 {
			t.Fatalf("case %d degenerate: pred %.4g meas %.4g", i, res.Predicted[i], res.Measured[i])
		}
	}
}

func TestMultiNodeErrorExceedsSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("validation campaign is slow")
	}
	single := SingleNodeCases()
	subsetS := make([]Case, 0, 90)
	for i := 0; i < len(single); i += 16 {
		subsetS = append(subsetS, single[i])
	}
	rs, err := Run(hw.PaperCluster(1), subsetS, testbed.DefaultConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Run(hw.PaperCluster(64), MultiNodeCases(), testbed.DefaultConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 9's structure: the analytical inter-node model is less
	// accurate than the profiled intra-node path.
	if rm.MAPE <= rs.MAPE {
		t.Errorf("multi-node MAPE %.2f%% not above single-node %.2f%%", rm.MAPE, rs.MAPE)
	}
	if rm.R2 < 0.9 {
		t.Errorf("multi-node R2 = %.4f, want >= 0.9 (paper: 0.9887)", rm.R2)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	bad := []Case{{Model: SingleNodeCases()[0].Model}} // zero plan
	if _, err := Run(hw.PaperCluster(1), bad, testbed.DefaultConfig(), 1); err == nil {
		t.Fatal("invalid case must propagate an error")
	}
}

// TestContentionAgainstFig9 runs both full Fig. 9 campaigns with the
// topology contention level off and on. The testbed slows every collective
// that overlaps compute; the contention level derates only collectives that
// overlap other collectives. So it may only raise predictions, it must not
// worsen either campaign's error, and its measured effect is pinned here.
func TestContentionAgainstFig9(t *testing.T) {
	campaigns := []struct {
		name    string
		cluster hw.Cluster
		cases   []Case
		// Pinned MAPE (%) and R² with contention off, then on.
		mape, r2 [2]float64
	}{
		{"single-node", hw.PaperCluster(1), SingleNodeCases(), [2]float64{6.52, 6.51}, [2]float64{0.9936, 0.9936}},
		{"multi-node", hw.PaperCluster(64), MultiNodeCases(), [2]float64{11.64, 11.53}, [2]float64{0.9729, 0.9730}},
	}
	for _, c := range campaigns {
		var res [2]Result
		for i, on := range []bool{false, true} {
			sim, err := core.New(c.cluster, core.WithFidelity(taskgraph.OperatorLevel), core.WithContention(on))
			if err != nil {
				t.Fatal(err)
			}
			if res[i], err = run(sim, c.cases, testbed.DefaultConfig(), 42); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s contention=%v: MAPE %.4f%% R² %.6f", c.name, on, res[i].MAPE, res[i].R2)
		}
		off, on := res[0], res[1]
		changed, maxRise := 0, 0.0
		for i := range c.cases {
			if on.Predicted[i] < off.Predicted[i] {
				t.Fatalf("%s case %d: contended prediction %.6gs below ideal %.6gs", c.name, i, on.Predicted[i], off.Predicted[i])
			}
			if on.Predicted[i] > off.Predicted[i] {
				changed++
				maxRise = math.Max(maxRise, on.Predicted[i]/off.Predicted[i]-1)
			}
		}
		t.Logf("%s: contention changes %d of %d cases, by at most +%.2f%%", c.name, changed, len(c.cases), 100*maxRise)
		if on.MAPE > off.MAPE {
			t.Errorf("%s: contention raises MAPE %.4f%% -> %.4f%%", c.name, off.MAPE, on.MAPE)
		}
		for i, r := range res {
			if math.Abs(r.MAPE-c.mape[i]) > 0.01 {
				t.Errorf("%s contention=%v: MAPE %.4f%%, pinned %.2f%%", c.name, i == 1, r.MAPE, c.mape[i])
			}
			if math.Abs(r.R2-c.r2[i]) > 1e-4 {
				t.Errorf("%s contention=%v: R² %.6f, pinned %.4f", c.name, i == 1, r.R2, c.r2[i])
			}
		}
	}
}
