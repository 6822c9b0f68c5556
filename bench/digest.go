package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"vtrain/internal/clusterdse"
	"vtrain/internal/core"
	"vtrain/internal/cost"
	"vtrain/internal/dse"
	"vtrain/internal/hw"
	"vtrain/internal/parallel"
)

// digestsJSON pins each workload's output digest. A change that moves a
// digest changed what the simulator predicts, not just how fast it runs;
// refresh the file only with a stated reason.
//
//go:embed testdata/digests.json
var digestsJSON []byte

// pinnedDigest returns the digest workload's outputs must hash to.
func pinnedDigest(workload string) (string, error) {
	var pins map[string]string
	if err := json.Unmarshal(digestsJSON, &pins); err != nil {
		return "", fmt.Errorf("testdata/digests.json: %w", err)
	}
	d, ok := pins[workload]
	if !ok {
		return "", fmt.Errorf("testdata/digests.json pins no digest for %s", workload)
	}
	return d, nil
}

// row is one evaluated design point in digest form.
type row struct {
	name  string // offering, or "dse" for a single-cluster plan sweep
	nodes int
	plan  parallel.Plan
	rep   core.Report
	tr    cost.Training
}

// pointKey identifies a design point across the untraced and traced runs.
type pointKey struct {
	name  string
	nodes int
	plan  parallel.Plan
}

func (r row) key() pointKey { return pointKey{r.name, r.nodes, r.plan} }

func clusterRows(pts []clusterdse.Point) []row {
	rows := make([]row, len(pts))
	for i, p := range pts {
		rows[i] = row{p.Offering.Name, p.Nodes, p.Plan, p.Report, p.Training}
	}
	return rows
}

// dseRows converts a plan sweep on cluster c. Plan sweeps do not price
// training runs, so the training fields hash as zeros.
func dseRows(pts []dse.Point, c hw.Cluster) []row {
	rows := make([]row, len(pts))
	for i, p := range pts {
		rows[i] = row{name: "dse", nodes: c.NodeCount, plan: p.Plan, rep: p.Report}
	}
	return rows
}

// pointsDigest collapses ranked points into one order-sensitive SHA-256,
// bit-exact over every derived float. The line format is the one the
// root package's contended-sweep fixture (sweepDigest in
// clusterdse_bench_test.go) was pinned with, so cluster-contended's digest
// equals that fixture.
func pointsDigest(rows []row) string {
	h := sha256.New()
	bits := math.Float64bits
	for _, p := range rows {
		fmt.Fprintf(h, "%s|%d|%v|%016x|%016x|%016x|%016x|%016x|%016x|%016x|%016x\n",
			p.name, p.nodes, p.plan,
			bits(p.rep.IterTime), bits(p.rep.Utilization),
			bits(p.rep.HardwareFLOPs), bits(p.rep.ComputeSeconds),
			bits(p.rep.CommSeconds), bits(p.rep.BubbleFraction),
			bits(p.tr.TotalDollars), bits(p.tr.Days))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// textDigest hashes canonical server responses, one per request body, in
// body order.
func textDigest(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d\n%s\n", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
