package taskgraph

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"vtrain/internal/comm"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

// TestReplayContendedNilMatchesReplay pins the equivalence lock of the
// contention fidelity level: a nil ContentionTable — passed to Replay or
// ReplayTrace, as a nil cts slice, or as a slice of nil entries — performs
// bit-identical float operations to the ideal reference replay, so the
// contention-off path is exactly the pre-knob simulator.
func TestReplayContendedNilMatchesReplay(t *testing.T) {
	g, tables := batchFixture(t, oneShapePlans())
	checkLanes(t, g, tables, nil)
	checkLanes(t, g, tables, make([]*placement, len(tables)))
	if _, err := g.ReplayBatchContended(tables, make([]*ContentionTable, 1)); err == nil {
		t.Fatal("mismatched cts length: expected an error")
	}
}

// TestContendedBatchMatchesSequential pins the batch contract under
// contention: each lane of ReplayBatchContended is bit-identical to the
// reference replay of the same (table, contention table) pair — occupancy
// ledgers are per lane and never leak across lanes — for fully contended
// batches and for batches mixing ideal and contended lanes, on the paper
// cluster and on an oversubscribed one-node-per-leaf tree whose inter-node
// flows all contend on the spine.
func TestContendedBatchMatchesSequential(t *testing.T) {
	plans := oneShapePlans()
	g, tables := batchFixture(t, plans)
	blocking := hw.PaperCluster(8)
	blocking.NodesPerLeaf, blocking.Oversubscription = 1, 2
	for _, c := range []hw.Cluster{hw.PaperCluster(8), blocking} {
		places := placements(plans, c)
		checkLanes(t, g, tables, places)
		// Leave one lane ideal: mixed batches must stay well-defined.
		places[1] = nil
		checkLanes(t, g, tables, places)
	}
}

// TestContendedBatchMixedLiveness pins the lock-step loop's batch mask: one
// batch of one hand-built two-stage graph whose lanes can contend on
// different tasks. On the private lane (t=8, each stage owns its node)
// every class has one owner and no task can contend; on the NVSwitch lane
// (t=2) both stages share node 0, so every comm task can; on the spine
// lane (t=8, d=2 over a blocking one-node-per-leaf tree) the gradient
// All-Reduces and the transfer share the spine while each tensor-parallel
// All-Reduce keeps its own NVSwitch; the fourth lane is ideal. Each lane
// matches referenceReplay, which scans every flow on the full paths and so
// never reads a mask, at width 1 and in every batch checkLanes replays; the
// private lane's table reports no live entry, so it replays without a
// ledger.
func TestContendedBatchMixedLiveness(t *testing.T) {
	b := NewBuilder(2)
	tp := durDesc{kind: descAllReduceTP}
	dp := durDesc{kind: descAllReduceDP, stageParams: 1 << 20, buckets: 1}
	c0 := b.AddTask(0, ComputeStream, 0, compute(profiler.FwdMHA), 1e-3)
	b.AddTask(1, ComputeStream, 1, compute(profiler.FwdMHA), 1e-3)
	tp0 := b.AddTask(0, CommStream, 2, tp, 2e-4)
	tp1 := b.AddTask(1, CommStream, 3, tp, 2e-4)
	b.AddEdge(tp0, b.AddTask(0, CommStream, 4, dp, 5e-4))
	dp1 := b.AddTask(1, CommStream, 5, dp, 5e-4)
	b.AddEdge(tp1, dp1)
	p2p := b.AddTask(1, CommStream, 6, durDesc{kind: descP2P, from: 0, to: 1}, 1e-4)
	b.AddEdge(c0, p2p)
	b.AddEdge(dp1, p2p)
	g, tbl := mustBuild(t, b)

	blocking := hw.PaperCluster(4)
	blocking.NodesPerLeaf, blocking.Oversubscription = 1, 2
	places := []*placement{
		{parallel.Plan{Tensor: 8, Data: 1, Pipeline: 2, MicroBatch: 1, GlobalBatch: 1}, hw.PaperCluster(4)},
		{parallel.Plan{Tensor: 2, Data: 1, Pipeline: 2, MicroBatch: 1, GlobalBatch: 1}, hw.PaperCluster(4)},
		{parallel.Plan{Tensor: 8, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 2}, blocking},
		nil,
	}
	// Each lane's live entries by descriptor kind, as "TP DP P2P" per
	// device; the transfer only runs on its receiving stage.
	wantLive := []string{"--- ---", "TD- TDP", "-D- -DP"}
	ideal := referenceReplay(g, tbl, nil)
	for lane, pl := range places[:3] {
		ct := g.BindContention(pl.plan, pl.c, tbl)
		got := []byte("--- ---")
		for di, d := range g.descs {
			for dev := range g.Devices {
				if !ct.live[di*g.Devices+dev] {
					continue
				}
				switch d.kind {
				case descAllReduceTP:
					got[4*dev] = 'T'
				case descAllReduceDP:
					got[4*dev+1] = 'D'
				case descP2P:
					if dev == int(d.to) {
						got[4*dev+2] = 'P'
					}
				default:
					t.Errorf("lane %d: compute descriptor %d is live on device %d", lane, di, dev)
				}
			}
		}
		if string(got) != wantLive[lane] {
			t.Errorf("lane %d (%s): live tasks %q, want %q", lane, pl.plan, got, wantLive[lane])
		}
		// The private lane has no live entry, so replay gives it no
		// ledger; it must still match the reference bit for bit.
		if ct.anyLive != (lane > 0) {
			t.Errorf("lane %d (%s): anyLive = %v with live tasks %q", lane, pl.plan, ct.anyLive, got)
		}
		// A lane that can contend must actually be derated, or the batch
		// mask is never exercised.
		res := referenceReplay(g, tbl, pl)
		if slowed := !slices.Equal(res.CommBusy, ideal.CommBusy); slowed != (lane > 0) {
			t.Errorf("lane %d (%s): comm busy %v against ideal %v", lane, pl.plan, res.CommBusy, ideal.CommBusy)
		}
		single, err := g.Replay(tbl, ct)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, lane, single, res)
	}
	checkLanes(t, g, []*DurationTable{tbl, tbl, tbl, tbl}, places)
}

// bruteOverlaps is the flat scan the occupancy ledger must reproduce: the
// recorded intervals [s, e) that intersect the half-open query [start, end).
func bruteOverlaps(ivs [][2]float64, start, end float64) int {
	n := 0
	for _, iv := range ivs {
		if iv[0] < end && iv[1] > start {
			n++
		}
	}
	return n
}

// requireSortedLedger fails unless class's start and end arrays are
// ascending — the invariant every ledger count relies on.
func requireSortedLedger(t *testing.T, cs *contState, class int) {
	t.Helper()
	led := &cs.led[class]
	if !slices.IsSorted(led.starts) || !slices.IsSorted(led.ends) {
		t.Fatalf("class %d ledger not sorted: starts %v, ends %v", class, led.starts, led.ends)
	}
}

// TestContentionLedgerExactCounts pins the ledger's exactness contract: the
// sorted start/end arrays return the same overlap count as a flat scan over
// every recorded interval, whatever order flows arrive in — ascending (pure
// tail appends), strictly reversed (every insert shifts the whole array),
// shuffled, and tied or boundary-touching endpoints (end == a later start;
// overlap is half-open). Both arrays stay sorted after every op, counts
// deep enough to leave the tail walk for binary search are covered, and a
// pooled state comes back clean.
func TestContentionLedgerExactCounts(t *testing.T) {
	const n = 1500
	orders := []struct {
		name  string
		flows func(rng *rand.Rand) [][2]float64
	}{
		{"ascending", func(*rand.Rand) [][2]float64 {
			out := make([][2]float64, n)
			for i := range out {
				s := float64(i) * 0.25
				out[i] = [2]float64{s, s + 4}
			}
			return out
		}},
		{"reversed", func(*rand.Rand) [][2]float64 {
			out := make([][2]float64, n)
			for i := range out {
				s := float64(n-i) * 0.25
				out[i] = [2]float64{s, s + 4}
			}
			return out
		}},
		{"shuffled", func(rng *rand.Rand) [][2]float64 {
			out := make([][2]float64, n)
			for i := range out {
				s := float64(i) * 0.25
				out[i] = [2]float64{s, s + []float64{0.01, 4, 50, 1e-12}[rng.Intn(4)]}
			}
			rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
			return out
		}},
		{"touching", func(rng *rand.Rand) [][2]float64 {
			out := make([][2]float64, n)
			for i := range out {
				s := float64(rng.Intn(20))
				out[i] = [2]float64{s, s + float64(1+rng.Intn(3))}
			}
			return out
		}},
	}
	ct := &ContentionTable{classes: 3}
	for _, order := range orders {
		rng := rand.New(rand.NewSource(7))
		cs := getContState(ct)
		ref := make([][][2]float64, ct.classes)
		check := func(op, class int, start, end float64) {
			t.Helper()
			if got, want := cs.overlaps(class, start, end), bruteOverlaps(ref[class], start, end); got != want {
				t.Fatalf("%s op %d: overlaps(%d, %g, %g) = %d, want %d (n=%d)",
					order.name, op, class, start, end, got, want, len(ref[class]))
			}
		}
		for op, f := range order.flows(rng) {
			class := rng.Intn(ct.classes)
			// Query the flow itself, as contend does before recording it,
			// then a query touching a recorded end (end == query start).
			check(op, class, f[0], f[1])
			if r := ref[class]; len(r) > 0 {
				prev := r[rng.Intn(len(r))]
				check(op, class, prev[1], prev[1]+rng.Float64()*5)
			}
			cs.record(class, f[0], f[1])
			ref[class] = append(ref[class], f)
			requireSortedLedger(t, cs, class)
		}
		// Release and reacquire: the pooled state must come back clean.
		putContState(cs)
		cs = getContState(ct)
		for class := 0; class < ct.classes; class++ {
			if got := cs.overlaps(class, 0, 1e18); got != 0 {
				t.Fatalf("%s: pooled ledger not reset, class %d reports %d overlaps", order.name, class, got)
			}
		}
		putContState(cs)
	}
}

// FuzzContentionLedger drives the occupancy ledger with arbitrary
// record/overlaps sequences over up to four classes, endpoints drawn from a
// palette of awkward values: zero, subnormals, huge and tiny magnitudes,
// ±Inf and NaN. No input may panic or hang. Wherever no NaN is involved the
// arrays must stay sorted and every count of a non-empty query (start <
// end) must equal the brute-force scan.
//
// Each op is three bytes: op&1 selects record (0) or overlaps (1), op>>1
// the class; the next two bytes index the palette for the interval's
// endpoints, which are ordered low to high.
func FuzzContentionLedger(f *testing.F) {
	palette := []float64{
		0, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, 1e-300,
		0.5, 1, 1.5, 2, 3, 1e300, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), -1, math.NaN(),
	}
	f.Add([]byte{})
	// Ascending, reversed, and boundary-touching records, each queried.
	f.Add([]byte{0, 0, 5, 0, 5, 7, 0, 7, 8, 1, 4, 6, 1, 0, 8, 1, 7, 9})
	f.Add([]byte{0, 7, 8, 0, 5, 7, 0, 0, 5, 1, 5, 5, 1, 4, 6, 1, 6, 7})
	f.Add([]byte{2, 5, 7, 2, 7, 8, 3, 7, 7, 3, 5, 8, 4, 6, 8, 5, 0, 9})
	// Every palette value as an endpoint, then full-range queries per class.
	var all []byte
	for i := range palette {
		all = append(all, byte(2*(i%4)), byte(i), byte(i+1))
	}
	for c := byte(0); c < 4; c++ {
		all = append(all, 2*c+1, 12, 11)
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, data []byte) {
		ct := &ContentionTable{classes: 4}
		cs := getContState(ct)
		defer putContState(cs)
		ref := make([][][2]float64, ct.classes)
		sawNaN := make([]bool, ct.classes)
		for ; len(data) >= 3; data = data[3:] {
			class := int(data[0]>>1) % ct.classes
			lo, hi := palette[int(data[1])%len(palette)], palette[int(data[2])%len(palette)]
			if hi < lo {
				lo, hi = hi, lo
			}
			if data[0]&1 == 0 {
				cs.record(class, lo, hi)
				ref[class] = append(ref[class], [2]float64{lo, hi})
				if math.IsNaN(lo) || math.IsNaN(hi) {
					sawNaN[class] = true
				}
				if !sawNaN[class] {
					requireSortedLedger(t, cs, class)
				}
				continue
			}
			got := cs.overlaps(class, lo, hi)
			if sawNaN[class] || !(lo < hi) {
				continue
			}
			if want := bruteOverlaps(ref[class], lo, hi); got != want {
				t.Fatalf("overlaps(%d, %g, %g) = %d, want %d over %v", class, lo, hi, got, want, ref[class])
			}
		}
	})
}

// TestContStateResetAcrossClassCounts pins pooled-state reuse across
// clusters of different sizes (cluster sweeps, the warm server pool share
// one contStatePool). Growing the ledger by append can leave cap > len, so
// a later reset with len < classes <= cap must reslice within capacity —
// the 10 -> 13 -> 15 sequence used to compute a negative make length and
// panic with "makeslice: len out of range".
func TestContStateResetAcrossClassCounts(t *testing.T) {
	cs := new(contState)
	for _, classes := range []int{10, 13, 15, 4, 11, 64, 20} {
		ct := &ContentionTable{classes: classes}
		cs.reset(ct)
		if len(cs.led) < classes {
			t.Fatalf("classes=%d: ledger len %d after reset", classes, len(cs.led))
		}
		for class := 0; class < classes; class++ {
			if got := cs.overlaps(class, 0, 1e18); got != 0 {
				t.Fatalf("classes=%d: class %d not reset, reports %d overlaps", classes, class, got)
			}
			cs.record(class, float64(class), float64(class)+2)
			if got := cs.overlaps(class, float64(class)+1, float64(class)+3); got != 1 {
				t.Fatalf("classes=%d: class %d overlaps = %d, want 1", classes, class, got)
			}
		}
	}
}

// TestContStateRecyclesAcrossClasses pins the ledger's storage reuse. The
// plans of a sweep put their flows on different link classes, so a reset
// state must hand the arrays one replay filled to whichever classes the
// next replay fills: recording the same volume on fresh classes allocates
// nothing.
func TestContStateRecyclesAcrossClasses(t *testing.T) {
	ct := &ContentionTable{classes: 64}
	cs := new(contState)
	group := 0
	fill := func() {
		cs.reset(ct)
		for i := 0; i < 1000; i++ {
			cs.record(4*group+i%4, float64(i), float64(i)+2)
		}
		group = (group + 1) % 16
	}
	fill()
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Fatalf("filling fresh classes allocated %v times per replay, want 0", allocs)
	}
}

// TestContentionMonotone is the tentpole's property test: adding
// link-sharing concurrent collectives never decreases any comm task's
// duration. A hand-built graph of independent data-parallel All-Reduces on
// one node's NVSwitch pops them in ID order, so task i overlaps exactly the
// i flows recorded before it and its derate factor is 1 + NVShare*i —
// nondecreasing in concurrency, and never below the ideal duration.
func TestContentionMonotone(t *testing.T) {
	c := hw.PaperCluster(8)
	const stages = 4
	b := NewBuilder(stages)
	desc := durDesc{kind: descAllReduceDP, stageParams: 1 << 20, buckets: 1}
	for dev := 0; dev < stages; dev++ {
		b.AddTask(dev, CommStream, 0, desc, 0)
	}
	g, _ := mustBuild(t, b)

	// Data width 2 at stride 2 on 8-GPU nodes: the group is node-local, so
	// every stage's collective shares node 0's NVSwitch.
	plan := parallel.Plan{Tensor: 1, Data: 2, Pipeline: stages, MicroBatch: 1, GlobalBatch: 2 * stages}
	cm := comm.NewModel(c)
	tbl := g.Bind(nil, cm, plan, c)
	ct := g.BindContention(plan, c, tbl)

	base := tbl.Duration(0)
	if base <= 0 {
		t.Fatalf("ideal All-Reduce duration %v, want > 0", base)
	}
	_, spans, err := g.ReplayTrace(tbl, ct, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != stages {
		t.Fatalf("got %d spans, want %d", len(spans), stages)
	}
	cg := comm.NewCongestion(c)
	prev := 0.0
	for i, sp := range spans {
		dur := sp.End - sp.Start
		if dur < base {
			t.Fatalf("span %d: contended duration %v < ideal %v", i, dur, base)
		}
		if dur < prev {
			t.Fatalf("span %d: duration %v decreased below span %d's %v under growing concurrency", i, dur, i-1, prev)
		}
		if want := base * cg.Derate(i, 0, 0); dur != want {
			t.Fatalf("span %d: duration %v, want base*(1+NVShare*%d) = %v", i, dur, i, want)
		}
		prev = dur
	}

	// The same property must hold on a real lowered graph: every comm span
	// is at least its ideal twin, compute spans are untouched, and the
	// iteration time never shrinks.
	plan = parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2}
	bg := lower(t, plan, OperatorLevel)
	ideal, idealSpans, err := bg.g.ReplayTrace(bg.tbl, nil, bg.labels)
	if err != nil {
		t.Fatal(err)
	}
	lct := bg.g.BindContention(plan, c, bg.tbl)
	cont, contSpans, err := bg.g.ReplayTrace(bg.tbl, lct, bg.labels)
	if err != nil {
		t.Fatal(err)
	}
	if cont.IterTime < ideal.IterTime {
		t.Fatalf("contended IterTime %v < ideal %v", cont.IterTime, ideal.IterTime)
	}
	// Busy seconds accumulate the replayed durations directly, so the
	// comparison is exact: compute streams are untouched, comm streams only
	// ever grow.
	for d := range ideal.ComputeBusy {
		if cont.ComputeBusy[d] != ideal.ComputeBusy[d] {
			t.Fatalf("device %d: compute busy changed %v -> %v", d, ideal.ComputeBusy[d], cont.ComputeBusy[d])
		}
		if cont.CommBusy[d] < ideal.CommBusy[d] {
			t.Fatalf("device %d: comm busy %v < ideal %v", d, cont.CommBusy[d], ideal.CommBusy[d])
		}
	}
	if len(contSpans) != len(idealSpans) {
		t.Fatalf("%d contended spans != %d ideal", len(contSpans), len(idealSpans))
	}
	// Span durations are reconstructed as End-Start, so shifted start times
	// cost up to an ulp; compare with a relative tolerance.
	const tol = 1e-12
	for i := range idealSpans {
		id, cd := idealSpans[i].End-idealSpans[i].Start, contSpans[i].End-contSpans[i].Start
		if cd < id*(1-tol) {
			t.Fatalf("span %d (%v stream): contended duration %v < ideal %v", i, contSpans[i].Stream, cd, id)
		}
	}
}

// TestHierarchicalAllReduceParticipants pins the inter-node participant
// count of hierarchical collectives (the Eq. 1 fix): a data-parallel group
// of 8 ranks spread 4-per-node over 2 nodes reduces node-local first, so
// the inter-node ring phase sees 2 participants — the nodes — not 8.
func TestHierarchicalAllReduceParticipants(t *testing.T) {
	c := hw.PaperCluster(2)
	c.Node.GPUsPerNode = 4

	const stageParams = 1 << 22
	b := NewBuilder(1)
	b.AddTask(0, CommStream, 0, durDesc{kind: descAllReduceDP, stageParams: stageParams, buckets: 1}, 0)
	g, _ := mustBuild(t, b)

	plan := parallel.Plan{Tensor: 1, Data: 8, Pipeline: 1, MicroBatch: 1, GlobalBatch: 8}
	m := comm.NewModel(c)
	tbl := g.Bind(nil, m, plan, c)

	want := m.AllReduceInter(2*float64(stageParams), 2)
	if got := tbl.Duration(0); got != want {
		t.Fatalf("2-node x 4-rank gradient All-Reduce priced %v, want the 2-participant inter-node ring %v (got n=ranks? %v)",
			got, want, m.AllReduceInter(2*float64(stageParams), 8))
	}
	if want >= m.AllReduceInter(2*float64(stageParams), 8) {
		t.Fatal("sanity: the 2-participant ring should be cheaper than the 8-participant one")
	}

	// The node-count arithmetic itself, over the corner cases: intra-node
	// groups, exact node multiples, and t > gpn (each member on its own
	// node, capped at the member count).
	cases := []struct {
		t, d, gpn string
		plan      parallel.Plan
		gpnVal    int
		wantN     int
		wantIntra bool
		dp        bool
	}{
		{plan: parallel.Plan{Tensor: 4, Data: 1}, gpnVal: 8, wantN: 4, wantIntra: true},
		{plan: parallel.Plan{Tensor: 16, Data: 1}, gpnVal: 8, wantN: 2, wantIntra: false},
		{plan: parallel.Plan{Tensor: 1, Data: 8}, gpnVal: 8, wantN: 8, wantIntra: true, dp: true},
		{plan: parallel.Plan{Tensor: 4, Data: 8}, gpnVal: 8, wantN: 4, wantIntra: false, dp: true},
		{plan: parallel.Plan{Tensor: 16, Data: 4}, gpnVal: 8, wantN: 4, wantIntra: false, dp: true},
	}
	for _, tc := range cases {
		var n int
		var intra bool
		if tc.dp {
			n, intra = allReduceDPArgs(tc.plan, tc.gpnVal)
		} else {
			n, intra = allReduceTPArgs(tc.plan, tc.gpnVal)
		}
		if n != tc.wantN || intra != tc.wantIntra {
			t.Errorf("t=%d d=%d gpn=%d (dp=%v): got (%d, %v), want (%d, %v)",
				tc.plan.Tensor, tc.plan.Data, tc.gpnVal, tc.dp, n, intra, tc.wantN, tc.wantIntra)
		}
	}
}

// TestCommScopes pins which communication stays inside a server node on
// 8-GPU nodes: the tensor-parallel All-Reduce, the data-parallel gradient
// All-Reduce, and every pipeline transfer of a lowered graph, placed
// between the stages' representative replicas.
func TestCommScopes(t *testing.T) {
	m := model.Config{Name: "scope", Hidden: 512, Layers: 8, SeqLen: 128, Heads: 8, Vocab: 1024}
	c := hw.PaperCluster(4)
	gpn := c.Node.GPUsPerNode
	cases := []struct {
		plan                      parallel.Plan
		tpIntra, dpIntra, p2pSame bool
	}{
		// t=8 fills a node: the DP group (stride 8) spans two nodes, and
		// stage 1 starts at rank 16, two nodes on.
		{parallel.Plan{Tensor: 8, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 4, GradientBuckets: 1}, true, false, false},
		// t=2, d=2: stage 1 starts at rank 4, so the representative
		// replica's whole pipeline stays in node 0.
		{parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 4, GradientBuckets: 1}, true, true, true},
		// t=2, d=4: the DP group fills node 0, so stage 1 starts on node 1.
		{parallel.Plan{Tensor: 2, Data: 4, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 1}, true, true, false},
	}
	for _, tc := range cases {
		if _, intra := allReduceTPArgs(tc.plan, gpn); intra != tc.tpIntra {
			t.Errorf("%s: TP All-Reduce intra-node = %v, want %v", tc.plan, intra, tc.tpIntra)
		}
		if _, intra := allReduceDPArgs(tc.plan, gpn); intra != tc.dpIntra {
			t.Errorf("%s: DP All-Reduce intra-node = %v, want %v", tc.plan, intra, tc.dpIntra)
		}
		og, err := opgraph.Build(m, tc.plan, c)
		if err != nil {
			t.Fatal(err)
		}
		p2p := 0
		for _, d := range Lower(og, nil, OperatorLevel).descs {
			if d.kind != descP2P {
				continue
			}
			p2p++
			if same := stageNode(int(d.from), tc.plan, gpn) == stageNode(int(d.to), tc.plan, gpn); same != tc.p2pSame {
				t.Errorf("%s: transfer %d -> %d same-node = %v, want %v", tc.plan, d.from, d.to, same, tc.p2pSame)
			}
		}
		if p2p != 2 {
			t.Errorf("%s: %d transfer descriptors, want one per direction", tc.plan, p2p)
		}
	}
}

// TestContentionRoutesMatchComm pins BindContention's bound routes to
// comm's fat-tree paths: every device's tensor- and data-parallel route
// and every pipeline-transfer descriptor's route must be the link-class
// translation of comm.CollectivePath / comm.SendRecvPath for the same
// placement, with exactly the classes only one device can occupy cleared,
// and every class inside the table's class count. A device occupies the
// classes of its own collectives and of the transfers it receives. The
// plans cover one-node and one-stage placements, tensor widths beyond a
// node, interleaved schedules whose last-to-first-stage transfer wraps,
// leaf radices small enough that routes cross the spine, a cleared class
// and an NVSwitch two stages share; the test fails unless each of those
// cases actually occurs.
func TestContentionRoutesMatchComm(t *testing.T) {
	// classesOf is the test's own translation of a path into link classes.
	classesOf := func(p comm.Path) route {
		r := route{nv: -1, hca: [2]int32{-1, -1}, spine: p.Spine}
		if p.NVNode >= 0 {
			r.nv = int32(1 + 2*p.NVNode)
		}
		for i, n := range p.HCANodes {
			if n >= 0 {
				r.hca[i] = int32(2 + 2*n)
			}
		}
		return r
	}
	shapes := []parallel.Plan{
		{Tensor: 1, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 2},
		{Tensor: 1, Data: 1, Pipeline: 4, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2},
		{Tensor: 1, Data: 1, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, VirtualStages: 2},
		{Tensor: 1, Data: 1, Pipeline: 4, MicroBatch: 1, GlobalBatch: 8, VirtualStages: 2, GradientBuckets: 2},
	}
	widths := [][2]int{{1, 1}, {2, 2}, {2, 3}, {4, 8}, {8, 2}, {16, 1}, {16, 4}, {32, 2}}
	var sawOneNode, sawWideTP, sawWrap, sawSpine, sawNV, sawCleared, sawSharedNV bool
	for _, shape := range shapes {
		g, _ := lowerOn(t, deepModel(), shape, hw.PaperCluster(1), OperatorLevel)
		for _, w := range widths {
			plan := shape
			plan.Tensor, plan.Data = w[0], w[1]
			ranks := g.Devices * plan.Tensor * plan.Data
			for _, leaf := range []int{0, 1, 2} {
				c := hw.PaperCluster(max((ranks+7)/8, 1))
				c.NodesPerLeaf = leaf
				gpn := c.Node.GPUsPerNode
				cg := comm.NewCongestion(c)
				ct := g.BindContention(plan, c, nil)
				if len(ct.tp) != g.Devices || len(ct.dp) != g.Devices || len(ct.p2p) != len(g.descs) {
					t.Fatalf("%s: %d tp / %d dp / %d p2p routes for %d devices and %d descriptors",
						plan, len(ct.tp), len(ct.dp), len(ct.p2p), g.Devices, len(g.descs))
				}

				// Every route comm resolves, with the device whose comm
				// stream issues it.
				type owned struct {
					what string
					got  route
					full route
					dev  int
				}
				var routes []owned
				tpN, tpIntra := allReduceTPArgs(plan, gpn)
				dpN, dpIntra := allReduceDPArgs(plan, gpn)
				tpSpan, dpSpan := tpN, dpN
				if tpIntra {
					tpSpan = 1
				}
				if dpIntra {
					dpSpan = 1
				}
				for dev := 0; dev < g.Devices; dev++ {
					node := stageNode(dev, plan, gpn)
					routes = append(routes,
						owned{"tp", ct.tp[dev], classesOf(cg.CollectivePath(node, tpSpan)), dev},
						owned{"dp", ct.dp[dev], classesOf(cg.CollectivePath(node, dpSpan)), dev})
				}
				for di, d := range g.descs {
					if d.kind != descP2P {
						continue
					}
					p := cg.SendRecvPath(stageNode(int(d.from), plan, gpn), stageNode(int(d.to), plan, gpn))
					routes = append(routes, owned{"p2p", ct.p2p[di], classesOf(p), int(d.to)})
					sawWrap = sawWrap || d.from > d.to
				}

				// The devices occupying each class, and each route with
				// its single-device classes cleared.
				devs := map[int32]map[int]bool{}
				claim := func(c int32, dev int) {
					if devs[c] == nil {
						devs[c] = map[int]bool{}
					}
					devs[c][dev] = true
				}
				for _, o := range routes {
					for _, c := range []int32{o.full.nv, o.full.hca[0], o.full.hca[1]} {
						if c >= 0 {
							claim(c, o.dev)
						}
					}
					if o.full.spine {
						claim(0, o.dev)
					}
				}
				shared := func(c int32) bool { return len(devs[c]) > 1 }
				for _, o := range routes {
					want := o.full
					if want.nv >= 0 && !shared(want.nv) {
						want.nv = -1
					}
					for i, c := range want.hca {
						if c >= 0 && !shared(c) {
							want.hca[i] = -1
						}
					}
					want.spine = want.spine && shared(0)
					if o.got != want {
						t.Fatalf("%s leaf %d: %s route of device %d %+v, want %+v (uncleared %+v)",
							plan, leaf, o.what, o.dev, o.got, want, o.full)
					}
					for _, class := range []int32{o.got.nv, o.got.hca[0], o.got.hca[1]} {
						if int(class) >= ct.classes {
							t.Fatalf("%s leaf %d: %s class %d outside %d classes", plan, leaf, o.what, class, ct.classes)
						}
					}
					sawSpine = sawSpine || o.got.spine
					sawNV = sawNV || o.full.nv >= 0
					sawSharedNV = sawSharedNV || o.got.nv >= 0
					sawCleared = sawCleared || o.got != o.full
				}
				sawOneNode = sawOneNode || ranks <= gpn
				sawWideTP = sawWideTP || plan.Tensor > gpn
			}
		}
	}
	if !sawOneNode || !sawWideTP || !sawWrap || !sawSpine || !sawNV || !sawCleared || !sawSharedNV {
		t.Fatalf("coverage: one-node %v, t > gpn %v, wrapping transfer %v, spine %v, NVSwitch %v, cleared class %v, shared NVSwitch %v",
			sawOneNode, sawWideTP, sawWrap, sawSpine, sawNV, sawCleared, sawSharedNV)
	}
}

// TestBindContentionElidesPrivateClasses pins the private-class rule: on
// plans where every stage owns its nodes, no other device can put a flow
// on a stage's NVSwitch, so every tensor-parallel route comes back empty
// and contend skips its ledgers. The contended replay still matches the
// reference, which scans every flow on every link of the full comm paths.
func TestBindContentionElidesPrivateClasses(t *testing.T) {
	c := hw.PaperCluster(8)
	m := model.Config{Name: "private", Hidden: 512, Layers: 8, SeqLen: 128, Heads: 8, Vocab: 1024}
	for _, plan := range []parallel.Plan{
		{Tensor: 8, Data: 1, Pipeline: 4, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2},
		{Tensor: 8, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2},
		{Tensor: 4, Data: 2, Pipeline: 4, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2},
	} {
		g, prof := lowerOn(t, m, plan, c, OperatorLevel)
		tbl := g.Bind(prof, comm.NewModel(c), plan, c)
		ct := g.BindContention(plan, c, tbl)
		empty := route{nv: -1, hca: [2]int32{-1, -1}}
		for dev, r := range ct.tp {
			if r != empty {
				t.Errorf("%s: device %d owns its node, but its TP route is %+v, want empty", plan, dev, r)
			}
		}
		got, err := g.Replay(tbl, ct)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, 0, got, referenceReplay(g, tbl, &placement{plan, c}))
	}
}
