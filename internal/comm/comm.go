// Package comm models the communication primitives of 3D-parallel LLM
// training, mirroring Section III-D of the paper:
//
//   - intra-node collectives (tensor-parallel All-Reduce over
//     NVLink/NVSwitch) use a *profiled* latency table: vTrain measures NCCL
//     All-Reduce across data sizes (1 MB .. 1024 MB) and GPU counts, then
//     interpolates. Our profile is collected from a simulated NVSwitch
//     fabric (the CUDA-free substitute), but the lookup path is identical;
//   - inter-node collectives (data-parallel gradient All-Reduce) use the
//     NCCL analytical latency-bandwidth model of Eq. 1:
//     t = S/B · 2(n-1)/n with B = alpha·Bmax;
//   - pipeline Send-Receive uses a simple point-to-point transfer model;
//     as the paper notes, inter-stage latency is small and insensitive to
//     bandwidth.
//
// The model is generation-agnostic: every per-link quantity — NVLink-tier
// bandwidth and hop latency, per-HCA rate and link count — arrives through
// the hw.Node / hw.Cluster description, so the hardware catalog's V100,
// A100, and H100 fabrics (NVLink 2/NVSwitch/NVLink 4, EDR through NDR
// InfiniBand) each profile and price collectives with their own numbers
// (pinned by TestFabricGenerationsOrdered).
package comm

import (
	"fmt"
	"math"
	"sort"

	"vtrain/internal/hw"
)

// NVSwitchFabric simulates NCCL ring All-Reduce over an intra-node
// NVLink/NVSwitch fabric in an isolated environment (no contention): each of
// the 2(n-1) ring steps moves S/n bytes per GPU at the per-GPU link
// bandwidth and pays the per-step fabric latency plus one NCCL kernel
// launch.
type NVSwitchFabric struct {
	Node hw.Node
}

// AllReduce returns the wall-clock seconds of a ring All-Reduce of size
// bytes across n participants.
func (f NVSwitchFabric) AllReduce(bytes float64, n int) float64 {
	if n <= 1 {
		return 0
	}
	steps := float64(2 * (n - 1))
	transfer := bytes / float64(n) * steps / f.Node.NVLinkBandwidth
	latency := steps*f.Node.NVLinkLatency + f.Node.GPU.KernelLaunchOverhead
	return transfer + latency
}

// ProfilePoint is one measured (size, latency) sample.
type ProfilePoint struct {
	Bytes   float64
	Latency float64
}

// ProfileTable is the profiled intra-node collective latency table, indexed
// by participant count with size interpolation — vTrain's NCCL profile.
type ProfileTable struct {
	points map[int][]ProfilePoint // sorted by Bytes
}

// ProfileSizes returns the data sizes the paper profiles: 1 MB to 1024 MB
// in powers of two.
func ProfileSizes() []float64 {
	out := make([]float64, 0, 11)
	for s := 1 << 20; s <= 1<<30; s <<= 1 {
		out = append(out, float64(s))
	}
	return out
}

// Profile measures fabric across the given GPU counts and standard sizes,
// building the lookup table.
func Profile(fabric NVSwitchFabric, gpuCounts []int) *ProfileTable {
	t := &ProfileTable{points: make(map[int][]ProfilePoint)}
	for _, n := range gpuCounts {
		var pts []ProfilePoint
		for _, s := range ProfileSizes() {
			pts = append(pts, ProfilePoint{Bytes: s, Latency: fabric.AllReduce(s, n)})
		}
		t.points[n] = pts
	}
	return t
}

// Lookup interpolates the profiled latency for an All-Reduce of size bytes
// across n GPUs. Sizes outside the profiled range extrapolate linearly from
// the nearest segment, matching how vTrain applies its table.
func (t *ProfileTable) Lookup(bytes float64, n int) (float64, error) {
	pts, ok := t.points[n]
	if !ok || len(pts) < 2 {
		return 0, fmt.Errorf("comm: no profile for %d-GPU collective", n)
	}
	if bytes <= 0 {
		return 0, nil
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Bytes >= bytes })
	var lo, hi ProfilePoint
	switch {
	case i == 0:
		lo, hi = pts[0], pts[1]
	case i == len(pts):
		lo, hi = pts[len(pts)-2], pts[len(pts)-1]
	default:
		lo, hi = pts[i-1], pts[i]
	}
	frac := (bytes - lo.Bytes) / (hi.Bytes - lo.Bytes)
	lat := lo.Latency + frac*(hi.Latency-lo.Latency)
	return math.Max(lat, 0), nil
}

// Counts returns the profiled GPU counts, sorted.
func (t *ProfileTable) Counts() []int {
	out := make([]int, 0, len(t.points))
	for n := range t.points {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Model prices every communication operator vTrain inserts into the
// execution graph.
type Model struct {
	cluster hw.Cluster
	table   *ProfileTable
}

// NewModel profiles the cluster's intra-node fabric and returns the
// complete communication model.
func NewModel(c hw.Cluster) *Model {
	counts := []int{}
	for n := 2; n <= c.Node.GPUsPerNode; n *= 2 {
		counts = append(counts, n)
	}
	return &Model{
		cluster: c,
		table:   Profile(NVSwitchFabric{Node: c.Node}, counts),
	}
}

// AllReduceIntra returns the profiled latency of an intra-node All-Reduce
// (tensor parallelism) of size bytes across n GPUs.
func (m *Model) AllReduceIntra(bytes float64, n int) float64 {
	if n <= 1 {
		return 0
	}
	lat, err := m.table.Lookup(bytes, n)
	if err != nil {
		// Counts outside the profile (non power of two) fall back to
		// the fabric model directly, as a real deployment would
		// profile on demand.
		return NVSwitchFabric{Node: m.cluster.Node}.AllReduce(bytes, n)
	}
	return lat
}

// AllReduceInter returns the Eq. 1 analytical latency for an inter-node
// All-Reduce of size bytes across n participants:
//
//	t = S/B · 2(n-1)/n,  B = alpha · Bmax
//
// plus the base network latency per step.
func (m *Model) AllReduceInter(bytes float64, n int) float64 {
	if n <= 1 {
		return 0
	}
	b := m.cluster.Alpha * m.cluster.InterNodeBandwidth
	t := bytes / b * 2 * float64(n-1) / float64(n)
	return t + m.cluster.InterNodeLatency
}

// AllReduce dispatches on scope: collectives fully inside one node use the
// profiled table; anything crossing nodes uses the analytical model. A
// hierarchical collective (e.g. d-way data parallelism with several ranks
// per node) is dominated by its inter-node phase, which Eq. 1 captures.
func (m *Model) AllReduce(bytes float64, n int, intraNode bool) float64 {
	if intraNode {
		return m.AllReduceIntra(bytes, n)
	}
	return m.AllReduceInter(bytes, n)
}

// SendRecv returns the latency of a pipeline-parallel point-to-point
// activation transfer of size bytes.
func (m *Model) SendRecv(bytes float64, sameNode bool) float64 {
	if sameNode {
		return bytes/m.cluster.Node.NVLinkBandwidth + m.cluster.Node.NVLinkLatency
	}
	return bytes/(m.cluster.Alpha*m.cluster.InterNodeBandwidth) + m.cluster.InterNodeLatency
}
