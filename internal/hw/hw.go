// Package hw describes the hardware substrate vTrain simulates against:
// GPU devices, multi-GPU server nodes, and multi-node clusters.
//
// The paper's testbed is an NVIDIA A100-based system: 8-GPU DGX-style nodes
// connected internally by NVLink/NVSwitch and externally by four 200 Gbps
// InfiniBand HCAs arranged in a two-level non-blocking fat tree. All of those
// machines are modeled here as plain data: the kernel-level timing model in
// internal/gpu and the collective-communication models in internal/comm
// consume these descriptions.
//
// Beyond the paper's single testbed, catalog.go holds a catalog of
// datasheet-pinned GPU generations, node types, interconnect tiers, and
// rental prices, so cluster-design exploration (internal/clusterdse) can
// sweep the hardware axis the paper's Table II compares by hand.
package hw

import (
	"fmt"
	"math"
)

// Arch identifies a GPU micro-architecture generation. The analytical
// kernel model in internal/gpu keys its empirical efficiency knobs (tensor
// core efficiency ceiling, CTA tile shape, achievable memory bandwidth
// fraction) on it; the zero value is treated as Ampere, the paper's
// generation.
type Arch string

const (
	// Volta is the V100 generation (1st-gen tensor cores, HBM2, NVLink 2).
	Volta Arch = "volta"
	// Ampere is the A100 generation the paper profiles on.
	Ampere Arch = "ampere"
	// Hopper is the H100 generation (4th-gen tensor cores, HBM3, NVLink 4).
	Hopper Arch = "hopper"
)

// GPU describes a single accelerator device. Times derived from a GPU are
// functions of these published datasheet numbers plus the empirical
// efficiency factors in internal/gpu.
type GPU struct {
	// Name is the marketing name, e.g. "A100-SXM4-80GB".
	Name string
	// Arch is the micro-architecture generation; it selects the
	// generation-dependent efficiency knobs in internal/gpu. Empty means
	// Ampere.
	Arch Arch
	// PeakTensorFLOPS is the peak dense FP16 tensor-core throughput in
	// FLOP/s (for the A100: 312e12).
	PeakTensorFLOPS float64
	// PeakVectorFLOPS is the peak non-tensor-core FP32 throughput in
	// FLOP/s, used by element-wise kernels (A100: 19.5e12).
	PeakVectorFLOPS float64
	// MemBandwidth is HBM bandwidth in bytes/s (A100 80GB: ~2.0e12).
	MemBandwidth float64
	// MemCapacity is device memory in bytes.
	MemCapacity uint64
	// SMCount is the number of streaming multiprocessors; it drives wave
	// quantization in the GEMM model (A100: 108).
	SMCount int
	// KernelLaunchOverhead is the fixed host-side cost of launching one
	// kernel, in seconds (~4 microseconds on a busy training node).
	KernelLaunchOverhead float64
	// MTBF is the per-device mean time between failures in seconds,
	// catalog-pinned per generation from published large-scale training
	// failure rates; internal/resilience divides it by the cluster's GPU
	// count to price failures and checkpoint-restart into training cost.
	// Zero means "unknown" — resilience modeling then needs an explicit
	// override.
	MTBF float64
}

// Node is a multi-GPU server.
type Node struct {
	// GPU is the device type installed; nodes are homogeneous.
	GPU GPU
	// GPUsPerNode is the device count (8 for DGX A100).
	GPUsPerNode int
	// NVLinkBandwidth is the per-GPU intra-node interconnect bandwidth in
	// bytes/s usable by collectives (A100 NVSwitch: 300 GB/s per
	// direction; NCCL ring all-reduce achieves ~230-250 GB/s bus
	// bandwidth, which the comm profile table captures).
	NVLinkBandwidth float64
	// NVLinkLatency is the per-hop latency of the intra-node fabric in
	// seconds (a few microseconds including NCCL kernel launch).
	NVLinkLatency float64
}

// Cluster is a multi-node training system.
type Cluster struct {
	Node Node
	// NodeCount is the number of server nodes.
	NodeCount int
	// InterNodeBandwidth is the aggregate per-node network bandwidth in
	// bytes/s (paper: 4 x 200 Gbps HDR InfiniBand = 100 GB/s).
	InterNodeBandwidth float64
	// InterNodeLatency is the base latency of an inter-node transfer in
	// seconds.
	InterNodeLatency float64
	// Alpha is the bandwidth-effectiveness factor from Eq. 1; the paper
	// sweeps 0.1..1.0 and settles on 1.0 for its fat-tree testbed.
	Alpha float64
	// DollarsPerGPUHour prices rented GPU time. The paper uses AWS EC2
	// P4d as the proxy: Table I shows 2,240 GPUs at $11,200/hour, i.e.
	// $5 per GPU-hour.
	DollarsPerGPUHour float64
	// CheckpointBandwidth is the aggregate bytes/s the cluster sustains
	// writing training checkpoints to persistent storage (parallel
	// filesystem or object store). internal/resilience derives the
	// Young–Daly checkpoint interval from it. Zero means "unknown" —
	// resilience modeling then needs an explicit override.
	CheckpointBandwidth float64

	// The three fields below describe the cluster's network as a two-level
	// fat tree — node-local NVSwitch fabrics under leaf switches under a
	// spine layer — which the contention fidelity level (see internal/comm
	// and taskgraph.BindContention) derates concurrent collectives on.
	// All three are plain comparable scalars whose zero value means
	// "unknown, use defaults", so existing cluster literals (and the
	// struct-equality map keys the serving layer builds from Cluster)
	// keep working unchanged.

	// NetworkLinks is the number of inter-node links (HCAs) per node that
	// make up InterNodeBandwidth — the paper's testbed has 4 x 200 Gbps
	// HDR HCAs per node. Zero is treated as one aggregated link.
	NetworkLinks int
	// NodesPerLeaf is the number of nodes attached to one leaf switch of
	// the fat tree. Zero means the whole cluster hangs off a single leaf
	// and no transfer crosses the spine.
	NodesPerLeaf int
	// Oversubscription is the leaf-to-spine oversubscription ratio:
	// 1 is non-blocking (the paper's testbed), 2 means leaf uplink
	// bandwidth is half the downlink. Zero is treated as 1 (non-blocking).
	Oversubscription float64
}

// DefaultNodesPerLeaf is the leaf-switch radix the catalog assumes: a
// 40-port switch split half down, half up — 20 nodes per leaf, the DGX
// reference fat-tree building block.
const DefaultNodesPerLeaf = 20

// TotalGPUs returns the number of GPUs in the cluster.
func (c Cluster) TotalGPUs() int { return c.NodeCount * c.Node.GPUsPerNode }

// Validate reports an error for physically meaningless descriptions. Every
// float field it checks rejects NaN, and none accepts +Inf, which would
// price a transfer, a failure, or a dollar at zero or at NaN:
//
//   - the GPU's PeakTensorFLOPS and MemBandwidth are positive and finite;
//   - InterNodeBandwidth is non-negative and finite, and positive on more
//     than one node;
//   - Alpha lies in (0, 1];
//   - DollarsPerGPUHour, CheckpointBandwidth, the GPU's MTBF, and
//     Oversubscription are non-negative and finite (zero means free,
//     unknown, unknown, and non-blocking).
func (c Cluster) Validate() error {
	if c.NodeCount <= 0 {
		return fmt.Errorf("hw: cluster needs at least one node, got %d", c.NodeCount)
	}
	if c.Node.GPUsPerNode <= 0 {
		return fmt.Errorf("hw: node needs at least one GPU, got %d", c.Node.GPUsPerNode)
	}
	if c.NodeCount > math.MaxInt/c.Node.GPUsPerNode {
		return fmt.Errorf("hw: %d nodes of %d GPUs overflow the GPU count", c.NodeCount, c.Node.GPUsPerNode)
	}
	if !positive(c.Node.GPU.PeakTensorFLOPS) || !positive(c.Node.GPU.MemBandwidth) {
		return fmt.Errorf("hw: GPU %q needs positive, finite peak throughput, got %v FLOP/s and %v B/s",
			c.Node.GPU.Name, c.Node.GPU.PeakTensorFLOPS, c.Node.GPU.MemBandwidth)
	}
	if c.Node.GPU.MemCapacity == 0 {
		return fmt.Errorf("hw: GPU %q has zero memory capacity", c.Node.GPU.Name)
	}
	if !nonNegative(c.InterNodeBandwidth) {
		return fmt.Errorf("hw: inter-node bandwidth must be non-negative and finite, got %v", c.InterNodeBandwidth)
	}
	if c.InterNodeBandwidth == 0 && c.NodeCount > 1 {
		return fmt.Errorf("hw: multi-node cluster needs inter-node bandwidth")
	}
	if !(c.Alpha > 0 && c.Alpha <= 1) {
		return fmt.Errorf("hw: bandwidth effectiveness factor alpha must be in (0,1], got %v", c.Alpha)
	}
	if !nonNegative(c.DollarsPerGPUHour) {
		return fmt.Errorf("hw: GPU-hour price must be non-negative and finite, got %v", c.DollarsPerGPUHour)
	}
	if !nonNegative(c.Node.GPU.MTBF) {
		return fmt.Errorf("hw: GPU %q needs a non-negative, finite MTBF, got %v", c.Node.GPU.Name, c.Node.GPU.MTBF)
	}
	if !nonNegative(c.CheckpointBandwidth) {
		return fmt.Errorf("hw: checkpoint write bandwidth must be non-negative and finite, got %v", c.CheckpointBandwidth)
	}
	if c.NetworkLinks < 0 {
		return fmt.Errorf("hw: negative per-node network link count %d", c.NetworkLinks)
	}
	if c.NodesPerLeaf < 0 {
		return fmt.Errorf("hw: negative nodes-per-leaf count %d", c.NodesPerLeaf)
	}
	if !nonNegative(c.Oversubscription) {
		return fmt.Errorf("hw: fat-tree oversubscription ratio must be non-negative and finite, got %v", c.Oversubscription)
	}
	return nil
}

// positive reports whether v is finite and above zero. NaN fails every
// comparison, so it is neither positive nor non-negative.
func positive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// nonNegative reports whether v is finite and at least zero.
func nonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// A100SXM80GB returns the datasheet description of the paper's GPU.
func A100SXM80GB() GPU {
	return GPU{
		Name:                 "A100-SXM4-80GB",
		Arch:                 Ampere,
		PeakTensorFLOPS:      312e12,
		PeakVectorFLOPS:      19.5e12,
		MemBandwidth:         2.0e12,
		MemCapacity:          80 << 30,
		SMCount:              108,
		KernelLaunchOverhead: 4e-6,
		MTBF:                 AmpereMTBF,
	}
}

// DGXA100 returns an 8-GPU NVSwitch node matching the paper's testbed.
func DGXA100() Node {
	return Node{
		GPU:             A100SXM80GB(),
		GPUsPerNode:     8,
		NVLinkBandwidth: 240e9, // achievable NCCL bus bandwidth
		NVLinkLatency:   8e-6,
	}
}

// PaperCluster returns an n-node cluster matching Section IV's testbed:
// DGX A100 nodes, 4 x 200 Gbps HDR InfiniBand per node in a two-level
// non-blocking fat tree, alpha = 1.0, $5/GPU-hour, with the A100-era
// checkpoint storage defaults of the catalog.
func PaperCluster(nodes int) Cluster {
	return Cluster{
		Node:                DGXA100(),
		NodeCount:           nodes,
		InterNodeBandwidth:  100e9, // 800 Gbps
		InterNodeLatency:    12e-6,
		Alpha:               1.0,
		DollarsPerGPUHour:   5.0,
		CheckpointBandwidth: AmpereCheckpointBandwidth,
		NetworkLinks:        4, // 4 x 200 Gbps HDR HCAs per node
		NodesPerLeaf:        DefaultNodesPerLeaf,
		Oversubscription:    1.0, // non-blocking fat tree
	}
}
