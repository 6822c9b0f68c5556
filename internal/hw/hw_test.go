package hw

import (
	"fmt"
	"math"
	"testing"
)

func TestPaperClusterShape(t *testing.T) {
	c := PaperCluster(64)
	if got, want := c.TotalGPUs(), 512; got != want {
		t.Fatalf("TotalGPUs = %d, want %d (Section IV multi-node testbed)", got, want)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// 4 x 200 Gbps HDR InfiniBand = 100 GB/s.
	if c.InterNodeBandwidth != 100e9 {
		t.Fatalf("InterNodeBandwidth = %g, want 100e9", c.InterNodeBandwidth)
	}
	// Table I pricing: 2,240 GPUs at $11,200/hour => $5/GPU-hour.
	if c.DollarsPerGPUHour != 5.0 {
		t.Fatalf("DollarsPerGPUHour = %v, want 5.0", c.DollarsPerGPUHour)
	}
}

func TestA100Datasheet(t *testing.T) {
	g := A100SXM80GB()
	if g.PeakTensorFLOPS != 312e12 {
		t.Errorf("PeakTensorFLOPS = %g, want 312e12", g.PeakTensorFLOPS)
	}
	if g.MemCapacity != 80<<30 {
		t.Errorf("MemCapacity = %d, want 80 GiB", g.MemCapacity)
	}
	if g.SMCount != 108 {
		t.Errorf("SMCount = %d, want 108", g.SMCount)
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Cluster)
	}{
		{"zero nodes", func(c *Cluster) { c.NodeCount = 0 }},
		{"zero gpus per node", func(c *Cluster) { c.Node.GPUsPerNode = 0 }},
		{"zero peak flops", func(c *Cluster) { c.Node.GPU.PeakTensorFLOPS = 0 }},
		{"zero memory", func(c *Cluster) { c.Node.GPU.MemCapacity = 0 }},
		{"zero inter-node bw multi-node", func(c *Cluster) { c.InterNodeBandwidth = 0 }},
		{"alpha zero", func(c *Cluster) { c.Alpha = 0 }},
		{"alpha above one", func(c *Cluster) { c.Alpha = 1.5 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := PaperCluster(4)
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}

// TestValidateRejectsNonFinite: every float field Validate range-checks
// rejects NaN, which slips past a plain "< 0" check, and +Inf, which is no
// physical value for any of them (an infinite spine oversubscription, for
// one, makes the contention derate NaN).
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		at   func(*Cluster) *float64
	}{
		{"peak flops", func(c *Cluster) *float64 { return &c.Node.GPU.PeakTensorFLOPS }},
		{"memory bandwidth", func(c *Cluster) *float64 { return &c.Node.GPU.MemBandwidth }},
		{"mtbf", func(c *Cluster) *float64 { return &c.Node.GPU.MTBF }},
		{"inter-node bandwidth", func(c *Cluster) *float64 { return &c.InterNodeBandwidth }},
		{"alpha", func(c *Cluster) *float64 { return &c.Alpha }},
		{"gpu-hour price", func(c *Cluster) *float64 { return &c.DollarsPerGPUHour }},
		{"checkpoint bandwidth", func(c *Cluster) *float64 { return &c.CheckpointBandwidth }},
		{"oversubscription", func(c *Cluster) *float64 { return &c.Oversubscription }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1)} {
			t.Run(fmt.Sprintf("%s=%v", f.name, v), func(t *testing.T) {
				c := PaperCluster(4)
				c.NodesPerLeaf = 1
				*f.at(&c) = v
				if err := c.Validate(); err == nil {
					t.Fatal("Validate() = nil, want error")
				}
			})
		}
	}
}

// TestValidateGPUCountBoundary: the largest node count whose GPU count fits
// an int validates, and one more node is rejected rather than wrapping (on
// 64-bit hosts, 2^61+1 nodes of 8 GPUs would otherwise count 8 GPUs).
func TestValidateGPUCountBoundary(t *testing.T) {
	c := PaperCluster(1)
	gpn := c.Node.GPUsPerNode
	c.NodeCount = math.MaxInt / gpn
	if err := c.Validate(); err != nil {
		t.Fatalf("%d nodes of %d GPUs: %v", c.NodeCount, gpn, err)
	}
	if got, want := c.TotalGPUs()/gpn, c.NodeCount; got != want {
		t.Fatalf("TotalGPUs()/%d = %d, want %d", gpn, got, want)
	}
	c.NodeCount++
	if err := c.Validate(); err == nil {
		t.Fatalf("%d nodes of %d GPUs validated, but their GPU count overflows", c.NodeCount, gpn)
	}
}

func TestSingleNodeNeedsNoInterconnect(t *testing.T) {
	c := PaperCluster(1)
	c.InterNodeBandwidth = 0
	if err := c.Validate(); err != nil {
		t.Fatalf("single-node cluster should not require inter-node bandwidth: %v", err)
	}
}
