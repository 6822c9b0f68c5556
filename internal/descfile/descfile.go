// Package descfile parses vTrain's input description file (step 1 of
// Fig. 4): a JSON document naming the target LLM, the training system
// configuration, and the parallelization strategy to evaluate.
//
// Model and cluster sections accept either a preset name (the paper's
// catalog) or explicit hyperparameters:
//
// The cluster section defaults to the paper's A100 testbed; "offering"
// selects any hardware-catalog entry (hw.Catalog) instead:
//
//	{
//	  "model":  {"preset": "mt-nlg-530b"},
//	  "cluster":{"nodes": 280, "offering": "a100-sxm-80gb"},
//	  "plan":   {"tensor": 8, "data": 8, "pipeline": 35,
//	             "micro_batch": 1, "global_batch": 1920,
//	             "schedule": "1f1b", "gradient_buckets": 2,
//	             "recompute": true},
//	  "total_tokens": 270000000000
//	}
package descfile

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/resilience"
)

// Description is the parsed input file.
type Description struct {
	Model       ModelSection   `json:"model"`
	Cluster     ClusterSection `json:"cluster"`
	Plan        PlanSection    `json:"plan"`
	TotalTokens uint64         `json:"total_tokens"`
}

// ModelSection selects the target LLM.
type ModelSection struct {
	Preset string `json:"preset"`
	Name   string `json:"name"`
	Hidden int    `json:"hidden"`
	Layers int    `json:"layers"`
	SeqLen int    `json:"seq_len"`
	Heads  int    `json:"heads"`
	Vocab  int    `json:"vocab"`
}

// ClusterSection selects the training system.
type ClusterSection struct {
	Nodes int `json:"nodes"`
	// Offering names a hardware-catalog offering (see hw.Catalog) to
	// materialize instead of the paper's default A100 testbed.
	Offering string `json:"offering"`
	// Alpha overrides the bandwidth-effectiveness factor when nonzero.
	Alpha float64 `json:"alpha"`
	// DollarsPerGPUHour overrides pricing when nonzero.
	DollarsPerGPUHour float64 `json:"dollars_per_gpu_hour"`
	// Resilience overrides the failure/checkpoint-restart environment
	// (catalog-pinned per GPU generation by default) or disables
	// resilience modeling for this run.
	Resilience *ResilienceSection `json:"resilience"`
}

// ResilienceSection tunes goodput modeling (see internal/resilience). A
// missing section means "model resilience with the cluster's catalog
// defaults"; "disabled": true turns the modeling off entirely.
type ResilienceSection struct {
	// Disabled turns off failure/checkpoint-restart modeling.
	Disabled bool `json:"disabled"`
	// MTBFHours overrides the per-GPU mean time between failures, in
	// hours, when positive.
	MTBFHours float64 `json:"mtbf_hours"`
	// CheckpointBandwidthGBs overrides the aggregate checkpoint-storage
	// write bandwidth, in GB/s, when positive.
	CheckpointBandwidthGBs float64 `json:"checkpoint_bandwidth_gbs"`
	// RestartSeconds overrides the failure-recovery latency when
	// positive.
	RestartSeconds float64 `json:"restart_seconds"`
}

// Validate reports an error for meaningless override values.
func (r *ResilienceSection) Validate() error {
	if r == nil {
		return nil
	}
	if r.MTBFHours < 0 {
		return fmt.Errorf("descfile: resilience.mtbf_hours must be non-negative, got %v", r.MTBFHours)
	}
	if r.CheckpointBandwidthGBs < 0 {
		return fmt.Errorf("descfile: resilience.checkpoint_bandwidth_gbs must be non-negative, got %v", r.CheckpointBandwidthGBs)
	}
	if r.RestartSeconds < 0 {
		return fmt.Errorf("descfile: resilience.restart_seconds must be non-negative, got %v", r.RestartSeconds)
	}
	return nil
}

// PlanSection selects the 3D-parallel plan.
type PlanSection struct {
	Tensor          int    `json:"tensor"`
	Data            int    `json:"data"`
	Pipeline        int    `json:"pipeline"`
	MicroBatch      int    `json:"micro_batch"`
	GlobalBatch     int    `json:"global_batch"`
	Schedule        string `json:"schedule"`
	GradientBuckets int    `json:"gradient_buckets"`
	Recompute       bool   `json:"recompute"`
	VirtualStages   int    `json:"virtual_stages"`
}

// presets maps preset names to catalog models.
var presets = map[string]func() model.Config{
	"gpt3-175b":      model.GPT3175B,
	"mt-nlg-530b":    model.MTNLG530B,
	"megatron-3.6b":  model.Megatron3_6B,
	"megatron-18.4b": model.Megatron18_4B,
	"megatron-39.1b": model.Megatron39_1B,
	"megatron-81.2b": model.Megatron81_2B,
}

// Presets lists the accepted model preset names.
func Presets() []string {
	out := make([]string, 0, len(presets))
	for k := range presets {
		out = append(out, k)
	}
	return out
}

// LookupModel resolves a preset name (case-insensitive).
func LookupModel(preset string) (model.Config, error) {
	f, ok := presets[strings.ToLower(preset)]
	if !ok {
		return model.Config{}, fmt.Errorf("descfile: unknown model preset %q (have %v)", preset, Presets())
	}
	return f(), nil
}

// Parse reads a description from r.
func Parse(r io.Reader) (Description, error) {
	var d Description
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return Description{}, fmt.Errorf("descfile: %w", err)
	}
	return d, nil
}

// Load reads a description file from disk.
func Load(path string) (Description, error) {
	f, err := os.Open(path)
	if err != nil {
		return Description{}, fmt.Errorf("descfile: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// Resolve converts the model section into a validated model configuration:
// the preset when named, the explicit hyperparameters otherwise.
func (s ModelSection) Resolve() (model.Config, error) {
	var m model.Config
	if s.Preset != "" {
		var err error
		if m, err = LookupModel(s.Preset); err != nil {
			return model.Config{}, err
		}
	} else {
		m = model.Config{
			Name:   s.Name,
			Hidden: s.Hidden, Layers: s.Layers,
			SeqLen: s.SeqLen, Heads: s.Heads, Vocab: s.Vocab,
		}
		if m.Name == "" {
			m.Name = "custom"
		}
	}
	if err := m.Validate(); err != nil {
		return model.Config{}, err
	}
	return m, nil
}

// Resolve materializes the cluster section: the paper's A100 testbed by
// default, any hardware-catalog offering when named, with the alpha and
// pricing overrides applied and the resilience overrides validated.
func (s ClusterSection) Resolve() (hw.Cluster, error) {
	if s.Nodes <= 0 {
		return hw.Cluster{}, fmt.Errorf("descfile: cluster.nodes must be positive")
	}
	c := hw.PaperCluster(s.Nodes)
	if s.Offering != "" {
		off, err := hw.LookupOffering(s.Offering)
		if err != nil {
			return hw.Cluster{}, fmt.Errorf("descfile: %w", err)
		}
		c = off.Cluster(s.Nodes)
	}
	if s.Alpha > 0 {
		c.Alpha = s.Alpha
	}
	if s.DollarsPerGPUHour > 0 {
		c.DollarsPerGPUHour = s.DollarsPerGPUHour
	}
	if err := s.Resilience.Validate(); err != nil {
		return hw.Cluster{}, err
	}
	return c, nil
}

// Resolve converts the plan section into a 3D-parallel plan validated, as
// the simulator validates it, against the model and cluster it will
// simulate on.
func (s PlanSection) Resolve(m model.Config, c hw.Cluster) (parallel.Plan, error) {
	sched := parallel.OneFOneB
	switch strings.ToLower(s.Schedule) {
	case "", "1f1b":
	case "gpipe":
		sched = parallel.GPipe
	default:
		return parallel.Plan{}, fmt.Errorf("descfile: unknown schedule %q (want 1f1b or gpipe)", s.Schedule)
	}
	plan := parallel.Plan{
		Tensor: s.Tensor, Data: s.Data, Pipeline: s.Pipeline,
		MicroBatch: s.MicroBatch, GlobalBatch: s.GlobalBatch,
		Schedule: sched, GradientBuckets: s.GradientBuckets,
		Recompute: s.Recompute, VirtualStages: s.VirtualStages,
	}
	if err := opgraph.Validate(m, plan, c); err != nil {
		return parallel.Plan{}, err
	}
	return plan, nil
}

// Resolve converts the parsed description into simulator inputs.
func (d Description) Resolve() (model.Config, parallel.Plan, hw.Cluster, error) {
	m, err := d.Model.Resolve()
	if err != nil {
		return model.Config{}, parallel.Plan{}, hw.Cluster{}, err
	}
	c, err := d.Cluster.Resolve()
	if err != nil {
		return model.Config{}, parallel.Plan{}, hw.Cluster{}, err
	}
	plan, err := d.Plan.Resolve(m, c)
	if err != nil {
		return model.Config{}, parallel.Plan{}, hw.Cluster{}, err
	}
	return m, plan, c, nil
}

// Options converts the resilience section into the overrides
// internal/resilience consumes. enabled is false when the section sets
// "disabled": true; a nil section enables modeling with the cluster's
// catalog defaults.
func (r *ResilienceSection) Options() (o resilience.Options, enabled bool) {
	if r == nil {
		return resilience.Options{}, true
	}
	if r.Disabled {
		return resilience.Options{}, false
	}
	return resilience.Options{
		MTBF:           r.MTBFHours * 3600,
		WriteBandwidth: r.CheckpointBandwidthGBs * 1e9,
		Restart:        r.RestartSeconds,
	}, true
}

// ResilienceOptions converts the description's resilience section into the
// overrides internal/resilience consumes. enabled is false when the
// section sets "disabled": true; a missing section enables modeling with
// the cluster's catalog defaults.
func (d Description) ResilienceOptions() (o resilience.Options, enabled bool) {
	return d.Cluster.Resilience.Options()
}
