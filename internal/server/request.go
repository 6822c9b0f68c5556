// Package server is vTrain's serving layer: simulation-as-a-service with
// warm shared caches. It has two halves:
//
//   - Engine is the transport-independent entry point. It owns one
//     simulator tree: a root whose structural cache and GPU profilers
//     persist across requests, and a bounded pool of its ForCluster
//     siblings with their report caches, so concurrent users on any cluster
//     and fidelity concentrate onto shared lowered graphs (the single-flight
//     machinery dedupes identical in-flight work). The CLIs (cmd/vtrain,
//     cmd/vtrain-dse, cmd/vtrain-clusterdse) are thin clients of the same
//     Engine methods the HTTP handlers call, so the server path and the
//     CLI path cannot drift.
//
//   - Server wraps an Engine in a long-lived HTTP+JSON service:
//     POST /v1/simulate, /v1/sweep, /v1/clusterdse with descfile-shaped
//     request bodies, GET /healthz and /metrics, NDJSON streaming for
//     sweeps, bounded in-flight sweeps, and graceful shutdown.
//
// Request bodies reuse internal/descfile's sections verbatim: a file that
// `vtrain -f` accepts is, unchanged, a valid /v1/simulate body.
package server

import (
	"fmt"

	"vtrain/internal/core"
	"vtrain/internal/cost"
	"vtrain/internal/descfile"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/taskgraph"
)

// SimulateRequest is the /v1/simulate body: exactly a descfile description
// (model + cluster + plan + total_tokens) plus the simulation fidelity.
// Any file cmd/vtrain accepts is a valid request.
type SimulateRequest struct {
	descfile.Description
	// Fidelity selects the lowering granularity: "task" (default) or
	// "operator".
	Fidelity string `json:"fidelity,omitempty"`
	// Contention enables the topology-aware congestion fidelity level:
	// comm tasks sharing fat-tree links with concurrently in-flight ones
	// are derated (see core.WithContention). Off by default.
	Contention bool `json:"contention,omitempty"`
}

// SweepRequest is the /v1/sweep body: the descfile model and cluster
// sections plus the plan-space controls of dse.Space. Empty axis slices
// take the dse.DefaultSpace values for the model and batch.
type SweepRequest struct {
	Model       descfile.ModelSection   `json:"model"`
	Cluster     descfile.ClusterSection `json:"cluster"`
	GlobalBatch int                     `json:"global_batch"`
	// TotalTokens, when positive, adds the end-to-end cost projection to
	// every streamed point.
	TotalTokens uint64 `json:"total_tokens,omitempty"`
	// Fidelity defaults to "operator", the sweep-speed granularity the
	// CLIs use.
	Fidelity string `json:"fidelity,omitempty"`
	// Contention enables topology-aware congestion modeling on every
	// swept point. Off by default.
	Contention bool `json:"contention,omitempty"`
	// TensorWidths .. MicroBatches override the swept plan axes.
	TensorWidths   []int `json:"tensor_widths,omitempty"`
	DataWidths     []int `json:"data_widths,omitempty"`
	PipelineDepths []int `json:"pipeline_depths,omitempty"`
	MicroBatches   []int `json:"micro_batches,omitempty"`
	// MaxGPUs, when positive, caps t*d*p.
	MaxGPUs int `json:"max_gpus,omitempty"`
	// MaxMicroBatches caps the per-pipeline micro-batch count
	// (default 512, matching the CLI sweeps).
	MaxMicroBatches int `json:"max_micro_batches,omitempty"`
}

// ClusterDSERequest is the /v1/clusterdse body: the descfile model and
// resilience sections plus the hardware axes of clusterdse.Space.
type ClusterDSERequest struct {
	Model       descfile.ModelSection `json:"model"`
	GlobalBatch int                   `json:"global_batch"`
	// TotalTokens prices every candidate's full training run; required.
	TotalTokens uint64 `json:"total_tokens"`
	// NodeCounts are the cluster sizes to provision, in nodes; required.
	NodeCounts []int `json:"node_counts"`
	// Offerings names hardware-catalog offerings; empty means the whole
	// catalog.
	Offerings []string `json:"offerings,omitempty"`
	// CrossInterconnects additionally tries every node type with every
	// interconnect tier.
	CrossInterconnects bool `json:"cross_interconnects,omitempty"`
	// Resilience is the descfile resilience section: nil models failures
	// with catalog defaults, "disabled": true ranks by ideal cost.
	Resilience *descfile.ResilienceSection `json:"resilience,omitempty"`
	// Fidelity defaults to "operator".
	Fidelity string `json:"fidelity,omitempty"`
	// Contention enables topology-aware congestion modeling on every
	// candidate's sibling simulator (clusterdse.Space.Contention). Off by
	// default.
	Contention bool `json:"contention,omitempty"`
	// TensorWidths .. MicroBatches override the swept plan axes.
	TensorWidths   []int `json:"tensor_widths,omitempty"`
	DataWidths     []int `json:"data_widths,omitempty"`
	PipelineDepths []int `json:"pipeline_depths,omitempty"`
	MicroBatches   []int `json:"micro_batches,omitempty"`
	// MaxMicroBatches caps the per-pipeline micro-batch count
	// (default 512).
	MaxMicroBatches int `json:"max_micro_batches,omitempty"`
}

// SimulateResult is the wire shape of one simulation: the exact JSON
// cmd/vtrain -json prints, so a /v1/simulate response body and the CLI
// output for the same descfile are byte-identical (equivalence-locked by
// the cmd/vtrain golden tests).
type SimulateResult struct {
	Model         string           `json:"model"`
	Plan          string           `json:"plan"`
	GPUs          int              `json:"gpus"`
	IterTime      float64          `json:"iteration_time_s"`
	Utilization   float64          `json:"gpu_utilization"`
	PeakMemoryGiB float64          `json:"peak_memory_gib"`
	FitsMemory    bool             `json:"fits_memory"`
	Tasks         int              `json:"tasks"`
	Training      *cost.Training   `json:"training,omitempty"`
	Resilience    *cost.Resilience `json:"resilience,omitempty"`
}

// SimulateOutcome is the domain-typed result of Engine.Simulate, carrying
// everything the human-readable CLI output needs; Result projects it onto
// the wire shape.
type SimulateOutcome struct {
	Model      model.Config
	Plan       parallel.Plan
	Cluster    hw.Cluster
	Report     core.Report
	Training   *cost.Training
	Resilience *cost.Resilience
}

// Result projects the outcome onto the wire/JSON shape.
func (o SimulateOutcome) Result() SimulateResult {
	return SimulateResult{
		Model: o.Model.String(), Plan: o.Plan.String(), GPUs: o.Plan.GPUs(),
		IterTime: o.Report.IterTime, Utilization: o.Report.Utilization,
		PeakMemoryGiB: float64(o.Report.PeakMemoryBytes) / (1 << 30),
		FitsMemory:    o.Report.FitsMemory, Tasks: o.Report.Tasks,
		Training: o.Training, Resilience: o.Resilience,
	}
}

// SweepSummary closes a /v1/sweep stream: how many points streamed and the
// cumulative cache counters of the engine's simulator tree, which other
// clusters' and fidelities' requests also move. The counters are cumulative
// across the server's lifetime on purpose — warm-cache concentration
// across requests is the service's value, and the rising hit rate is how
// operators observe it. In a one-shot CLI process cumulative equals
// per-request.
type SweepSummary struct {
	Points  int
	Cluster hw.Cluster
	Cache   core.CacheStats
}

// ClusterSummary closes a /v1/clusterdse stream.
type ClusterSummary struct {
	Points int
	// Candidates is offerings x node counts, the hardware grid size.
	Candidates int
	// Resilience reports whether failure pricing was applied.
	Resilience bool
	Cache      core.CacheStats
}

// BadRequestError marks an error as the client's fault — a malformed or
// unresolvable request — so the HTTP layer maps it to a 400 rather than a
// 500. Engine methods wrap every request-resolution failure in one.
type BadRequestError struct{ Err error }

// Error implements error.
func (e *BadRequestError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *BadRequestError) Unwrap() error { return e.Err }

func badRequest(err error) error {
	if err == nil {
		return nil
	}
	return &BadRequestError{Err: err}
}

// ParseFidelity maps the wire fidelity names onto taskgraph levels. The
// empty string resolves to def: "task" for one-shot simulation, "operator"
// for sweeps (matching the CLI defaults).
func ParseFidelity(s string, def taskgraph.Fidelity) (taskgraph.Fidelity, error) {
	switch s {
	case "":
		return def, nil
	case "task":
		return taskgraph.TaskLevel, nil
	case "operator":
		return taskgraph.OperatorLevel, nil
	default:
		return 0, fmt.Errorf("server: unknown fidelity %q (want task or operator)", s)
	}
}
