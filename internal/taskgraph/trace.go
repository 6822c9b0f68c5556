package taskgraph

import (
	"encoding/json"
	"fmt"
	"io"
)

// Span is one executed task on the simulated timeline.
type Span struct {
	// Device and Stream locate the resource.
	Device int
	Stream Stream
	// Start and End are simulation seconds.
	Start, End float64
	// Label is the task's human-readable tag.
	Label string
}

// ReplayTrace is Replay plus the full execution timeline, naming span id
// labels[id]. TraceLabels gives the labels of any graph of a plan's shape;
// nil labels name every span "", and a slice of another length than the
// graph's task count is an error. Under contention, span durations reflect
// the derated comm tasks.
func (g *Graph) ReplayTrace(tbl *DurationTable, ct *ContentionTable, labels []string) (Result, []Span, error) {
	switch {
	case labels == nil:
		labels = make([]string, g.NumTasks())
	case len(labels) != g.NumTasks():
		return Result{}, nil, fmt.Errorf("taskgraph: %d trace labels for a %d-task graph", len(labels), g.NumTasks())
	}
	return g.replayOne(tbl, ct, labels)
}

// chromeEvent is one Chrome trace-event-format record ("X" complete event).
type chromeEvent struct {
	Name     string  `json:"name"`
	Phase    string  `json:"ph"`
	TSMicros float64 `json:"ts"`
	DurMicro float64 `json:"dur"`
	PID      int     `json:"pid"`
	TID      int     `json:"tid"`
}

// WriteChromeTrace writes the timeline in Chrome's trace-event format
// (load via chrome://tracing or Perfetto): one process per simulated
// device, thread 0 = compute stream, thread 1 = communication stream.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name:     s.Label,
			Phase:    "X",
			TSMicros: s.Start * 1e6,
			DurMicro: (s.End - s.Start) * 1e6,
			PID:      s.Device,
			TID:      int(s.Stream),
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events}); err != nil {
		return fmt.Errorf("taskgraph: writing chrome trace: %w", err)
	}
	return nil
}
