package taskgraph

import (
	"encoding/json"
	"fmt"
	"io"

	"vtrain/internal/opgraph"
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

// ReplayTrace is Replay plus the full execution timeline. Span labels
// compose from og, the operator graph the trace renders: each task takes
// its source operator's label, qualified at task granularity by the kernel
// name the table bound, so kernel names reflect the bound plan's tensor
// shapes exactly as a from-scratch lowering would. Any operator graph of
// the task graph's structural shape labels it identically; a nil og labels
// every span "". Under contention, span durations reflect the derated comm
// tasks. An og without a node for some task's source is an error.
func (g *Graph) ReplayTrace(tbl *DurationTable, ct *ContentionTable, og *opgraph.Graph) (Result, []Span, error) {
	for id := 0; og != nil && id < g.NumTasks(); id++ {
		if s := int(g.sources[id]); s < 0 || s >= og.NumNodes() {
			return Result{}, nil, fmt.Errorf("taskgraph: task %d's source operator %d is not in the %d-node operator graph", id, s, og.NumNodes())
		}
	}
	return g.replayOne(tbl, ct, func(id int) string { return tbl.taskLabel(g, og, id) })
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
