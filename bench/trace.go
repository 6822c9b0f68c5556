package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"vtrain/bench/stat"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one traced pass share an op id, counting from 1;
// spans of a traced set-up have op 0.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int32  `json:"op"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer takes
// the same calls and records nothing, so running one driver with it on and
// off measures the tracing overhead.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int32 // stack of unfinished spans
	op    int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle for end; -1 when disabled.
func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Op: t.op})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned. Spans close in reverse order of
// opening: the driver runs on one goroutine.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, for the spans recorded since index from, each span
// name's total self time: its duration minus the part its child spans
// cover. The root's self time is the traced wall time no layer accounts for.
func (t *tracer) selfTimes(from int) map[string]time.Duration {
	self := make(map[string]time.Duration)
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d
		if s.Parent >= int32(from) {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// alternate runs pass with spans on and off in turn — at least once each,
// then until budget is spent — and returns the median of each per-layer
// value over the traced passes, plus trace.overhead_pct: how much longer
// the median traced pass took than the median untraced one. layers turns
// the spans a traced pass recorded from index from into per-layer values.
func alternate(budget time.Duration, tr *tracer, t *tally, pass func() (time.Duration, error), layers func(from int) map[string]float64) map[string]float64 {
	var on, off []float64
	per := make(map[string][]float64)
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < budget; i++ {
		// A failed pass may leave spans open; each pass starts a fresh stack.
		tr.on, tr.op, tr.open = i%2 == 0, int32(i+1), tr.open[:0]
		from := len(tr.spans)
		wall, err := pass()
		if err != nil {
			t.fail(err)
			continue
		}
		t.ok()
		if !tr.on {
			off = append(off, wall.Seconds())
			continue
		}
		on = append(on, wall.Seconds())
		for k, v := range layers(from) {
			per[k] = append(per[k], v)
		}
	}
	tr.on = false
	out := make(map[string]float64, len(per)+1)
	for k, vs := range per {
		out[k] = stat.Median(vs)
	}
	if len(on) > 0 && len(off) > 0 {
		out["trace.overhead_pct"] = 100 * (stat.Median(on)/stat.Median(off) - 1)
	}
	return out
}

// write saves every recorded span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
