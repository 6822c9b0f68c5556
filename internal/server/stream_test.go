package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"vtrain/internal/hw"
)

// TestStreamNoEmissionAfterError drives the NDJSON stream with a hostile
// runner: many goroutines publishing points race a mid-stream failure,
// exactly the shape of ExploreFunc's worker pool when one batch errors.
// The StreamGate contract must hold at the HTTP boundary — once finish
// latches the error, no point line may reach the response, and the error
// line is the stream's last line.
func TestStreamNoEmissionAfterError(t *testing.T) {
	rec := httptest.NewRecorder()
	st := newNDJSONStream(rec)

	// A few well-ordered points land before the failure.
	st.point(SweepPoint{Plan: "pre-1"})
	st.point(SweepPoint{Plan: "pre-2"})

	boom := errors.New("batch 7 exploded")
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 100; j++ {
				st.point(SweepPoint{Plan: "racing"})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		st.finish(nil, boom)
	}()
	close(start)
	wg.Wait()

	// Racing emissions before the latch are fine; after the error line,
	// nothing.
	lines := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n")
	errIdx := -1
	for i, l := range lines {
		var line struct {
			Error *wireError `json:"error"`
		}
		if err := json.Unmarshal([]byte(l), &line); err != nil {
			t.Fatalf("line %d is not valid JSON: %q", i, l)
		}
		if line.Error != nil {
			if errIdx >= 0 {
				t.Fatalf("two error lines (%d and %d)", errIdx, i)
			}
			errIdx = i
			if line.Error.Message != boom.Error() {
				t.Errorf("error message = %q, want %q", line.Error.Message, boom.Error())
			}
			if line.Error.Status != 500 {
				t.Errorf("error status = %d, want 500", line.Error.Status)
			}
		}
	}
	if errIdx < 0 {
		t.Fatal("no error line in failed stream")
	}
	if errIdx != len(lines)-1 {
		t.Fatalf("error line at %d of %d — %d point lines emitted after the failure latched",
			errIdx, len(lines), len(lines)-1-errIdx)
	}
	if !st.gate.Stopped() {
		t.Error("gate not latched after finish(err)")
	}

	// And the latch holds: later publishes are dropped entirely.
	before := rec.Body.Len()
	st.point(SweepPoint{Plan: "too-late"})
	if rec.Body.Len() != before {
		t.Error("point emitted after the stream finished with an error")
	}
}

// TestStreamPreStartErrorIsRealStatus locks the two-phase error protocol:
// a failure before the first byte must be a plain JSON error response with
// a real status code, not an in-band stream line.
func TestStreamPreStartErrorIsRealStatus(t *testing.T) {
	rec := httptest.NewRecorder()
	st := newNDJSONStream(rec)
	st.finish(nil, badRequest(errors.New("bad axis")))
	if rec.Code != 400 {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("pre-start error body is not structured JSON: %v", err)
	}
	if eb.Error.Message != "bad axis" || eb.Error.Status != 400 {
		t.Errorf("error body = %+v", eb.Error)
	}
}

// TestStreamLatchedBadRequestEndsStream: a client-fault error latched after
// points have streamed — a later sweep point whose economics overflow —
// drops every later point and ends the stream with an error line of
// status 400.
func TestStreamLatchedBadRequestEndsStream(t *testing.T) {
	rec := httptest.NewRecorder()
	st := newNDJSONStream(rec)
	st.point(SweepPoint{Plan: "a"})
	st.gate.Fail(overflowError(1, hw.PaperCluster(1), 8))
	st.point(SweepPoint{Plan: "b"})
	st.finish(&StreamSummary{Points: 2}, nil)
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	var last streamLine
	if rec.Code != 200 || len(lines) != 2 || json.Unmarshal([]byte(lines[1]), &last) != nil ||
		last.Error == nil || last.Error.Status != 400 {
		t.Fatalf("status %d, stream %q; want one point line, then an error line of status 400", rec.Code, rec.Body.String())
	}
}

// TestStreamWriteFailureLatches locks the disconnected-client path: the
// first failed write latches the gate, so a sweep with thousands of
// remaining points stops reaching the socket instead of erroring on every
// line.
func TestStreamWriteFailureLatches(t *testing.T) {
	w := &failingWriter{failAfter: 2, ResponseRecorder: httptest.NewRecorder()}
	st := newNDJSONStream(w)
	for i := 0; i < 10; i++ {
		st.point(SweepPoint{Plan: "p"})
	}
	if !st.gate.Stopped() {
		t.Fatal("gate not latched after write failure")
	}
	if w.writes != 3 { // 2 successes + the failing attempt
		t.Errorf("writes = %d, want 3 (latch must stop further writes)", w.writes)
	}
	if err := st.gate.FirstErr(); err == nil || !strings.Contains(err.Error(), "client gone") {
		t.Errorf("FirstErr = %v, want the write error", err)
	}
}

type failingWriter struct {
	*httptest.ResponseRecorder
	failAfter int
	writes    int
}

func (w *failingWriter) Write(b []byte) (int, error) {
	w.writes++
	if w.writes > w.failAfter {
		return 0, errors.New("client gone")
	}
	return w.ResponseRecorder.Write(b)
}

// TestStreamSummaryLine sanity-checks the happy-path envelope shape that
// the goldens pin byte-for-byte: point lines then exactly one summary.
func TestStreamSummaryLine(t *testing.T) {
	rec := httptest.NewRecorder()
	st := newNDJSONStream(rec)
	st.point(SweepPoint{Plan: "a"})
	st.finish(&StreamSummary{Points: 1}, nil)
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	var n int
	for sc.Scan() {
		n++
	}
	if n != 2 {
		t.Fatalf("lines = %d, want 2 (point + summary)", n)
	}
}
