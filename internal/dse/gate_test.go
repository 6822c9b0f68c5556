package dse

import (
	"errors"
	"sync"
	"testing"
)

// TestStreamGateSuppressesAfterFailure pins the streaming discipline both
// sweep drivers rely on: the moment one worker latches an error, no further
// point reaches the caller — including points from batches that were
// already in flight — and the sweep reports the first error latched.
func TestStreamGateSuppressesAfterFailure(t *testing.T) {
	var g StreamGate

	if g.Stopped() {
		t.Fatal("fresh gate reports stopped")
	}
	if g.FirstErr() != nil {
		t.Fatal("fresh gate reports an error")
	}
	emitted := 0
	emit := func() error {
		emitted++
		return nil
	}
	if err := g.Publish(emit); err != nil {
		t.Fatalf("publish before any failure: %v", err)
	}
	if emitted != 1 {
		t.Fatalf("emitted %d, want 1", emitted)
	}

	first := errors.New("first failure")
	g.Fail(first)
	g.Fail(errors.New("second failure"))
	if !g.Stopped() {
		t.Fatal("gate not stopped after Fail")
	}
	if err := g.Publish(emit); !errors.Is(err, first) || emitted != 1 {
		t.Fatalf("publish after failure returned %v (emitted %d)", err, emitted)
	}
	if err := g.FirstErr(); !errors.Is(err, first) {
		t.Fatalf("FirstErr = %v, want the first latched error", err)
	}
}

// TestStreamGateLatchesEmitError pins the emission side of the latch: an
// error from emit stops the gate exactly as Fail does, so a consumer that
// cannot take a point stops the sweep feeding it.
func TestStreamGateLatchesEmitError(t *testing.T) {
	var g StreamGate
	full := errors.New("consumer full")
	if err := g.Publish(func() error { return full }); !errors.Is(err, full) {
		t.Fatalf("Publish = %v, want the emit error", err)
	}
	if !g.Stopped() || !errors.Is(g.FirstErr(), full) {
		t.Fatalf("emit error not latched: stopped %v, FirstErr %v", g.Stopped(), g.FirstErr())
	}
	g.Fail(errors.New("later"))
	ran := false
	g.Publish(func() error { ran = true; return nil })
	if ran || !errors.Is(g.FirstErr(), full) {
		t.Fatalf("after an emit error: publish ran %v, FirstErr %v", ran, g.FirstErr())
	}
}

// TestStreamGateConcurrentFail races publishers against a failing worker:
// whatever interleaving the scheduler picks, every emission must have been
// admitted before the failure latched, and none after. Run under -race this
// also pins the gate's internal synchronization.
func TestStreamGateConcurrentFail(t *testing.T) {
	var g StreamGate
	var mu sync.Mutex
	published := 0

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if w == 0 && i == 50 {
					g.Fail(errors.New("boom"))
				}
				g.Publish(func() error {
					mu.Lock()
					published++
					mu.Unlock()
					return nil
				})
			}
		}(w)
	}
	wg.Wait()

	if !g.Stopped() || g.FirstErr() == nil {
		t.Fatal("failure not latched")
	}
	// Re-check the invariant after all workers drained: the gate stays
	// closed forever.
	before := published
	if g.Publish(func() error { published++; return nil }) == nil || published != before {
		t.Fatal("gate reopened after workers drained")
	}
}
