package sim

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
)

// recovered runs f and returns the value it panicked with, or nil.
func recovered(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// waitGoroutines waits until at most n goroutines are left. A goroutine
// that has signalled its end may still be exiting, so the count is
// polled for a bounded time.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want at most %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSideBySideJoinsAndReraises: sideBySide returns or panics only
// after both of its functions have finished, and a panic on the side
// goroutine reaches the caller's.
func TestSideBySideJoinsAndReraises(t *testing.T) {
	boom, other := errors.New("side"), errors.New("inline")
	before := runtime.NumGoroutine()

	inlineDone := false
	if p := recovered(func() { sideBySide(func() { panic(boom) }, func() { inlineDone = true }) }); p != boom || !inlineDone {
		t.Errorf("side panic: recovered %v (inline finished %v), want %v after inline finished", p, inlineDone, boom)
	}

	// The side goroutine only finishes after inline has panicked, so a
	// caller that sees sideDone set waited for it.
	release := make(chan struct{})
	sideDone := false
	p := recovered(func() {
		sideBySide(func() { <-release; sideDone = true }, func() { close(release); panic(other) })
	})
	if p != other || !sideDone {
		t.Errorf("inline panic: recovered %v (side finished %v), want %v after side finished", p, sideDone, other)
	}

	if p := recovered(func() { sideBySide(func() { panic(boom) }, func() { panic(other) }) }); p != other {
		t.Errorf("both panic: recovered %v, want inline's %v", p, other)
	}

	var a, b int
	if p := recovered(func() { sideBySide(func() { a = 1 }, func() { b = 2 }) }); p != nil || a != 1 || b != 2 {
		t.Errorf("no panic: recovered %v, results %d %d", p, a, b)
	}
	waitGoroutines(t, before)
}

// gatedStream passes on its records once gate is closed, signals
// started on its first Next, and records when it has run dry.
type gatedStream struct {
	trace.Stream
	started   chan<- struct{}
	gate      <-chan struct{}
	exhausted *atomic.Bool
	waited    bool
}

func (s *gatedStream) Next(rec *trace.Record) bool {
	if !s.waited {
		s.waited = true
		close(s.started)
		<-s.gate
	}
	if s.Stream.Next(rec) {
		return true
	}
	s.exhausted.Store(true)
	return false
}

// TestBuildJoinsCFGOnProfileError: when profiling fails, Build returns
// its error only after the goroutine building the CFG has finished.
func TestBuildJoinsCFGOnProfileError(t *testing.T) {
	recs := trace.Collect(workload.DataCenterApp("kafka").Stream(0, 5000), 0)
	w := TraceWindow("kafka", "", recs)
	started, gate := make(chan struct{}), make(chan struct{})
	var exhausted atomic.Bool
	// Profiling fails before it opens a stream, so the CFG build is
	// the window's only reader.
	w.open = func() trace.Stream {
		return &gatedStream{Stream: trace.NewSliceStream(recs), started: started, gate: gate, exhausted: &exhausted}
	}
	asked := make(chan struct{})
	noPredictor := func() bpu.Predictor { close(asked); return nil }

	before := runtime.NumGoroutine()
	done := make(chan error)
	go func() {
		_, err := Build(w, noPredictor, core.DefaultParams())
		done <- err
	}()
	<-started
	<-asked
	// Profiling has failed, and the CFG goroutine waits at the gate. A
	// Build that does not join returns at once; one that joins cannot
	// return before the gate opens, so this wait never fails a correct
	// Build.
	select {
	case err := <-done:
		t.Fatalf("Build returned (%v) while its CFG goroutine was still reading", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-done; err == nil {
		t.Fatal("Build without a predictor succeeded")
	}
	if !exhausted.Load() {
		t.Fatal("Build returned before the CFG goroutine read the whole window")
	}
	waitGoroutines(t, before)
}
