package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
)

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
