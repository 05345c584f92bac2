package sim

import (
	"errors"
	"reflect"
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

// panickingStream panics with its value once it has passed on after
// records.
type panickingStream struct {
	trace.Stream
	after int
	value any
}

func (s *panickingStream) Next(rec *trace.Record) bool {
	if s.after == 0 {
		panic(s.value)
	}
	s.after--
	return s.Stream.Next(rec)
}

// panickingPredictor panics with its value at its after+1-th Predict.
type panickingPredictor struct {
	bpu.Predictor
	after int
	value any
}

func (p *panickingPredictor) Predict(pc uint64) bool {
	if p.after == 0 {
		panic(p.value)
	}
	p.after--
	return p.Predictor.Predict(pc)
}

// TestBuildHandoffEndsOnEveryPath: however one of Build's two units
// ends, the other is released from the window's hand-off, so Build
// returns its error or raises the unit's panic again with no goroutine
// left. The window's stream panics mid-window in the CFG unit, which
// reads it; the predictor panics mid-window in the profiling unit,
// which reads the hand-off; and a factory without a predictor fails the
// profiling unit before it reads anything.
func TestBuildHandoffEndsOnEveryPath(t *testing.T) {
	// The window spans many more blocks than the hand-off holds, so a
	// reader nobody releases would block.
	const n = 40000
	recs := trace.Collect(workload.DataCenterApp("kafka").Stream(0, n), 0)
	streamBoom, predBoom := errors.New("stream"), errors.New("predictor")
	cases := []struct {
		name      string
		open      func() trace.Stream
		baseline  PredictorFactory
		wantPanic any
		wantErr   bool
	}{
		{
			name:      "stream panics",
			open:      func() trace.Stream { return &panickingStream{trace.NewSliceStream(recs), n / 2, streamBoom} },
			baseline:  Tage64KB,
			wantPanic: streamBoom,
		},
		{
			name: "predictor panics",
			open: func() trace.Stream { return trace.NewSliceStream(recs) },
			baseline: func() bpu.Predictor {
				return &panickingPredictor{Tage64KB(), 1000, predBoom}
			},
			wantPanic: predBoom,
		},
		{
			name:     "no predictor",
			open:     func() trace.Stream { return trace.NewSliceStream(recs) },
			baseline: func() bpu.Predictor { return nil },
			wantErr:  true,
		},
	}
	for _, c := range cases {
		w := TraceWindow("kafka", "", recs)
		w.open = c.open
		before := runtime.NumGoroutine()
		type outcome struct {
			err      error
			panicked any
		}
		done := make(chan outcome)
		go func() {
			var o outcome
			defer func() {
				o.panicked = recover()
				done <- o
			}()
			_, o.err = Build(w, c.baseline, core.DefaultParams())
		}()
		var o outcome
		select {
		case o = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: Build did not return", c.name)
		}
		if !reflect.DeepEqual(o.panicked, c.wantPanic) {
			t.Fatalf("%s: Build panicked with %v, want %v", c.name, o.panicked, c.wantPanic)
		}
		if (o.err != nil) != c.wantErr {
			t.Fatalf("%s: Build returned error %v", c.name, o.err)
		}
		waitGoroutines(t, before)
	}
}

// TestHandoffDeliversWindow: a reader taking the window a record at a
// time through the tee and a consumer doing the same through the
// hand-off both see exactly the window's records, across several
// blocks and a partial last one.
func TestHandoffDeliversWindow(t *testing.T) {
	recs := trace.Collect(workload.DataCenterApp("mysql").Stream(0, 3*trace.DefaultBlockSize+100), 0)
	h := newHandoff()
	read := make(chan []trace.Record)
	go func() {
		got := trace.Collect(&teeStream{h: h, src: trace.NewSliceStream(recs)}, 0)
		close(h.full)
		read <- got
	}()
	consumed := trace.Collect(&handoffStream{h: h}, 0)
	close(h.done)
	if got := <-read; !reflect.DeepEqual(got, recs) {
		t.Fatalf("the tee passed on %d records, not the window's %d", len(got), len(recs))
	}
	if !reflect.DeepEqual(consumed, recs) {
		t.Fatalf("the hand-off delivered %d records, not the window's %d", len(consumed), len(recs))
	}
}
