package whisper

import (
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/telemetry"
)

// TestEvaluateMatchesSequential: Evaluate runs its two measurements side
// by side, and must return exactly what the sequential flow returns —
// pipeline.Run on a fresh baseline, then WhisperBuild.Run — with both
// runs' metrics flushed into the build's registry before the caller's
// is restored.
func TestEvaluateMatchesSequential(t *testing.T) {
	for _, name := range []string{"mysql", "kafka"} {
		for _, n := range []int{20000, 60000} {
			app := AppByName(name)
			reg := NewRegistry()
			b, err := Optimize(app, WithRecords(n), WithTelemetry(reg))
			if err != nil {
				t.Fatal(err)
			}
			runs := reg.Counter("whisper_sim_runs_total")
			before, prev := runs.Value(), telemetry.Default()
			got := b.Evaluate(1, 0)
			if telemetry.Default() != prev {
				t.Fatalf("%s/%d: Evaluate left another registry installed", name, n)
			}
			if d := runs.Value() - before; d != 2 {
				t.Errorf("%s/%d: %d runs flushed into the build's registry, want 2", name, n, d)
			}

			w, err := sim.AppWindow(app, 1, n)
			if err != nil {
				t.Fatal(err)
			}
			popt := pipeline.Options{Config: DefaultMachine(), WarmupRecords: uint64(float64(n) * 0.3)}
			base := pipeline.Run(w.Open(), sim.Tage64KB(), popt)
			res, rt := b.Run(w, sim.Tage64KB(), popt)
			want := Evaluation{Baseline: base, Whisper: res, HintPredictions: rt.HintPredictions, HintExecutions: rt.HintExecutions}
			if *got != want {
				t.Errorf("%s/%d: side-by-side evaluation differs from the sequential one:\n got %+v\nwant %+v", name, n, *got, want)
			}
		}
	}
}

// TestPredictorFactoryNeverConcurrent: a WithPredictor factory is called
// once per run and never while another call is in flight, although
// Evaluate runs two predictors at once.
func TestPredictorFactoryNeverConcurrent(t *testing.T) {
	var calls, inFlight atomic.Int32
	var overlap atomic.Bool
	factory := func() Predictor {
		calls.Add(1)
		if inFlight.Add(1) > 1 {
			overlap.Store(true)
		}
		defer inFlight.Add(-1)
		time.Sleep(time.Millisecond) // widen the window a concurrent call would hit
		return NewTageSCL(64)
	}
	b, err := Optimize(AppByName("kafka"), WithRecords(20000), WithPredictor(factory))
	if err != nil {
		t.Fatal(err)
	}
	for in := 1; in <= 3; in++ {
		b.Evaluate(in, 0)
	}
	if overlap.Load() {
		t.Fatal("two calls of the predictor factory overlapped")
	}
	// One profiling run, then a baseline and a Whisper run per Evaluate.
	if got := calls.Load(); got != 1+3*2 {
		t.Fatalf("factory called %d times, want 7 (once per run)", got)
	}
}

var errPredictor = errors.New("predictor failure")

// failingPredictor panics on its first Predict past a budget.
type failingPredictor struct {
	Predictor
	left int
}

func (p *failingPredictor) Predict(pc uint64) bool {
	if p.left--; p.left < 0 {
		panic(errPredictor)
	}
	return p.Predictor.Predict(pc)
}

// TestEvaluatePanicReachesCaller: a predictor that panics during the
// bare baseline run, which Evaluate runs beside the Whisper run, panics
// Evaluate on the caller's goroutine, and no goroutine is left behind.
func TestEvaluatePanicReachesCaller(t *testing.T) {
	var calls atomic.Int32
	// Call 1 profiles; call 2 is Evaluate's first, the bare baseline's.
	factory := func() Predictor {
		if calls.Add(1) == 2 {
			return &failingPredictor{Predictor: NewTageSCL(64), left: 1000}
		}
		return NewTageSCL(64)
	}
	b, err := Optimize(AppByName("kafka"), WithRecords(20000), WithPredictor(factory))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	p := func() (p any) {
		defer func() { p = recover() }()
		b.Evaluate(1, 0)
		return nil
	}()
	if p != errPredictor {
		t.Fatalf("Evaluate recovered %v, want the predictor's panic", p)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the panic, %d before Evaluate", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOptimizeRejectsBadWarmup: a warm-up fraction outside [0, 1) — at
// or past the window's end, negative or NaN — would silently measure the
// whole window, cold start included, so Optimize refuses it.
func TestOptimizeRejectsBadWarmup(t *testing.T) {
	app := AppByName("kafka")
	for _, f := range []float64{math.NaN(), -1, -0.01, 1, 1.5, math.Inf(1)} {
		if _, err := Optimize(app, WithRecords(1000), WithWarmup(f)); err == nil {
			t.Errorf("warm-up %v accepted", f)
		}
	}
	if _, err := Optimize(app, WithRecords(1000), WithWarmup(0)); err != nil {
		t.Errorf("warm-up 0 rejected: %v", err)
	}
}
