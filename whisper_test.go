package whisper

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/whisper-sim/whisper/internal/workload"
)

// TestOptionsAPIEndToEnd drives the v2 surface: functional options into
// Optimize, the Build.Evaluate method, a telemetry registry capturing
// the run, and a Save/Load artifact round trip.
func TestOptionsAPIEndToEnd(t *testing.T) {
	app := AppByName("mysql")
	reg := NewRegistry()
	b, err := Optimize(app,
		WithRecords(120000),
		WithParams(DefaultParams()),
		WithPredictor(func() Predictor { return NewTageSCL(64) }),
		WithWarmup(0.3),
		WithMachine(DefaultMachine()),
		WithTelemetry(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	ev := b.Evaluate(1, 0) // records <= 0 reuses the training window
	if ev.Reduction() <= 0 {
		t.Fatalf("v2 reduction %v", ev.Reduction())
	}
	if total := ev.Baseline.Records + ev.Baseline.WarmupRecords; total != 120000 {
		t.Fatalf("default evaluation window %d, want training window", total)
	}
	if len(reg.Snapshot()) == 0 {
		t.Fatal("WithTelemetry registry captured nothing")
	}

	path := filepath.Join(t.TempDir(), "mysql.wspa")
	if err := Save(path, b); err != nil {
		t.Fatal(err)
	}
	a, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Meta.App != "mysql" || a.Meta.Records != 120000 {
		t.Fatalf("artifact meta %+v", a.Meta)
	}
	if a.Profile == nil || !reflect.DeepEqual(a.Train.Hints, b.Train.Hints) {
		t.Fatal("artifact round trip lost the profile or hints")
	}
}

// TestExplicitDefaultsMatchImplicit locks the defaulting contract the v1
// compatibility test used to cover: spelling out every default through
// the functional options produces bit-identical builds and evaluations
// to a bare Optimize call.
func TestExplicitDefaultsMatchImplicit(t *testing.T) {
	app := AppByName("kafka")
	const n = 60000

	explicit, err := Optimize(app,
		WithRecords(n),
		WithParams(DefaultParams()),
		WithPredictor(func() Predictor { return NewTageSCL(64) }),
		WithTrainInput(0),
		WithMachine(DefaultMachine()),
		WithWarmup(0.3),
	)
	if err != nil {
		t.Fatal(err)
	}
	implicit, err := Optimize(app, WithRecords(n))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(explicit.Train.Hints, implicit.Train.Hints) {
		t.Fatal("explicit and implicit builds diverge")
	}
	e1 := explicit.Evaluate(1, n)
	e2 := implicit.Evaluate(1, n)
	if e1.Baseline != e2.Baseline || e1.Whisper != e2.Whisper {
		t.Fatalf("explicit evaluation %+v != implicit %+v", e1, e2)
	}
}

// TestBlockSizeOptionInvariance: the deprecated WithBlockSize must not
// change a single counter of the evaluation, whatever it is given; in
// particular it must not size an allocation from its argument.
func TestBlockSizeOptionInvariance(t *testing.T) {
	app := AppByName("drupal")
	const n = 60000
	want, err := Optimize(app, WithRecords(n))
	if err != nil {
		t.Fatal(err)
	}
	ref := want.Evaluate(1, n)
	for _, bs := range []int{-1, 0, 1, 7, math.MaxInt} {
		b, err := Optimize(app, WithRecords(n), WithBlockSize(bs))
		if err != nil {
			t.Fatal(err)
		}
		ev := b.Evaluate(1, n)
		if ev.Baseline != ref.Baseline || ev.Whisper != ref.Whisper {
			t.Fatalf("block %d: evaluation diverged from the default", bs)
		}
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	app := AppByName("mysql")
	if app == nil {
		t.Fatal("mysql app missing")
	}
	b, err := Optimize(app, WithRecords(120000))
	if err != nil {
		t.Fatal(err)
	}
	ev := b.Evaluate(1, 120000)
	if ev.Reduction() <= 0 {
		t.Fatalf("public API reduction %v", ev.Reduction())
	}
	if ev.HintPredictions == 0 || ev.HintExecutions == 0 {
		t.Fatal("hint counters empty")
	}
	t.Logf("reduction %.1f%%, speedup %.2f%%", ev.Reduction()*100, ev.Speedup()*100)
}

func TestPublicAppCatalog(t *testing.T) {
	if len(Apps()) != 12 {
		t.Fatalf("%d apps", len(Apps()))
	}
	if len(SpecApps()) != 10 {
		t.Fatalf("%d spec apps", len(SpecApps()))
	}
	if AppByName("nonesuch") != nil {
		t.Fatal("bogus app resolved")
	}
}

// measureBaseline runs a bare predictor over one input through the
// supported surface: configure it as the baseline with WithPredictor and
// read Evaluation.Baseline (the standalone run of exactly that
// predictor). This is the replacement for the removed v1 Measure.
func measureBaseline(t *testing.T, app *App, p func() Predictor, records int, warmup float64) Result {
	t.Helper()
	b, err := Optimize(app, WithRecords(records), WithWarmup(warmup), WithPredictor(p))
	if err != nil {
		t.Fatal(err)
	}
	return b.Evaluate(0, records).Baseline
}

func TestPublicPredictors(t *testing.T) {
	app := AppByName("kafka")
	base := measureBaseline(t, app, func() Predictor { return NewTageSCL(64) }, 40000, 0.25)
	ideal := measureBaseline(t, app, NewOracle, 40000, 0.25)
	unlimited := measureBaseline(t, app, NewMTageSC, 40000, 0.25)
	if ideal.CondMisp != 0 {
		t.Fatal("oracle mispredicted")
	}
	if unlimited.CondMisp >= base.CondMisp {
		t.Fatalf("MTAGE (%d) not below baseline (%d)", unlimited.CondMisp, base.CondMisp)
	}
	if base.MPKI() <= 0 || base.IPC() <= 0 {
		t.Fatal("baseline metrics empty")
	}
}

func TestPublicCustomApp(t *testing.T) {
	app, err := NewApp(AppConfig{
		Name:          "custom",
		Seed:          1,
		Functions:     40,
		BranchesPerFn: 4,
		Mix:           Mix{Biased: 0.8, LongHist: 0.1, DataDep: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := measureBaseline(t, app, func() Predictor { return NewTageSCL(64) }, 20000, 0)
	if res.CondExecs == 0 {
		t.Fatal("custom app produced no branches")
	}
}

func TestDefaultParamsTableIII(t *testing.T) {
	p := DefaultParams()
	if p.MinHistory != 8 || p.MaxHistory != 1024 || p.NumLengths != 16 {
		t.Fatalf("params %+v", p)
	}
}

// TestOptimizeResolvesWindow: the profiled window is validated and
// resolved once. A train input the application lacks is an error, and
// WithRecords(0) means the default window for profiling, for
// Evaluate's default window and for the saved metadata alike.
func TestOptimizeResolvesWindow(t *testing.T) {
	app := AppByName("kafka")
	for _, in := range []int{-1, app.Inputs()} {
		if _, err := Optimize(app, WithTrainInput(in), WithRecords(1000)); err == nil {
			t.Errorf("train input %d accepted", in)
		}
	}

	b, err := Optimize(app, WithRecords(0))
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(workload.ScaleSmall.Records())
	if b.Profile.Records != want {
		t.Fatalf("profiled %d records, want the default %d", b.Profile.Records, want)
	}
	ev := b.Evaluate(1, 0)
	if got := ev.Baseline.WarmupRecords + ev.Baseline.Records; got != want || ev.Baseline.CondMisp == 0 {
		t.Fatalf("Evaluate(1, 0) ran %d records, want %d", got, want)
	}
	path := filepath.Join(t.TempDir(), "kafka.wspa")
	if err := Save(path, b); err != nil {
		t.Fatal(err)
	}
	art, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if art.Meta.Records != int(want) {
		t.Fatalf("saved window of %d records, want %d", art.Meta.Records, want)
	}
}
