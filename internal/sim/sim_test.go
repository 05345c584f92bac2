package sim

import (
	"testing"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/workload"
)

const testRecords = 100000

// appWindow resolves an app window the test knows to be valid.
func appWindow(t *testing.T, app *workload.App, input, records int) Window {
	t.Helper()
	w, err := AppWindow(app, input, records)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunAppAndMetrics(t *testing.T) {
	w := appWindow(t, workload.DataCenterApp("postgres"), 0, testRecords)
	base := pipeline.Run(w.Open(), Tage64KB(), pipeline.Options{Config: pipeline.DefaultConfig()})
	ideal := pipeline.Run(w.Open(), &bpu.Oracle{}, pipeline.Options{Config: pipeline.DefaultConfig()})
	if Speedup(base, ideal) <= 0 {
		t.Fatal("ideal speedup not positive")
	}
	if MispReduction(base, ideal) != 1 {
		t.Fatalf("ideal reduction %v, want 1", MispReduction(base, ideal))
	}
	if Speedup(base, base) != 0 || MispReduction(base, base) != 0 {
		t.Fatal("self-comparison not zero")
	}
}

func TestTageSizedFactory(t *testing.T) {
	p := TageSized(128)()
	if p.Name() != "tage-sc-l-128KB" {
		t.Fatalf("factory built %q", p.Name())
	}
}

func TestBuildWhisperEndToEnd(t *testing.T) {
	w := appWindow(t, workload.DataCenterApp("mysql"), 0, testRecords)
	b, err := Build(w, Tage64KB, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Train.Hints) == 0 {
		t.Fatal("no hints trained")
	}
	if b.Binary.Placed == 0 {
		t.Fatal("no hints placed")
	}

	popt := pipeline.Options{Config: pipeline.DefaultConfig()}
	base := pipeline.Run(w.Open(), Tage64KB(), popt)
	res, rt := b.Run(w, Tage64KB(), popt)
	if rt.HintPredictions == 0 {
		t.Fatal("whisper runtime unused")
	}
	red := MispReduction(base, res)
	sp := Speedup(base, res)
	t.Logf("same-input reduction %.1f%%, speedup %.2f%% (placed %d, dropped %d)",
		red*100, sp*100, b.Binary.Placed, b.Binary.Dropped)
	if red <= 0 {
		t.Fatalf("whisper did not reduce mispredictions (%.3f)", red)
	}
	if sp <= 0 {
		t.Fatalf("whisper did not speed up (%.4f)", sp)
	}
}

func TestBuildWhisperCrossInput(t *testing.T) {
	// Train on input #0, test on input #1 (the paper's methodology,
	// §V-A): the reduction must survive the input change.
	app := workload.DataCenterApp("clang")
	b, err := Build(appWindow(t, app, 0, testRecords), Tage64KB, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	test := appWindow(t, app, 1, testRecords)
	popt := pipeline.Options{Config: pipeline.DefaultConfig()}
	base := pipeline.Run(test.Open(), Tage64KB(), popt)
	res, _ := b.Run(test, Tage64KB(), popt)
	red := MispReduction(base, res)
	t.Logf("cross-input reduction %.1f%%", red*100)
	if red <= 0 {
		t.Fatalf("cross-input reduction %.3f not positive", red)
	}
}

func TestBuildWhisperDefaultsFill(t *testing.T) {
	app := workload.DataCenterApp("kafka")
	b, err := Build(appWindow(t, app, 0, 30000), Tage64KB, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if b.Profile == nil || b.Train == nil || b.Binary == nil {
		t.Fatal("incomplete build")
	}
	if b.Binary.StaticInstrs != uint64(app.StaticBranches())*6 {
		t.Fatalf("static instruction estimate %d", b.Binary.StaticInstrs)
	}
}
