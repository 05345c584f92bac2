package sim

import (
	"testing"

	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/workload"
)

// TestFamilyCalibration pins the extra workload families (the
// transfer-study additions) inside the Table I catalog's difficulty
// envelope: at any common window, each family's 64KB TAGE-SC-L
// baseline MPKI must land between kafka (the catalog's easiest app)
// and python (its hardest), with the intended internal ordering
// (interp-dispatch hardest, rpc-chain easiest) and a positive
// same-input Whisper reduction. Measuring the endpoints at the same
// window keeps the check scale-independent: absolute MPKI shrinks as
// the window grows and cold effects amortize.
func TestFamilyCalibration(t *testing.T) {
	popt := pipeline.Options{Config: pipeline.DefaultConfig()}
	endpoint := func(name string) float64 {
		app := workload.DataCenterApp(name)
		res := pipeline.Run(app.Stream(0, testRecords), Tage64KB(), popt)
		return res.MPKI()
	}
	lo, hi := endpoint("kafka"), endpoint("python")
	mpki := make(map[string]float64)
	for _, app := range workload.FamilyApps() {
		w := appWindow(t, app, 0, testRecords)
		base := pipeline.Run(w.Open(), Tage64KB(), popt)
		m := base.MPKI()
		t.Logf("%s: baseline MPKI %.2f (%d static branches, envelope [%.2f, %.2f])",
			app.Name(), m, app.StaticBranches(), lo, hi)
		if m < lo || m > hi {
			t.Errorf("%s baseline MPKI %.2f outside the catalog envelope [%.2f, %.2f]", app.Name(), m, lo, hi)
		}
		mpki[app.Name()] = m

		b, err := Build(w, Tage64KB, core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		res, _ := b.Run(w, Tage64KB(), popt)
		if red := MispReduction(base, res); red <= 0 {
			t.Errorf("%s whisper reduction %.3f not positive", app.Name(), red)
		}
	}
	if !(mpki["interp-dispatch"] > mpki["gc-mark"] && mpki["gc-mark"] > mpki["rpc-chain"]) {
		t.Errorf("family hardness ordering broken: %v", mpki)
	}
}

// TestAppByName resolves every catalogue tier and rejects unknowns.
func TestAppByName(t *testing.T) {
	for _, name := range []string{"mysql", "interp-dispatch", "gc-mark", "rpc-chain", "spec-gcc"} {
		a := workload.AppByName(name)
		if a == nil || a.Name() != name {
			t.Fatalf("AppByName(%q) = %v", name, a)
		}
	}
	if workload.AppByName("no-such-app") != nil {
		t.Fatal("AppByName accepted an unknown name")
	}
}
