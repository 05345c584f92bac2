package perceptron

import (
	"testing"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
	"github.com/whisper-sim/whisper/internal/xrand"
)

func TestImplementsPredictor(t *testing.T) {
	var _ bpu.Predictor = New(DefaultConfig())
	if New(DefaultConfig()).Name() != "perceptron-64KB" {
		t.Fatal("name")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{})
}

func TestLearnsBias(t *testing.T) {
	p := New(DefaultConfig())
	correct := 0
	for i := 0; i < 2000; i++ {
		if p.Predict(0x400100) == false {
			correct++
		}
		p.Update(0x400100, false)
	}
	if correct < 1900 {
		t.Fatalf("not-taken bias accuracy %d/2000", correct)
	}
}

func TestLearnsAlternation(t *testing.T) {
	p := New(DefaultConfig())
	correct := 0
	for i := 0; i < 4000; i++ {
		taken := i%2 == 0
		if i > 1000 && p.Predict(0x400100) == taken {
			correct++
		} else if i <= 1000 {
			p.Predict(0x400100)
		}
		p.Update(0x400100, taken)
	}
	if float64(correct)/3000 < 0.95 {
		t.Fatalf("alternation accuracy %d/3000", correct)
	}
}

func TestLearnsLinearlySeparableHistoryFunction(t *testing.T) {
	// Outcome = majority of the last 3 outcomes of a driver branch:
	// linearly separable over history bits, a perceptron specialty.
	r := xrand.New(3)
	p := New(DefaultConfig())
	var d [3]bool
	correct, total := 0, 0
	for i := 0; i < 30000; i++ {
		nd := r.Bool(0.5)
		p.Predict(0x400200)
		p.Update(0x400200, nd)
		d[0], d[1], d[2] = d[1], d[2], nd
		maj := 0
		for _, v := range d {
			if v {
				maj++
			}
		}
		want := maj >= 2
		pred := p.Predict(0x400300)
		if i > 10000 {
			if pred == want {
				correct++
			}
			total++
		}
		p.Update(0x400300, want)
	}
	acc := float64(correct) / float64(total)
	if acc < 0.9 {
		t.Fatalf("majority-function accuracy %v", acc)
	}
}

func TestAdaptiveThresholdMoves(t *testing.T) {
	p := New(DefaultConfig())
	start := p.Theta()
	r := xrand.New(4)
	for i := 0; i < 50000; i++ {
		pc := 0x400000 + uint64(r.Intn(64))*8
		p.Predict(pc)
		p.Update(pc, r.Bool(0.5))
	}
	if p.Theta() == start {
		t.Fatal("adaptive threshold never moved under random outcomes")
	}
}

func TestRandomNearChance(t *testing.T) {
	r := xrand.New(5)
	p := New(DefaultConfig())
	correct := 0
	for i := 0; i < 20000; i++ {
		taken := r.Bool(0.5)
		if p.Predict(0x400400) == taken {
			correct++
		}
		p.Update(0x400400, taken)
	}
	if float64(correct)/20000 > 0.6 {
		t.Fatalf("implausible accuracy on random branch: %d/20000", correct)
	}
}

func TestComparableToTageOnWorkload(t *testing.T) {
	// The perceptron is an alternative online baseline: measured past
	// the cold-start window (it needs ~4-5 training steps per branch
	// where TAGE's bimodal needs 1-2), it should land within a factor
	// of ~2.5 of TAGE-SC-L's misprediction rate.
	app := workload.DataCenterApp("drupal")
	tageMisp, total := runScore(tage.New(tage.DefaultConfig()), app)
	percMisp, _ := runScore(New(DefaultConfig()), app)
	tageRate := float64(tageMisp) / float64(total)
	percRate := float64(percMisp) / float64(total)
	if percRate > tageRate*2.5 {
		t.Fatalf("perceptron rate %v vs tage %v: out of regime", percRate, tageRate)
	}
	if percMisp == 0 {
		t.Fatal("no mispredictions measured")
	}
}

// runScore drives a predictor over a fixed window, skipping the first 40%
// as warm-up, and returns the measured misprediction/execution counts.
func runScore(pred bpu.Predictor, app *workload.App) (misp, total int) {
	const n = 120000
	s := app.Stream(0, n)
	var rec trace.Record
	seen := 0
	for s.Next(&rec) {
		seen++
		if rec.Kind != trace.CondBranch {
			continue
		}
		m := pred.Predict(rec.PC) != rec.Taken
		pred.Update(rec.PC, rec.Taken)
		if seen <= n*2/5 {
			continue
		}
		if m {
			misp++
		}
		total++
	}
	return misp, total
}

// TestPredictMatchesHashOracle locks Predict's planned hash pass to
// the reference bpu.History.Hash: over random histories and PCs, every
// segment hash Predict stages must equal Hash over the segment's
// length alone.
func TestPredictMatchesHashOracle(t *testing.T) {
	p := New(DefaultConfig())
	r := xrand.New(5)
	for step := 0; step < 3000; step++ {
		pc := r.Uint64()
		p.Predict(pc)
		for si, seg := range segments {
			if want := p.hist.Hash(pc, seg.To); p.segHash[si] != want {
				t.Fatalf("step %d segment %d: hash %#x, Hash gives %#x", step, si, p.segHash[si], want)
			}
		}
		p.Update(pc, r.Bool(0.5))
	}
}

func BenchmarkPredictUpdate(b *testing.B) {
	p := New(DefaultConfig())
	r := xrand.New(1)
	for i := 0; i < b.N; i++ {
		pc := 0x400000 + uint64(i&1023)*8
		p.Predict(pc)
		p.Update(pc, r.Bool(0.5))
	}
}
