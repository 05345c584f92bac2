package mtage

import (
	"testing"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/xrand"
)

func TestImplementsPredictor(t *testing.T) {
	var _ bpu.Predictor = New()
}

func TestLearnsBias(t *testing.T) {
	p := New()
	correct := 0
	for i := 0; i < 1000; i++ {
		if p.Predict(0x400100) == true {
			correct++
		}
		p.Update(0x400100, true)
	}
	if correct < 990 {
		t.Fatalf("always-taken accuracy %d/1000", correct)
	}
}

func TestLearnsAlternation(t *testing.T) {
	p := New()
	correct := 0
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		if p.Predict(0x400100) == taken {
			correct++
		}
		p.Update(0x400100, taken)
	}
	if float64(correct)/2000 < 0.95 {
		t.Fatalf("alternation accuracy %d/2000", correct)
	}
}

func TestMemorizesLongPeriodicPattern(t *testing.T) {
	// A branch repeating a fixed random 2000-bit pattern: every 1024-bit
	// history window uniquely identifies the position, so the unlimited
	// predictor memorizes one substream per position and becomes nearly
	// perfect after two periods. A small TAGE cannot hold 2000 contexts.
	r := xrand.New(5)
	pattern := make([]bool, 2000)
	for i := range pattern {
		pattern[i] = r.Bool(0.5)
	}
	p := New()
	correct, total := 0, 0
	for i := 0; i < 30000; i++ {
		taken := pattern[i%len(pattern)]
		pred := p.Predict(0x400300)
		if i > 3*len(pattern) {
			if pred == taken {
				correct++
			}
			total++
		}
		p.Update(0x400300, taken)
	}
	acc := float64(correct) / float64(total)
	if acc < 0.95 {
		t.Fatalf("long-pattern accuracy %v", acc)
	}
}

func TestNoCapacityPressure(t *testing.T) {
	// Tens of thousands of biased static branches: unlimited storage
	// retains them all; accuracy must stay high, unlike a small TAGE.
	r := xrand.New(6)
	p := New()
	small := tage.New(tage.Config{SizeKB: 8})
	biases := make(map[uint64]bool)
	score := func(pred bpu.Predictor) float64 {
		rr := xrand.New(7)
		correct, total := 0, 0
		for i := 0; i < 80000; i++ {
			pc := 0x400000 + uint64(rr.Intn(4000))*16
			b, ok := biases[pc]
			if !ok {
				b = r.Bool(0.5)
				biases[pc] = b
			}
			if i > 40000 {
				if pred.Predict(pc) == b {
					correct++
				}
				total++
			} else {
				pred.Predict(pc)
			}
			pred.Update(pc, b)
		}
		return float64(correct) / float64(total)
	}
	accUnlimited := score(p)
	accSmall := score(small)
	if accUnlimited < 0.97 {
		t.Fatalf("unlimited accuracy on biased population: %v", accUnlimited)
	}
	if accUnlimited <= accSmall {
		t.Fatalf("unlimited (%v) not better than 8KB TAGE (%v)", accUnlimited, accSmall)
	}
}

func TestEntriesGrow(t *testing.T) {
	p := New()
	r := xrand.New(8)
	for i := 0; i < 1000; i++ {
		pc := 0x400000 + uint64(i)*8
		p.Predict(pc)
		p.Update(pc, r.Bool(0.5))
	}
	if p.Entries() < 1000 {
		t.Fatalf("Entries = %d after 1000 distinct branches", p.Entries())
	}
}

func TestUpdateWithoutPredict(t *testing.T) {
	p := New()
	p.Update(0x400100, true) // must not panic
}

// TestPredictMatchesHashOracle locks Predict's planned hash pass to
// the reference bpu.History.Hash: over random histories and PCs, every
// component key Predict stages must carry the hash Hash computes for
// that component's length alone.
func TestPredictMatchesHashOracle(t *testing.T) {
	m := New()
	r := xrand.New(3)
	for step := 0; step < 3000; step++ {
		pc := r.Uint64()
		m.Predict(pc)
		for i, l := range histLens {
			if want := (key{pc: pc, h: m.hist.Hash(pc, l)}); m.last.keys[i] != want {
				t.Fatalf("step %d component %d: key %+v, Hash gives %+v", step, i, m.last.keys[i], want)
			}
		}
		m.Update(pc, r.Bool(0.5))
	}
}

// BenchmarkPredictUpdate is the regression gate for the component
// tables: open-addressed, probed once per component per record, with
// branchless counter updates, over 4096 distinct branches.
func BenchmarkPredictUpdate(b *testing.B) {
	const span = 4096
	p := New()
	r := xrand.New(1)
	taken := make([]bool, span)
	for i := range taken {
		taken[i] = r.Bool(0.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := 0x400000 + uint64(i&(span-1))*8
		p.Predict(pc)
		p.Update(pc, taken[i&(span-1)])
	}
}
