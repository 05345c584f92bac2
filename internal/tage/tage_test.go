package tage

import (
	"testing"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/xrand"
)

// drive runs pattern-generated branches through p and returns accuracy.
func drive(p bpu.Predictor, n int, next func(i int, hist []bool) (pc uint64, taken bool)) float64 {
	var hist []bool
	correct := 0
	for i := 0; i < n; i++ {
		pc, taken := next(i, hist)
		if o, ok := p.(bpu.OraclePrimer); ok {
			o.Prime(taken)
		}
		if p.Predict(pc) == taken {
			correct++
		}
		p.Update(pc, taken)
		hist = append(hist, taken)
		if len(hist) > 2048 {
			hist = hist[1:]
		}
	}
	return float64(correct) / float64(n)
}

func TestImplementsPredictor(t *testing.T) {
	var _ bpu.Predictor = New(DefaultConfig())
}

func TestName(t *testing.T) {
	if got := New(DefaultConfig()).Name(); got != "tage-sc-l-64KB" {
		t.Fatalf("Name = %q", got)
	}
}

func TestLearnsBiasedBranch(t *testing.T) {
	p := New(DefaultConfig())
	acc := drive(p, 5000, func(i int, _ []bool) (uint64, bool) {
		return 0x400100, true
	})
	if acc < 0.99 {
		t.Fatalf("accuracy on always-taken: %v", acc)
	}
}

func TestLearnsAlternation(t *testing.T) {
	p := New(DefaultConfig())
	acc := drive(p, 5000, func(i int, _ []bool) (uint64, bool) {
		return 0x400100, i%2 == 0
	})
	if acc < 0.95 {
		t.Fatalf("accuracy on alternation: %v", acc)
	}
}

func TestLearnsShortHistoryCorrelation(t *testing.T) {
	// Branch B's outcome equals branch A's outcome two steps earlier.
	r := xrand.New(42)
	p := New(DefaultConfig())
	var aOut []bool
	correct, total := 0, 0
	for i := 0; i < 20000; i++ {
		aTaken := r.Bool(0.5)
		p.Predict(0x400200)
		p.Update(0x400200, aTaken)
		aOut = append(aOut, aTaken)
		if len(aOut) >= 2 {
			want := aOut[len(aOut)-2]
			if p.Predict(0x400300) == want {
				correct++
			}
			total++
			p.Update(0x400300, want)
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.9 {
		t.Fatalf("accuracy on history-correlated branch: %v", acc)
	}
}

func TestLoopPredictorCatchesFixedTripCount(t *testing.T) {
	// Loop branch: taken 37 times, then not-taken, repeating. The 37+1
	// period exceeds short history tables' reach combined with many
	// interfering branches; the loop predictor should lock on.
	p := New(DefaultConfig())
	correct, total := 0, 0
	iter := 0
	for i := 0; i < 60000; i++ {
		taken := iter < 37
		iter++
		if iter == 38 {
			iter = 0
		}
		pred := p.Predict(0x400400)
		if i > 20000 {
			if pred == taken {
				correct++
			}
			total++
		}
		p.Update(0x400400, taken)
	}
	acc := float64(correct) / float64(total)
	if acc < 0.95 {
		t.Fatalf("accuracy on 38-period loop: %v", acc)
	}
}

func TestRandomBranchNearChance(t *testing.T) {
	r := xrand.New(7)
	p := New(DefaultConfig())
	acc := drive(p, 20000, func(i int, _ []bool) (uint64, bool) {
		return 0x400500, r.Bool(0.5)
	})
	if acc > 0.62 {
		t.Fatalf("accuracy on random branch implausibly high: %v", acc)
	}
}

func TestBiasedRandomBranchTracksBias(t *testing.T) {
	r := xrand.New(8)
	p := New(DefaultConfig())
	acc := drive(p, 20000, func(i int, _ []bool) (uint64, bool) {
		return 0x400600, r.Bool(0.9)
	})
	if acc < 0.85 {
		t.Fatalf("accuracy on 90%%-biased branch: %v", acc)
	}
}

func TestCapacityPressureDegradesAccuracy(t *testing.T) {
	// Many static branches with per-branch alternation: a small predictor
	// should do worse than a large one.
	gen := func(seed uint64) func(int, []bool) (uint64, bool) {
		r := xrand.New(seed)
		states := map[uint64]bool{}
		return func(i int, _ []bool) (uint64, bool) {
			pc := 0x400000 + uint64(r.Intn(30000))*16
			states[pc] = !states[pc]
			return pc, states[pc]
		}
	}
	small := New(Config{SizeKB: 8, Seed: 1})
	big := New(Config{SizeKB: 1024, Seed: 1})
	accSmall := drive(small, 60000, gen(3))
	accBig := drive(big, 60000, gen(3))
	if accBig <= accSmall {
		t.Fatalf("1MB (%v) not better than 8KB (%v) under capacity pressure", accBig, accSmall)
	}
}

func TestSuppressAllocation(t *testing.T) {
	p := New(DefaultConfig())
	p.SuppressAllocation(0x400700)
	r := xrand.New(9)
	// Random branch: suppressed PC should not pollute tables; we only
	// check that updates don't panic and predictions still happen.
	for i := 0; i < 1000; i++ {
		taken := r.Bool(0.5)
		p.Predict(0x400700)
		p.Update(0x400700, taken)
	}
	liveEntries := 0
	for i := range p.tables {
		for j := range p.tables[i] {
			if p.tables[i][j].live {
				liveEntries++
			}
		}
	}
	if liveEntries != 0 {
		t.Fatalf("suppressed branch allocated %d tagged entries", liveEntries)
	}
	p.ClearSuppressed()
	for i := 0; i < 1000; i++ {
		taken := r.Bool(0.5)
		p.Predict(0x400700)
		p.Update(0x400700, taken)
	}
	liveEntries = 0
	for i := range p.tables {
		for j := range p.tables[i] {
			if p.tables[i][j].live {
				liveEntries++
			}
		}
	}
	if liveEntries == 0 {
		t.Fatal("unsuppressed branch never allocated")
	}
}

func TestUpdateWithoutPredictRecovers(t *testing.T) {
	p := New(DefaultConfig())
	// Whisper's hybrid may Update without a prior Predict for this pc.
	p.Update(0x400800, true)
	p.Predict(0x400900)
	p.Update(0x400800, false) // mismatched pc
}

func TestSizeScalesTables(t *testing.T) {
	small := New(Config{SizeKB: 8})
	big := New(Config{SizeKB: 512})
	if len(big.tables[0]) <= len(small.tables[0]) {
		t.Fatalf("tagged table sizes do not scale: %d vs %d",
			len(big.tables[0]), len(small.tables[0]))
	}
	if len(big.base) <= len(small.base) {
		t.Fatal("bimodal size does not scale")
	}
	if big.SizeKB() != 512 {
		t.Fatal("SizeKB accessor wrong")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []bool {
		p := New(DefaultConfig())
		r := xrand.New(77)
		var out []bool
		for i := 0; i < 5000; i++ {
			pc := 0x400000 + uint64(r.Intn(100))*8
			taken := r.Bool(0.5)
			out = append(out, p.Predict(pc))
			p.Update(pc, taken)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic prediction at %d", i)
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{SizeKB: 0})
}

// TestPredictMatchesHashOracle locks Predict's planned hash passes to
// the reference bpu.History.Hash: over random histories and PCs, the
// table indices, tags and SC hashes Predict stages must equal the
// values Hash computes one length at a time.
func TestPredictMatchesHashOracle(t *testing.T) {
	for _, kb := range []int{8, 64, 1024} {
		p := New(Config{SizeKB: kb})
		r := xrand.New(uint64(kb))
		for step := 0; step < 3000; step++ {
			pc := r.Uint64()
			p.Predict(pc)
			for i, l := range histLens {
				if want := p.hist.Hash(pc, l) & p.tblMask; p.last.idx[i] != want {
					t.Fatalf("%dKB step %d table %d: index %#x, Hash gives %#x", kb, step, i, p.last.idx[i], want)
				}
				if want := uint16(p.hist.Hash(pc^tagSeed, l)>>13) & 0x3FF; p.last.tag[i] != want {
					t.Fatalf("%dKB step %d table %d: tag %#x, Hash gives %#x", kb, step, i, p.last.tag[i], want)
				}
			}
			for i, l := range p.scLens {
				if got, want := p.idxOut[numTables+i], p.hist.Hash(pc, l); got != want {
					t.Fatalf("%dKB step %d SC feature %d: hash %#x, Hash gives %#x", kb, step, i, got, want)
				}
			}
			p.Update(pc, r.Bool(0.5))
		}
	}
}

func BenchmarkPredictUpdate(b *testing.B) {
	p := New(DefaultConfig())
	r := xrand.New(1)
	pcs := make([]uint64, 1024)
	for i := range pcs {
		pcs[i] = 0x400000 + uint64(i)*8
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := pcs[i&1023]
		taken := r.Bool(0.5)
		p.Predict(pc)
		p.Update(pc, taken)
	}
}
