package core

import (
	"math"
	"sync"
	"testing"

	"github.com/whisper-sim/whisper/internal/formula"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/xrand"
)

// The truth-table scorer is the verbatim Algorithm 1 the factored
// scorer replaced: walk the formula's 256-entry truth table and count
// T where it predicts not-taken and NT where it predicts taken. It is
// kept here as the oracle every factored score must equal.

var (
	truthTablesOnce sync.Once
	truthTables     []formula.TruthTable
)

// allTruthTables returns every formula's truth table, by encoding.
func allTruthTables() []formula.TruthTable {
	truthTablesOnce.Do(func() {
		truthTables = make([]formula.TruthTable, formula.NumFormulas)
		for f := range truthTables {
			truthTables[f] = formula.Formula(f).Table()
		}
	})
	return truthTables
}

// truthTableMisp is the oracle misprediction count of the formula with
// truth table tt on the histogram pair.
func truthTableMisp(T, NT *[256]uint32, tt *formula.TruthTable) uint64 {
	var misp uint64
	for h := 0; h < 256; h++ {
		if tt.Bit(uint8(h)) {
			misp += uint64(NT[h])
		} else {
			misp += uint64(T[h])
		}
	}
	return misp
}

// truthTableSearch is the oracle Algorithm 1: the first formula of fs
// with the fewest mispredictions.
func truthTableSearch(T, NT *[256]uint32, fs []formula.Formula) (formula.Formula, uint64) {
	tts := allTruthTables()
	best, bestMisp := fs[0], uint64(math.MaxUint64)
	for _, f := range fs {
		if m := truthTableMisp(T, NT, &tts[f]); m < bestMisp {
			best, bestMisp = f, m
		}
	}
	return best, bestMisp
}

// canonicalOrder lists all formulas in the exhaustive search's
// (lo, hi, root, inv) order.
func canonicalOrder() []formula.Formula {
	out := make([]formula.Formula, 0, formula.NumFormulas)
	for lo := 0; lo < 64; lo++ {
		for hi := 0; hi < 64; hi++ {
			for k := 0; k < 2*int(formula.NumOps); k++ {
				out = append(out, joinFormula(uint8(lo), uint8(hi), formula.Op(k>>1), k&1 == 1))
			}
		}
	}
	return out
}

// Histogram shapes the equivalence tests and the fuzz target draw from.
const (
	histDense     = iota // every bin a small count
	histSparse           // about one bin in ten non-zero
	histNearMax          // bins at or just below 2^32-1, some zero
	histFullRange        // uniform over all uint32 values
	numHistShapes
)

// randomHist fills a histogram pair of the given shape from seed.
func randomHist(seed uint64, shape int) (T, NT [256]uint32) {
	r := xrand.New(seed)
	draw := func() uint32 {
		switch shape {
		case histDense:
			return uint32(r.Intn(1000))
		case histSparse:
			if r.Intn(10) != 0 {
				return 0
			}
			return uint32(1 + r.Intn(5000))
		case histNearMax:
			if r.Intn(4) == 0 {
				return 0
			}
			return math.MaxUint32 - uint32(r.Intn(1000))
		default:
			return r.Uint32()
		}
	}
	for h := range T {
		T[h], NT[h] = draw(), draw()
	}
	return
}

// checkFactoredScores compares, for every formula, the factored score
// through an s1 row and through the direct pair sum against the oracle.
func checkFactoredScores(t *testing.T, T, NT *[256]uint32) {
	t.Helper()
	var s scorer
	s.load(T, NT)
	for e := uint8(0); e < 64; e++ {
		s.buildS1(e)
	}
	tts := allTruthTables()
	for f := 0; f < formula.NumFormulas; f++ {
		lo, hi, root, inv := splitFormula(formula.Formula(f))
		on := onMask(root, inv)
		want := truthTableMisp(T, NT, &tts[f])
		viaS1 := s.quadrants(lo, hi, s.w11FromS1(lo, hi))
		direct := s.quadrants(lo, hi, s.w11Direct(lo, hi))
		if a, b := s.totalT+onSum(&viaS1, on), s.totalT+onSum(&direct, on); uint64(a) != want || uint64(b) != want {
			t.Fatalf("formula %#x: s1 %d, direct %d, truth table %d", f, a, b, want)
		}
	}
}

func TestFactoredScoreMatchesTruthTable(t *testing.T) {
	var zero, sat [256]uint32
	for h := range sat {
		sat[h] = math.MaxUint32
	}
	checkFactoredScores(t, &zero, &zero)
	checkFactoredScores(t, &sat, &sat)
	checkFactoredScores(t, &sat, &zero)
	checkFactoredScores(t, &zero, &sat)
	for shape := 0; shape < numHistShapes; shape++ {
		for seed := uint64(1); seed <= 2; seed++ {
			T, NT := randomHist(seed*7919+uint64(shape), shape)
			checkFactoredScores(t, &T, &NT)
		}
	}
}

// TestFindBooleanFormulaMatchesTruthTable: the compiled candidate sets
// (direct pairs at small fractions, s1 rows at large ones) pick the
// oracle's first minimum and count one evaluation per candidate; the
// exhaustive search picks the oracle's first minimum in canonical order.
func TestFindBooleanFormulaMatchesTruthTable(t *testing.T) {
	var sets []*candidateSet
	for _, frac := range []float64{0.0005, 0.001, 0.05, 0.2, 1} {
		p := DefaultParams()
		p.ExploreFraction = frac
		sets = append(sets, buildCandidates(p))
	}
	mono := DefaultParams()
	mono.ExtendedOps = false
	mono.ExploreFraction = 1
	sets = append(sets, buildCandidates(mono))
	direct, viaS1 := 0, 0
	for _, cs := range sets {
		for _, p := range cs.pairs {
			if p.viaS1 {
				viaS1++
			} else {
				direct++
			}
		}
	}
	if direct == 0 || viaS1 == 0 {
		t.Fatalf("candidate sets exercise %d direct and %d s1 pairs; want both", direct, viaS1)
	}
	canon := canonicalOrder()
	for shape := 0; shape < numHistShapes; shape++ {
		T, NT := randomHist(uint64(100+shape), shape)
		for _, cs := range sets {
			var evals uint64
			got, gotMisp := findBooleanFormula(&T, &NT, cs, &evals)
			want, wantMisp := truthTableSearch(&T, &NT, cs.formulas)
			if got != want || gotMisp != wantMisp {
				t.Fatalf("shape %d, %d candidates: %#x/%d, oracle %#x/%d",
					shape, len(cs.formulas), uint16(got), gotMisp, uint16(want), wantMisp)
			}
			if evals != uint64(len(cs.formulas)) {
				t.Fatalf("evals %d for %d candidates", evals, len(cs.formulas))
			}
		}
		var evals uint64
		got, gotMisp := findBooleanFormulaExhaustive(&T, &NT, &evals)
		want, wantMisp := truthTableSearch(&T, &NT, canon)
		if got != want || gotMisp != wantMisp || evals != formula.NumFormulas {
			t.Fatalf("shape %d exhaustive: %#x/%d (%d evals), oracle %#x/%d",
				shape, uint16(got), gotMisp, evals, uint16(want), wantMisp)
		}
	}
}

func TestSplitJoinFormula(t *testing.T) {
	for f := 0; f < formula.NumFormulas; f++ {
		lo, hi, root, inv := splitFormula(formula.Formula(f))
		if g := joinFormula(lo, hi, root, inv); g != formula.Formula(f) {
			t.Fatalf("%#x splits and rejoins as %#x", f, uint16(g))
		}
	}
}

func TestTrainRejectsBadExploreFraction(t *testing.T) {
	prof := collect(t, func() trace.Stream { return mkApp(t).Stream(0, 5000) })
	for _, frac := range []float64{math.NaN(), 0, -1, math.Inf(-1)} {
		p := DefaultParams()
		p.ExploreFraction = frac
		if _, err := Train(prof, p); err == nil {
			t.Errorf("explore fraction %v accepted", frac)
		}
	}
}

// FuzzFactoredScorer checks every formula's factored score, through both
// W11 paths, against the truth-table oracle on fuzzed histograms.
func FuzzFactoredScorer(f *testing.F) {
	for shape := 0; shape < numHistShapes; shape++ {
		f.Add(uint64(shape)+1, uint8(shape))
	}
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8) {
		T, NT := randomHist(seed, int(shape)%numHistShapes)
		checkFactoredScores(t, &T, &NT)
	})
}

// BenchmarkFindBooleanFormula times one (branch, length) scoring on a
// dense histogram at the default explore fraction and exhaustively.
func BenchmarkFindBooleanFormula(b *testing.B) {
	T, NT := randomHist(1, histDense)
	cs := buildCandidates(DefaultParams())
	var evals uint64
	b.Run("explore=0.05", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			findBooleanFormula(&T, &NT, cs, &evals)
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			findBooleanFormulaExhaustive(&T, &NT, &evals)
		}
	})
}
