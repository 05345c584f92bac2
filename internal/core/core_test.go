package core

import (
	"math"
	"testing"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/cfg"
	"github.com/whisper-sim/whisper/internal/formula"
	"github.com/whisper-sim/whisper/internal/hint"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
)

func mkApp(t *testing.T) *workload.App {
	t.Helper()
	app, err := workload.New(workload.Config{
		Name:           "core-test",
		Seed:           99,
		Functions:      80,
		BranchesPerFn:  5,
		ZipfS:          0.6,
		InstrPerRecord: 5,
		Mix:            workload.Mix{Biased: 0.25, Loop: 0.1, ShortHist: 0.15, LongHist: 0.35, DataDep: 0.15},
		Noise:          0.01,
		Inputs:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func collect(t *testing.T, mk func() trace.Stream) *profiler.Profile {
	t.Helper()
	p, err := profiler.Collect(mk, tage.New(tage.DefaultConfig()), profiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFindBooleanFormulaExactRecovery(t *testing.T) {
	// Histograms generated by a known formula must be solved exactly
	// when the formula is among the candidates.
	truth := formula.Uniform(formula.Impl, true)
	tt := truth.Table()
	var T, NT [256]uint32
	for h := 0; h < 256; h++ {
		if tt.Bit(uint8(h)) {
			T[h] = 10
		} else {
			NT[h] = 10
		}
	}
	cs := newCandidateSet([]formula.Formula{formula.Uniform(formula.And, false), truth})
	var evals uint64
	best, misp := findBooleanFormula(&T, &NT, cs, &evals)
	if best != truth || misp != 0 {
		t.Fatalf("best=%#x misp=%d, want exact recovery", uint16(best), misp)
	}
	if evals != 2 {
		t.Fatalf("evals = %d", evals)
	}
}

func TestFindBooleanFormulaCountsMispredictions(t *testing.T) {
	// All-AND tree vs histogram where h=0xFF taken 5, h=0x00 taken 7 and
	// not-taken 3: AND predicts taken only at 0xFF, so mispredictions =
	// 7 (taken at 0x00 predicted not-taken).
	var T, NT [256]uint32
	T[0xFF] = 5
	T[0x00] = 7
	NT[0x00] = 3
	and := formula.Uniform(formula.And, false)
	cs := newCandidateSet([]formula.Formula{and})
	var evals uint64
	_, misp := findBooleanFormula(&T, &NT, cs, &evals)
	if misp != 7 {
		t.Fatalf("misp = %d, want 7", misp)
	}
}

func TestBuildCandidatesFractionAndDeterminism(t *testing.T) {
	p := DefaultParams()
	cs := buildCandidates(p)
	want := int(float64(formula.NumFormulas)*p.ExploreFraction + 0.999999)
	if len(cs.formulas) != want {
		t.Fatalf("candidates %d, want %d", len(cs.formulas), want)
	}
	cs2 := buildCandidates(p)
	for i := range cs.formulas {
		if cs.formulas[i] != cs2.formulas[i] {
			t.Fatal("candidate order not reproducible")
		}
	}
	p.ExploreFraction = 1.0
	if got := len(buildCandidates(p).formulas); got != formula.NumFormulas {
		t.Fatalf("full exploration has %d candidates", got)
	}
}

func TestBuildCandidatesMonotoneOnly(t *testing.T) {
	p := DefaultParams()
	p.ExtendedOps = false
	p.ExploreFraction = 1.0
	cs := buildCandidates(p)
	// AND/OR-only non-inverted trees: 2^7 = 128.
	if len(cs.formulas) != 128 {
		t.Fatalf("monotone pool size %d, want 128", len(cs.formulas))
	}
	// Any fraction >= 1 explores the whole pool, +Inf included.
	p.ExploreFraction = math.Inf(1)
	if got := len(buildCandidates(p).formulas); got != 128 {
		t.Fatalf("monotone pool at +Inf has %d candidates, want 128", got)
	}
	for _, f := range cs.formulas {
		if f.Inverted() {
			t.Fatal("inverted formula in monotone pool")
		}
		for u := 0; u < formula.Units; u++ {
			if op := f.UnitOp(u); op != formula.And && op != formula.Or {
				t.Fatalf("op %v in monotone pool", op)
			}
		}
	}
}

func TestTrainRejectsMismatchedProfile(t *testing.T) {
	p := &profiler.Profile{Lengths: []int{4, 9}}
	if _, err := Train(p, DefaultParams()); err == nil {
		t.Fatal("mismatched profile accepted")
	}
}

func TestTrainProducesWinningHints(t *testing.T) {
	app := mkApp(t)
	mk := func() trace.Stream { return app.Stream(0, 120000) }
	prof := collect(t, mk)
	res, err := Train(prof, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trained == 0 || len(res.Hints) == 0 {
		t.Fatalf("trained=%d hints=%d", res.Trained, len(res.Hints))
	}
	for pc, h := range res.Hints {
		if h.ProfiledMisp >= h.BaselineMisp {
			t.Fatalf("hint %#x does not beat baseline", pc)
		}
		if h.Bias == hint.BiasNone && h.LengthIdx >= len(res.Lengths) {
			t.Fatalf("hint %#x length index %d out of range", pc, h.LengthIdx)
		}
	}
	if res.Duration <= 0 || res.FormulaEvals == 0 {
		t.Fatal("training cost not measured")
	}
}

func TestTrainFindsLongHistoryBranches(t *testing.T) {
	// Whisper's signature capability: hints for branches whose ground
	// truth lives at history lengths beyond ROMBF's 8 bits.
	app := mkApp(t)
	mk := func() trace.Stream { return app.Stream(0, 120000) }
	prof := collect(t, mk)
	res, err := Train(prof, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	longHints := 0
	for pc, h := range res.Hints {
		br, ok := app.Branch(pc)
		if !ok {
			t.Fatalf("hint for unknown pc %#x", pc)
		}
		if br.Class == workload.LongHist && h.Bias == hint.BiasNone && res.Lengths[h.LengthIdx] > 8 {
			longHints++
		}
	}
	if longHints == 0 {
		t.Fatal("no long-history hints learned")
	}
}

func TestHashedHistoryAblationWorse(t *testing.T) {
	app := mkApp(t)
	mk := func() trace.Stream { return app.Stream(0, 120000) }
	prof := collect(t, mk)
	full, err := Train(prof, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ab := DefaultParams()
	ab.HashedHistory = false
	short, err := Train(prof, ab)
	if err != nil {
		t.Fatal(err)
	}
	gain := func(r *TrainResult) (g uint64) {
		for _, h := range r.Hints {
			g += h.BaselineMisp - h.ProfiledMisp
		}
		return
	}
	if gain(full) <= gain(short) {
		t.Fatalf("hashed history gain %d not above short-history-only %d",
			gain(full), gain(short))
	}
}

func TestExtendedOpsAblationWorse(t *testing.T) {
	app := mkApp(t)
	mk := func() trace.Stream { return app.Stream(0, 120000) }
	prof := collect(t, mk)
	pFull := DefaultParams()
	pFull.ExploreFraction = 0.004 // enough candidates for both pools
	full, err := Train(prof, pFull)
	if err != nil {
		t.Fatal(err)
	}
	ab := pFull
	ab.ExtendedOps = false
	mono, err := Train(prof, ab)
	if err != nil {
		t.Fatal(err)
	}
	gain := func(r *TrainResult) (g uint64) {
		for _, h := range r.Hints {
			g += h.BaselineMisp - h.ProfiledMisp
		}
		return
	}
	if gain(full) < gain(mono) {
		t.Fatalf("extended ops gain %d below monotone-only %d", gain(full), gain(mono))
	}
}

func TestMoreExplorationNeverHurtsProfiledMisp(t *testing.T) {
	app := mkApp(t)
	mk := func() trace.Stream { return app.Stream(0, 60000) }
	prof := collect(t, mk)
	small := DefaultParams()
	small.ExploreFraction = 0.001
	large := DefaultParams()
	large.ExploreFraction = 0.01
	rs, err := Train(prof, small)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Train(prof, large)
	if err != nil {
		t.Fatal(err)
	}
	// The larger pool contains the smaller one as a prefix, so per-branch
	// profiled mispredictions can only improve.
	for pc, hs := range rs.Hints {
		if hl, ok := rl.Hints[pc]; ok && hl.ProfiledMisp > hs.ProfiledMisp {
			t.Fatalf("pc %#x: larger exploration worse (%d > %d)",
				pc, hl.ProfiledMisp, hs.ProfiledMisp)
		}
	}
	if rl.FormulaEvals <= rs.FormulaEvals {
		t.Fatal("larger exploration did not evaluate more formulas")
	}
}

func TestInjectPlacesAndDrops(t *testing.T) {
	app := mkApp(t)
	mk := func() trace.Stream { return app.Stream(0, 100000) }
	prof := collect(t, mk)
	res, err := Train(prof, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(mk())
	bin := Inject(res, g, InjectOptions{
		Placement:    cfg.DefaultPlacementOptions(),
		StaticInstrs: 50000,
		WindowInstrs: prof.Instrs,
	})
	if bin.Placed == 0 {
		t.Fatal("nothing placed")
	}
	if bin.Placed+bin.Dropped != len(res.Hints) {
		t.Fatalf("placed %d + dropped %d != hints %d", bin.Placed, bin.Dropped, len(res.Hints))
	}
	if bin.StaticOverhead() <= 0 || bin.DynamicOverhead() <= 0 {
		t.Fatal("overheads not computed")
	}
	// Every placed hint must satisfy the 12-bit offset constraint.
	for host, hs := range bin.ByHost {
		for _, ph := range hs {
			off := int64(ph.Hint.PC) - int64(host)
			if off < -hint.MaxOffset || off >= hint.MaxOffset {
				t.Fatalf("placed hint out of range: host %#x branch %#x", host, ph.Hint.PC)
			}
			if _, err := ph.Encoded.Encode(); err != nil {
				t.Fatalf("unencodable placed hint: %v", err)
			}
		}
	}
}

func TestRuntimeUsesHints(t *testing.T) {
	app := mkApp(t)
	mk := func() trace.Stream { return app.Stream(0, 100000) }
	prof := collect(t, mk)
	res, err := Train(prof, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(mk())
	bin := Inject(res, g, InjectOptions{Placement: cfg.DefaultPlacementOptions(), WindowInstrs: prof.Instrs})

	run := func(p bpu.Predictor, hook interface{ OnRecord(*trace.Record) }) (misp, total uint64) {
		s := mk()
		var rec trace.Record
		for s.Next(&rec) {
			if rec.Kind == trace.CondBranch {
				if p.Predict(rec.PC) != rec.Taken {
					misp++
				}
				total++
				p.Update(rec.PC, rec.Taken)
			}
			if hook != nil {
				hook.OnRecord(&rec)
			}
		}
		return
	}
	baseMisp, _ := run(tage.New(tage.DefaultConfig()), nil)
	rt := NewRuntime(tage.New(tage.DefaultConfig()), bin, res.Lengths, 0)
	whMisp, _ := run(rt, rt)
	if rt.HintPredictions == 0 {
		t.Fatal("runtime never used a hint")
	}
	if rt.HintExecutions == 0 {
		t.Fatal("no hint executions recorded")
	}
	if whMisp >= baseMisp {
		t.Fatalf("whisper (%d) not better than baseline (%d)", whMisp, baseMisp)
	}
	reduction := float64(baseMisp-whMisp) / float64(baseMisp)
	t.Logf("misprediction reduction: %.1f%% (buffer hit rate %.2f)",
		reduction*100, rt.Buffer().HitRate())
	if reduction < 0.05 {
		t.Fatalf("reduction %.3f too small for a LongHist-heavy app", reduction)
	}
}

func TestRuntimeBufferCapacityMatters(t *testing.T) {
	app := mkApp(t)
	mk := func() trace.Stream { return app.Stream(0, 80000) }
	prof := collect(t, mk)
	res, _ := Train(prof, DefaultParams())
	g := cfg.Build(mk())
	bin := Inject(res, g, InjectOptions{Placement: cfg.DefaultPlacementOptions()})

	mispWith := func(bufSize int) uint64 {
		rt := NewRuntime(tage.New(tage.DefaultConfig()), bin, res.Lengths, bufSize)
		s := mk()
		var rec trace.Record
		var misp uint64
		for s.Next(&rec) {
			if rec.Kind == trace.CondBranch {
				if rt.Predict(rec.PC) != rec.Taken {
					misp++
				}
				rt.Update(rec.PC, rec.Taken)
			}
			rt.OnRecord(&rec)
		}
		return misp
	}
	tiny := mispWith(1)
	normal := mispWith(hint.BufferSize)
	// A 1-entry buffer thrashes between hints; the 32-entry default must
	// not be meaningfully worse (tiny eviction-timing differences can
	// swing a handful of predictions either way).
	if normal > tiny+tiny/200 {
		t.Fatalf("32-entry buffer (%d misp) worse than 1-entry (%d)", normal, tiny)
	}
}

func TestDefaultParamsMatchTableIII(t *testing.T) {
	p := DefaultParams()
	if p.MinHistory != 8 || p.MaxHistory != 1024 || p.NumLengths != 16 {
		t.Fatalf("series %d..%d x%d", p.MinHistory, p.MaxHistory, p.NumLengths)
	}
	ls := p.Lengths()
	if ls[0] != 8 || ls[len(ls)-1] != 1024 {
		t.Fatalf("lengths %v", ls)
	}
}
