// Package core implements Whisper's primary contribution (paper §III):
// profile-guided branch misprediction elimination through
//
//  1. hashed history correlation — correlating a branch's direction with
//     the XOR-folded hash of variable-length histories drawn from a
//     geometric series (a=8, N=1024, m=16),
//  2. randomized formula testing — scoring only a Fisher-Yates-randomized
//     subset of the 2^15 extended Boolean formulas, and
//  3. extended Read-Once Monotone Boolean Formulas with Implication and
//     Converse Non-Implication.
//
// Training consumes an in-production profile (internal/profiler), selects
// the best (history length, formula) pair per hard branch with the
// paper's Algorithm 1, and keeps a hint only when it beats the profiled
// predictor. Link-time injection (internal/cfg placement + internal/hint
// encoding) produces an "updated binary"; the Runtime type models the
// hint buffer and micro-architectural formula evaluation next to the
// baseline predictor.
package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/formula"
	"github.com/whisper-sim/whisper/internal/hint"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/runner"
	"github.com/whisper-sim/whisper/internal/telemetry"
	"github.com/whisper-sim/whisper/internal/xrand"
)

// Params are Whisper's design parameters (paper Table III).
type Params struct {
	// MinHistory, MaxHistory, NumLengths define the geometric series
	// (8, 1024, 16).
	MinHistory, MaxHistory, NumLengths int
	// ExploreFraction is the share of all 2^15 formulas that randomized
	// formula testing scores per branch. The paper reports 0.1% as its
	// knee; with this reproduction's uniform synthetic fold
	// distributions the accuracy landscape is sparser and the knee sits
	// near 5% (see EXPERIMENTS.md, Fig 15), which is the default here.
	// Values >= 1 switch to the exact factorized exhaustive search; NaN
	// and values <= 0 are rejected (see ValidExploreFraction).
	ExploreFraction float64
	// Seed drives the shared Fisher-Yates permutation.
	Seed uint64
	// MinExecs skips branches with too few profile samples.
	MinExecs uint64
	// MinGainFrac and MinGainAbs set the deployment bar: a hint is kept
	// only when its profiled mispredictions undercut the baseline's by
	// at least MinGainFrac (relative) and MinGainAbs (absolute).
	// Marginal hints do not survive input drift (paper Fig 17), so the
	// bar trades a little same-input reduction for cross-input
	// robustness.
	MinGainFrac float64
	MinGainAbs  uint64

	// HashedHistory enables technique (1); when false only the raw
	// 8-bit history is considered (the Fig 14 ablation).
	HashedHistory bool
	// ExtendedOps enables technique (3); when false candidate formulas
	// are restricted to AND/OR trees (plus inversion is disabled), i.e.
	// plain ROMBF expressiveness.
	ExtendedOps bool
	// NoValidation deploys hints on training-half numbers alone,
	// skipping the held-out check (the literal Algorithm 1; an ablation
	// showing why the validation split exists — without it, formulas
	// that fit profile noise ship and regress on unseen inputs).
	NoValidation bool
}

// DefaultParams returns Table III.
func DefaultParams() Params {
	return Params{
		MinHistory:      bpu.GeomMin,
		MaxHistory:      bpu.GeomMax,
		NumLengths:      bpu.GeomCount,
		ExploreFraction: 0.05,
		Seed:            0x3B157E12,
		MinExecs:        20,
		MinGainFrac:     0.10,
		MinGainAbs:      2,
		HashedHistory:   true,
		ExtendedOps:     true,
	}
}

// Lengths returns the geometric series for the parameters.
func (p Params) Lengths() []int {
	return bpu.GeomLengths(p.MinHistory, p.MaxHistory, p.NumLengths)
}

// Hint is one trained Whisper annotation prior to injection.
type Hint struct {
	PC uint64
	// LengthIdx indexes Params.Lengths(); meaningful when Bias is
	// BiasNone.
	LengthIdx int
	Formula   formula.Formula
	Bias      hint.Bias
	// ProfiledMisp is the hint's misprediction count on the training
	// histograms; BaselineMisp the profiled predictor's over the full
	// window; ValMisp the hint's count on the held-out validation half.
	ProfiledMisp, BaselineMisp, ValMisp uint64
}

// TrainResult carries the hints plus training cost (paper Figs 15/16).
type TrainResult struct {
	Hints   map[uint64]Hint
	Params  Params
	Lengths []int
	Trained int
	// Duration is the wall time of the search, which Train spreads over
	// up to GOMAXPROCS cores; the ROMBF and BranchNet trainers of Fig 16
	// train on one.
	Duration time.Duration
	// FormulaEvals counts Algorithm 1 formula scorings (the randomized
	// testing exploration cost).
	FormulaEvals uint64
}

// candidateSet is the shared randomized formula order, compiled for the
// factored scorer below. The candidate set is fixed for a whole Train
// call, so which (lo, hi) pairs and which s1 rows a scoring needs is
// decided once here: no per-call memo, and each pair's W11 is computed
// exactly once per (branch, length).
type candidateSet struct {
	formulas []formula.Formula
	// cands[i] is formulas[i] split into its pair index and the
	// quadrants its root op and inversion select.
	cands []candidate
	// pairs are the distinct (lo, hi) encodings in first-use order.
	pairs []subtreePair
	// s1Los are the low encodings shared by two or more pairs; a low
	// encoding with a single pair sums that pair directly from D.
	s1Los []uint8

	// Per-call scratch, fully overwritten by every scoring, so a set
	// scores on one goroutine at a time (see forWorker).
	w11 []int64
	sc  scorer
}

// forWorker returns a copy of cs for one training worker: it shares
// cs's compiled candidates, which no scoring writes, and owns its
// scratch.
func (cs *candidateSet) forWorker() *candidateSet {
	return &candidateSet{
		formulas: cs.formulas,
		cands:    cs.cands,
		pairs:    cs.pairs,
		s1Los:    cs.s1Los,
		w11:      make([]int64, len(cs.pairs)),
	}
}

// candidate is one formula split for scoring: its (lo, hi) pair's index
// and encodings, and the quadrants its root op and inversion select
// (see onMask).
type candidate struct {
	pair   uint16
	lo, hi uint8
	on     uint8
}

// subtreePair is one distinct (lo, hi) pair and how its W11 is summed.
type subtreePair struct {
	lo, hi uint8
	viaS1  bool
}

// newCandidateSet compiles formulas, in scoring order, for the factored
// scorer.
func newCandidateSet(formulas []formula.Formula) *candidateSet {
	cs := &candidateSet{formulas: formulas, cands: make([]candidate, len(formulas))}
	var pairOf [64 * 64]uint16 // pair index + 1; 0 = not seen yet
	var pairsOfLo [64]int
	for i, f := range formulas {
		lo, hi, root, inv := splitFormula(f)
		k := int(lo)<<6 | int(hi)
		if pairOf[k] == 0 {
			cs.pairs = append(cs.pairs, subtreePair{lo: lo, hi: hi})
			pairOf[k] = uint16(len(cs.pairs))
			pairsOfLo[lo]++
		}
		cs.cands[i] = candidate{pair: pairOf[k] - 1, lo: lo, hi: hi, on: onMask(root, inv)}
	}
	for i := range cs.pairs {
		cs.pairs[i].viaS1 = pairsOfLo[cs.pairs[i].lo] > 1
	}
	for e := 0; e < 64; e++ {
		if pairsOfLo[e] > 1 {
			cs.s1Los = append(cs.s1Los, uint8(e))
		}
	}
	cs.w11 = make([]int64, len(cs.pairs))
	return cs
}

// buildCandidates constructs the explored candidate list: a single
// Fisher-Yates permutation of the full encoding space, generated once and
// shared across branches (paper §III-B), truncated to the explore
// fraction. With ExtendedOps disabled, the space is first filtered to
// AND/OR-only, non-inverted trees (ROMBF expressiveness).
func buildCandidates(p Params) *candidateSet {
	rng := xrand.New(p.Seed)
	perm := rng.Perm16(formula.NumFormulas)
	var pool []formula.Formula
	if p.ExtendedOps {
		pool = make([]formula.Formula, len(perm))
		for i, enc := range perm {
			pool[i] = formula.Formula(enc)
		}
	} else {
		for _, enc := range perm {
			f := formula.Formula(enc)
			if f.Inverted() {
				continue
			}
			ok := true
			for u := 0; u < formula.Units; u++ {
				if op := f.UnitOp(u); op != formula.And && op != formula.Or {
					ok = false
					break
				}
			}
			if ok {
				pool = append(pool, f)
			}
		}
	}
	n := len(pool)
	if p.ExploreFraction < 1 {
		n = int(float64(len(pool))*p.ExploreFraction + 0.999999)
		if n < 1 {
			n = 1
		}
	}
	return newCandidateSet(pool[:n])
}

// findBooleanFormula is the paper's Algorithm 1: given taken/not-taken
// histogram tables keyed by hashed history, return the candidate formula
// with the fewest mispredictions (the first one, in candidate order, on
// a tie). evals receives the number of formulas scored.
func findBooleanFormula(T, NT *[256]uint32, cs *candidateSet, evals *uint64) (best formula.Formula, bestMisp uint64) {
	s := &cs.sc
	s.load(T, NT)
	for _, lo := range cs.s1Los {
		s.buildS1(lo)
	}
	for i, p := range cs.pairs {
		if p.viaS1 {
			cs.w11[i] = s.w11FromS1(p.lo, p.hi)
		} else {
			cs.w11[i] = s.w11Direct(p.lo, p.hi)
		}
	}
	bestIdx, bestM := 0, int64(math.MaxInt64)
	for i, c := range cs.cands {
		q := s.quadrants(c.lo, c.hi, cs.w11[c.pair])
		if m := s.totalT + onSum(&q, c.on); m < bestM {
			bestIdx, bestM = i, m
		}
	}
	*evals += uint64(len(cs.cands))
	return cs.formulas[bestIdx], uint64(bestM)
}

// findBooleanFormulaExhaustive returns the exact optimum over all 2^15
// extended formulas for the histogram pair, scanning them in canonical
// (lo, hi, root, inv) order.
func findBooleanFormulaExhaustive(T, NT *[256]uint32, evals *uint64) (formula.Formula, uint64) {
	var s scorer
	s.load(T, NT)
	bestMisp := int64(math.MaxInt64)
	var best formula.Formula
	for lo := uint8(0); lo < 64; lo++ {
		s.buildS1(lo)
		for hi := uint8(0); hi < 64; hi++ {
			q := s.quadrants(lo, hi, s.w11FromS1(lo, hi))
			for k, on := range canonicalOn {
				if m := s.totalT + onSum(&q, on); m < bestMisp {
					bestMisp = m
					best = joinFormula(lo, hi, formula.Op(k>>1), k&1 == 1)
				}
			}
		}
	}
	*evals += formula.NumFormulas
	return best, uint64(bestMisp)
}

// --- Factored partial sums -------------------------------------------------
//
// A formula is inv ⊕ root(u4, u5): u4 is the 3-unit subtree over the low
// history nibble b0..b3 (units 0, 1, 4: 64 "low encodings"), u5 the one
// over the high nibble b4..b7 (units 2, 3, 5: 64 "high encodings"). With
// D[h] = NT[h] − T[h], a formula's misprediction count is
// totalT + Σ_{f(h)=1} D[h], and that sum splits over the four quadrants
// of (u4, u5) outputs. Only W11, the quadrant where both subtrees output
// 1, depends on the (lo, hi) pair jointly; with the per-encoding sums
// R1[lo] = Σ_{u4=1} D and C1[hi] = Σ_{u5=1} D the other three follow:
//
//	W10 = R1 − W11,   W01 = C1 − W11,   W00 = total − R1 − C1 + W11.
//
// A candidate thus costs one W11 per distinct pair plus a combine of the
// quadrants its root op and inversion select. W11 is either read off an
// s1 row (s1[lo][hi4] = Σ_{u4(lo4)=1} D[hi4<<4|lo4], built once per low
// encoding) or, for a low encoding with one pair, summed directly from
// D. Every sum over a subtree's ones adds at most eight terms (nibSet).
// The arithmetic is exact int64, so every score equals the truth-table
// count the tests keep as the oracle.

// scorer holds one histogram pair's partial sums. Every table is
// written before it is read, so one scorer is reused without clearing.
type scorer struct {
	// d[hi4][lo4] = NT[h] − T[h] at h = hi4<<4 | lo4.
	d             [16][16]int64
	totalT, total int64
	// lowSum[lo4] sums d over hi4; highSum[hi4] sums d over lo4.
	lowSum, highSum [16]int64
	// r1[lo] sums D where u4 = 1; c1[hi] where u5 = 1.
	r1, c1 [64]int64
	s1     [64][16]int64
}

// load fills d, the totals, and every encoding's r1 and c1 for one
// histogram pair.
func (s *scorer) load(T, NT *[256]uint32) {
	s.totalT, s.total = 0, 0
	s.lowSum = [16]int64{}
	for hi4 := 0; hi4 < 16; hi4++ {
		var row int64
		for lo4 := 0; lo4 < 16; lo4++ {
			h := hi4<<4 | lo4
			v := int64(NT[h]) - int64(T[h])
			s.d[hi4][lo4] = v
			s.totalT += int64(T[h])
			s.lowSum[lo4] += v
			row += v
		}
		s.highSum[hi4] = row
		s.total += row
	}
	for e := range nibSets {
		s.r1[e] = nibSets[e].sum(&s.lowSum, s.total)
		s.c1[e] = nibSets[e].sum(&s.highSum, s.total)
	}
}

// buildS1 fills the s1 row of low encoding lo.
func (s *scorer) buildS1(lo uint8) {
	ns := &nibSets[lo]
	for hi4 := range s.d {
		s.s1[lo][hi4] = ns.sum(&s.d[hi4], s.highSum[hi4])
	}
}

// w11FromS1 reads the pair's W11 quadrant off the s1 row of lo, built
// beforehand; the row sums to R1[lo].
func (s *scorer) w11FromS1(lo, hi uint8) int64 {
	return nibSets[hi].sum(&s.s1[lo], s.r1[lo])
}

// w11Direct sums the pair's W11 quadrant straight from d.
func (s *scorer) w11Direct(lo, hi uint8) int64 {
	nl, nh := &nibSets[lo], &nibSets[hi]
	var w int64
	for _, hi4 := range nh.idx[:nh.n] {
		w += nl.sum(&s.d[hi4&15], s.highSum[hi4&15])
	}
	if nh.comp {
		return s.r1[lo] - w
	}
	return w
}

// quadrants returns pair (lo, hi)'s D sums W00, W01, W10, W11, indexed
// a<<1|b for u4 = a, u5 = b.
func (s *scorer) quadrants(lo, hi uint8, w11 int64) [4]int64 {
	r1, c1 := s.r1[lo], s.c1[hi]
	return [4]int64{s.total - r1 - c1 + w11, c1 - w11, r1 - w11, w11}
}

// onSum adds up the quadrants selected by on, without branching on it;
// totalT plus the sum is the misprediction count of the formula.
func onSum(q *[4]int64, on uint8) int64 {
	o := int64(on)
	return q[0]&-(o&1) + q[1]&-(o>>1&1) + q[2]&-(o>>2&1) + q[3]&-(o>>3&1)
}

// nibSet lists where a 3-unit subtree outputs 1 as at most eight of the
// sixteen nibble values: the ones themselves or, when more than eight
// are ones, the zeros (comp), whose sum is taken off the total.
type nibSet struct {
	idx  [8]uint8
	n    int
	comp bool
}

// sum returns the sum of x[v] over the nibble values v where the subtree
// outputs 1; all must be the sum of all of x.
func (ns *nibSet) sum(x *[16]int64, all int64) int64 {
	var s int64
	for _, v := range ns.idx[:ns.n] {
		s += x[v&15]
	}
	if ns.comp {
		return all - s
	}
	return s
}

// nibSets[e] is the nibSet of the 3-unit subtree with encoding e (2 bits
// per unit: units a, b feed unit c).
var nibSets = func() (t [64]nibSet) {
	for e := range t {
		opA := formula.Op(e & 3)
		opB := formula.Op((e >> 2) & 3)
		opC := formula.Op((e >> 4) & 3)
		var ones, zeros []uint8
		for v := uint8(0); v < 16; v++ {
			if opC.Apply(opA.Apply(v&1 != 0, v&2 != 0), opB.Apply(v&4 != 0, v&8 != 0)) {
				ones = append(ones, v)
			} else {
				zeros = append(zeros, v)
			}
		}
		ns := &t[e]
		if len(ones) > 8 {
			ones, ns.comp = zeros, true
		}
		ns.n = copy(ns.idx[:], ones)
	}
	return
}()

// onMask returns the quadrants (bit a<<1|b for u4 = a, u5 = b) where the
// formula with this root op and inversion flag outputs 1.
func onMask(root formula.Op, inv bool) uint8 {
	var m uint8
	for q := 0; q < 4; q++ {
		if root.Apply(q>>1 != 0, q&1 != 0) != inv {
			m |= 1 << q
		}
	}
	return m
}

// canonicalOn lists onMask for every (root, inv) in the exhaustive
// search's order: root-major, non-inverted first.
var canonicalOn = func() (t [2 * formula.NumOps]uint8) {
	for k := range t {
		t[k] = onMask(formula.Op(k>>1), k&1 == 1)
	}
	return
}()

// splitFormula returns f's low-nibble subtree encoding (units 0, 1, 4),
// high-nibble encoding (units 2, 3, 5), root op (unit 6) and inversion
// flag.
func splitFormula(f formula.Formula) (lo, hi uint8, root formula.Op, inv bool) {
	lo = uint8(f&0xF) | uint8(f>>8&3)<<4
	hi = uint8(f>>4&0xF) | uint8(f>>10&3)<<4
	return lo, hi, f.UnitOp(6), f.Inverted()
}

// joinFormula is the inverse of splitFormula.
func joinFormula(lo, hi uint8, root formula.Op, inv bool) formula.Formula {
	f := formula.Formula(lo&0xF) | formula.Formula(hi&0xF)<<4 |
		formula.Formula(lo>>4)<<8 | formula.Formula(hi>>4)<<10 | formula.Formula(root)<<12
	if inv {
		f |= 1 << (2 * formula.Units)
	}
	return f
}

// ValidExploreFraction reports whether f can be a Params.ExploreFraction:
// a positive number (values >= 1 select the exhaustive search). NaN, 0
// and negative fractions would otherwise round to a single candidate.
func ValidExploreFraction(f float64) bool { return f > 0 }

// Train learns Whisper hints from a profile collected with the same
// geometric length series (profiler defaults). Each hard branch's
// search reads only that branch's histograms, so the branches are
// scored on runtime.GOMAXPROCS(0) workers (runner.Pool) and merged in
// PC order after the join: the result, Duration aside, is the same at
// any GOMAXPROCS.
func Train(p *profiler.Profile, params Params) (*TrainResult, error) {
	sp := telemetry.StartSpan("train")
	defer sp.End()
	lengths := params.Lengths()
	if len(p.Lengths) < len(lengths) {
		return nil, fmt.Errorf("core: profile has %d lengths, params need %d", len(p.Lengths), len(lengths))
	}
	for i, l := range lengths {
		if p.Lengths[i] != l {
			return nil, fmt.Errorf("core: profile length[%d]=%d, params expect %d", i, p.Lengths[i], l)
		}
	}
	if !ValidExploreFraction(params.ExploreFraction) {
		return nil, fmt.Errorf("core: explore fraction %v is not positive", params.ExploreFraction)
	}
	start := time.Now()
	exhaustive := params.ExploreFraction >= 1 && params.ExtendedOps
	var cs *candidateSet
	if !exhaustive {
		cs = buildCandidates(params)
	}
	res := &TrainResult{
		Hints:   make(map[uint64]Hint),
		Params:  params,
		Lengths: lengths,
	}

	pcs := make([]uint64, 0, len(p.Hard))
	for pc := range p.Hard {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })

	nLengths := len(lengths)
	if !params.HashedHistory {
		nLengths = 1 // only the raw 8-bit history (lengths[0] == 8)
	}

	pool := runner.Pool{Workers: runtime.GOMAXPROCS(0)}
	workerCS := make([]*candidateSet, pool.Workers)
	out := make([]branchResult, len(pcs))
	// No unit returns an error, and a panic is raised again here.
	_ = pool.Run(len(pcs), func(i int, u *runner.Unit) error {
		wcs := workerCS[u.Worker]
		if wcs == nil && cs != nil {
			wcs = cs.forWorker()
			workerCS[u.Worker] = wcs
		}
		out[i] = trainBranch(pcs[i], p.Hard[pcs[i]], params, nLengths, wcs)
		return nil
	})
	for i, br := range out {
		if !br.trained {
			continue
		}
		res.Trained++
		res.FormulaEvals += br.evals
		if br.deploy {
			res.Hints[pcs[i]] = br.hint
		}
	}
	res.Duration = time.Since(start)
	if r := telemetry.Default(); r != nil {
		r.Counter("whisper_train_runs_total").Inc()
		r.Counter("whisper_train_branches_total").Add(uint64(res.Trained))
		r.Counter("whisper_train_hints_total").Add(uint64(len(res.Hints)))
		r.Counter("whisper_train_formula_evals_total").Add(res.FormulaEvals)
	}
	return res, nil
}

// branchResult is one hard branch's outcome of Train.
type branchResult struct {
	// trained reports that the branch cleared the evidence floor and
	// was searched; deploy that its selected hint cleared the bar.
	trained, deploy bool
	hint            Hint
	evals           uint64
}

// trainBranch runs Algorithm 1 for the hard branch at pc over its first
// nLengths history lengths: the randomized search over cs, a worker's
// copy, or the exhaustive one when cs is nil.
func trainBranch(pc uint64, hp *profiler.HardProfile, params Params, nLengths int, cs *candidateSet) (br branchResult) {
	// Evidence floor: a hint trained from a handful of executions is
	// statistically fragile, and under input drift a rarely-executed
	// branch can become hot — deploying on thin evidence risks large
	// regressions.
	if hp.Execs < params.MinExecs || hp.MeasExecs < params.MinExecs {
		return br
	}
	br.trained = true

	var takenTotal, ntTotal uint64
	for h := 0; h < 256; h++ {
		takenTotal += uint64(hp.T[0][h])
		ntTotal += uint64(hp.NT[0][h])
	}

	// Bias candidates: tautology and contradiction (2-bit Bias field).
	best := Hint{PC: pc, Bias: hint.BiasTaken, ProfiledMisp: ntTotal}
	if takenTotal < best.ProfiledMisp {
		best = Hint{PC: pc, Bias: hint.BiasNotTaken, ProfiledMisp: takenTotal}
	}

	// Hashed history correlation: pick the length whose best formula
	// mispredicts least on the training half (paper §III-A).
	for li := 0; li < nLengths; li++ {
		var f formula.Formula
		var misp uint64
		if cs == nil {
			f, misp = findBooleanFormulaExhaustive(&hp.T[li], &hp.NT[li], &br.evals)
		} else {
			f, misp = findBooleanFormula(&hp.T[li], &hp.NT[li], cs, &br.evals)
		}
		if misp < best.ProfiledMisp {
			best = Hint{PC: pc, LengthIdx: li, Formula: f, Bias: hint.BiasNone, ProfiledMisp: misp}
		}
	}
	best.BaselineMisp = hp.Misp

	// Validate the single selected candidate on the held-out half:
	// a formula that fit profile noise (a data-dependent branch) or
	// only the baseline predictor's cold start will not clear the
	// bar here, which is what keeps hints useful on unseen inputs
	// (paper Fig 17).
	valMisp := hintMispOn(best, &hp.VT, &hp.VNT)
	best.ValMisp = valMisp
	if params.NoValidation {
		br.deploy = beatsBar(best.ProfiledMisp, hp.Misp, params.MinGainFrac, params.MinGainAbs)
	} else {
		br.deploy = beatsBar(valMisp, hp.MispVal, params.MinGainFrac, params.MinGainAbs)
	}
	br.hint = best
	return br
}

// beatsBar reports whether hint mispredictions undercut the baseline by
// the configured relative and absolute margins.
func beatsBar(hintMisp, baseMisp uint64, frac float64, abs uint64) bool {
	if hintMisp+abs > baseMisp {
		return false
	}
	return float64(baseMisp-hintMisp) >= frac*float64(baseMisp)
}

// hintMispOn counts the hint's mispredictions over validation histograms.
func hintMispOn(h Hint, vt, vnt *[][256]uint32) uint64 {
	var misp uint64
	switch h.Bias {
	case hint.BiasTaken:
		for hh := 0; hh < 256; hh++ {
			misp += uint64((*vnt)[0][hh])
		}
	case hint.BiasNotTaken:
		for hh := 0; hh < 256; hh++ {
			misp += uint64((*vt)[0][hh])
		}
	default:
		tt := h.Formula.Table()
		for hh := 0; hh < 256; hh++ {
			if tt.Bit(uint8(hh)) {
				misp += uint64((*vnt)[h.LengthIdx][hh])
			} else {
				misp += uint64((*vt)[h.LengthIdx][hh])
			}
		}
	}
	return misp
}
