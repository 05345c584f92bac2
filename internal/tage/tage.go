// Package tage implements a storage-parameterized TAGE-SC-L conditional
// branch predictor (Seznec, CBP 2014/2016): a bimodal base predictor,
// twelve partially-tagged tables indexed with geometrically increasing
// history lengths, a loop predictor, and a GEHL-style statistical
// corrector.
//
// This is the paper's baseline (Table II: "64KB TAGE-SC-L"); the
// experiments also instantiate it at 8KB-1MB for the predictor-size sweep
// (paper Fig 21). The implementation favors faithful *behaviour* —
// geometric history capture, tag-match allocation, usefulness-based
// replacement, capacity pressure proportional to the storage budget —
// over bit-exact equivalence with the CBP submission.
package tage

import (
	"fmt"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/xrand"
)

// numTables is the number of tagged components.
const numTables = 12

// geometric history lengths for the tagged tables, ~4..320 as in the
// 64KB TAGE-SC-L configuration.
var histLens = [numTables]int{4, 6, 9, 13, 19, 29, 43, 64, 96, 143, 214, 320}

// Config sizes a predictor instance.
type Config struct {
	// SizeKB is the total storage budget in kilobytes (8..1024).
	SizeKB int
	// Seed randomizes allocation tie-breaks; fixed by default so runs
	// are reproducible.
	Seed uint64
}

// DefaultConfig is the paper's 64KB baseline.
func DefaultConfig() Config { return Config{SizeKB: 64, Seed: 0xC0FFEE} }

type taggedEntry struct {
	tag  uint16
	ctr  bpu.Counter // 3-bit direction counter
	u    uint8       // 2-bit usefulness
	live bool
}

type loopEntry struct {
	tag      uint16
	pastIter uint16
	curIter  uint16
	conf     uint8
	age      uint8
	dir      bool // direction taken pastIter times before one flip
	live     bool
}

// TageSCL is a TAGE-SC-L predictor instance. Not safe for concurrent use.
type TageSCL struct {
	cfg Config

	base     []bpu.Counter // 2-bit bimodal
	baseMask uint64

	tables  [numTables][]taggedEntry
	tblMask uint64

	loop     []loopEntry
	loopMask uint64

	// Statistical corrector: per-feature weight tables of 6-bit signed
	// counters in [-32, 31].
	scTables [][]int8
	scLens   []int
	scMask   uint64
	scThresh int32
	useSC    bpu.Counter

	hist       bpu.History
	useAltOnNA bpu.Counter

	rng        *xrand.Rand
	updates    uint64
	suppressed map[uint64]bool // PCs whose entries Whisper forbids allocating

	// Prediction state carried from Predict to Update.
	last lastPred

	// idxPlan hashes the 12 table indices and the SC features in one
	// prefix-shared pass, tagPlan the 12 tags; idxOut and tagOut hold
	// the current prediction's hashes.
	idxPlan *bpu.HashPlan
	tagPlan *bpu.HashPlan
	idxOut  []uint64
	tagOut  []uint64
}

type lastPred struct {
	pc         uint64
	valid      bool
	idx        [numTables]uint64
	tag        [numTables]uint16
	provider   int // table index, or -1 for bimodal
	altPred    bool
	provPred   bool
	tagePred   bool // after use-alt policy
	final      bool
	newlyAlloc bool
	loopHit    bool
	loopPred   bool
	loopIdx    uint64
	scSum      int32
	scUsed     bool
	scIdx      []uint64
}

// New creates a predictor with the given configuration.
func New(cfg Config) *TageSCL {
	if cfg.SizeKB < 1 {
		panic("tage: SizeKB must be >= 1")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0xC0FFEE
	}
	budget := cfg.SizeKB * 1024 // bytes

	// Budget split: ~25% bimodal (2-bit entries), ~60% tagged (2-byte
	// entries across 12 tables), remainder loop + SC. Sizes round down
	// to powers of two.
	baseEntries := pow2Floor(budget / 4 * 4) // 2-bit entries: bytes*4
	tagEntries := pow2Floor(budget * 60 / 100 / (numTables * 2))
	if tagEntries < 16 {
		tagEntries = 16
	}
	if baseEntries < 64 {
		baseEntries = 64
	}
	loopEntries := pow2Floor(budget / 512)
	if loopEntries < 64 {
		loopEntries = 64
	}
	scEntries := pow2Floor(budget / 64)
	if scEntries < 64 {
		scEntries = 64
	}

	t := &TageSCL{
		cfg:      cfg,
		base:     make([]bpu.Counter, baseEntries),
		baseMask: uint64(baseEntries - 1),
		tblMask:  uint64(tagEntries - 1),
		loop:     make([]loopEntry, loopEntries),
		loopMask: uint64(loopEntries - 1),
		scLens:   []int{8, 16, 32, 64},
		scMask:   uint64(scEntries - 1),
		scThresh: 6,
		rng:      xrand.New(cfg.Seed),
	}
	for i := range t.base {
		t.base[i] = bpu.NewCounter(2)
	}
	for i := range t.tables {
		t.tables[i] = make([]taggedEntry, tagEntries)
	}
	t.scTables = make([][]int8, len(t.scLens)+1) // +1 bias table
	for i := range t.scTables {
		t.scTables[i] = make([]int8, scEntries)
	}
	t.useSC = bpu.NewCounter(4)
	t.useAltOnNA = bpu.NewCounter(4)
	t.last.scIdx = make([]uint64, len(t.scTables))
	idxLens := append(append([]int{}, histLens[:]...), t.scLens...)
	t.idxPlan = bpu.MakeHashPlan(idxLens)
	t.tagPlan = bpu.MakeHashPlan(histLens[:])
	t.idxOut = make([]uint64, len(idxLens))
	t.tagOut = make([]uint64, numTables)
	return t
}

func pow2Floor(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// Name implements bpu.Predictor.
func (t *TageSCL) Name() string { return fmt.Sprintf("tage-sc-l-%dKB", t.cfg.SizeKB) }

// SizeKB returns the configured storage budget.
func (t *TageSCL) SizeKB() int { return t.cfg.SizeKB }

// SuppressAllocation marks pc so that mispredictions of that branch never
// allocate new tagged entries. Whisper uses this to stop hint-covered
// branches from consuming predictor capacity (paper §IV "run-time hint
// usage").
func (t *TageSCL) SuppressAllocation(pc uint64) {
	if t.suppressed == nil {
		t.suppressed = make(map[uint64]bool)
	}
	t.suppressed[pc] = true
}

// ClearSuppressed removes all allocation suppressions.
func (t *TageSCL) ClearSuppressed() { t.suppressed = nil }

func (t *TageSCL) baseIdx(pc uint64) uint64 { return (pc >> 2) & t.baseMask }

// tagSeed perturbs the PC of the tag hashes so a table's tag is not a
// function of its index.
const tagSeed = 0xB5297A4D3F84D5B5

// Predict implements bpu.Predictor. Every history hash comes from two
// precompiled passes: one for the 12 table indices plus the SC
// features, one for the 12 tags.
func (t *TageSCL) Predict(pc uint64) bool {
	t.hist.HashPlanned(pc, t.idxPlan, t.idxOut)
	t.hist.HashPlanned(pc^tagSeed, t.tagPlan, t.tagOut)
	lp := &t.last
	for i := 0; i < numTables; i++ {
		lp.idx[i] = t.idxOut[i] & t.tblMask
		lp.tag[i] = uint16(t.tagOut[i]>>13) & 0x3FF // 10-bit tags
	}
	lp.pc = pc
	lp.valid = true
	lp.provider = -1
	lp.loopHit = false
	lp.scUsed = false

	basePred := t.base[t.baseIdx(pc)].Taken()
	lp.altPred = basePred

	alt := -1
	for i := numTables - 1; i >= 0; i-- {
		e := &t.tables[i][lp.idx[i]]
		if e.live && e.tag == lp.tag[i] {
			if lp.provider < 0 {
				lp.provider = i
			} else {
				alt = i
				break
			}
		}
	}
	if lp.provider >= 0 {
		pe := &t.tables[lp.provider][lp.idx[lp.provider]]
		lp.provPred = pe.ctr.Taken()
		if alt >= 0 {
			lp.altPred = t.tables[alt][lp.idx[alt]].ctr.Taken()
		}
		weak := !pe.ctr.Confident() && pe.u == 0
		lp.newlyAlloc = weak
		if weak && t.useAltOnNA.Taken() {
			lp.tagePred = lp.altPred
		} else {
			lp.tagePred = lp.provPred
		}
	} else {
		lp.provPred = basePred
		lp.tagePred = basePred
		lp.newlyAlloc = false
	}

	lp.final = lp.tagePred

	// Loop predictor override.
	li := (pc >> 2) & t.loopMask
	lp.loopIdx = li
	le := &t.loop[li]
	if le.live && le.tag == uint16(pc>>12) && le.conf >= 3 && le.pastIter >= 4 {
		lp.loopHit = true
		if le.curIter+1 >= le.pastIter {
			lp.loopPred = !le.dir
		} else {
			lp.loopPred = le.dir
		}
		lp.final = lp.loopPred
	}

	// Statistical corrector.
	lp.scIdx[0] = (pc >> 2) & t.scMask
	sum := int32(t.scTables[0][lp.scIdx[0]])
	for i := range t.scLens {
		idx := (t.idxOut[numTables+i] ^ uint64(i)*0x9E3779B9) & t.scMask
		lp.scIdx[i+1] = idx
		sum += int32(t.scTables[i+1][idx])
	}
	// Center with the TAGE prediction so SC corrects rather than
	// replaces.
	if lp.tagePred {
		sum += 4
	} else {
		sum -= 4
	}
	lp.scSum = sum
	if !lp.loopHit && t.useSC.Taken() {
		scPred := sum >= 0
		if scPred != lp.tagePred && abs32(sum) > t.scThresh {
			lp.scUsed = true
			lp.final = scPred
		}
	}
	return lp.final
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// Update implements bpu.Predictor. It must follow a Predict for the same
// pc; the harness guarantees this ordering.
func (t *TageSCL) Update(pc uint64, taken bool) {
	lp := &t.last
	if !lp.valid || lp.pc != pc {
		// Predict was skipped (e.g. the hybrid used a hint). Run it to
		// rebuild the metadata, then fall through.
		t.Predict(pc)
	}
	lp.valid = false
	t.updates++

	// --- Loop predictor training ---
	t.trainLoop(pc, taken, lp)

	// --- Statistical corrector training ---
	scPred := lp.scSum >= 0
	if lp.scUsed {
		t.useSC.Update(scPred == taken)
	}
	if scPred != taken || abs32(lp.scSum) <= t.scThresh+4 {
		d := int8(-1)
		if taken {
			d = 1
		}
		for i, tbl := range t.scTables {
			w := tbl[lp.scIdx[i]]
			nw := int16(w) + int16(d)
			if nw > 31 {
				nw = 31
			}
			if nw < -32 {
				nw = -32
			}
			tbl[lp.scIdx[i]] = int8(nw)
		}
	}

	// --- TAGE component training ---
	if lp.provider >= 0 {
		pe := &t.tables[lp.provider][lp.idx[lp.provider]]
		if lp.newlyAlloc && lp.provPred != lp.altPred {
			t.useAltOnNA.Update(lp.altPred == taken)
		}
		pe.ctr.Update(taken)
		if lp.provPred != lp.altPred {
			if lp.provPred == taken {
				if pe.u < 3 {
					pe.u++
				}
			} else if pe.u > 0 {
				pe.u--
			}
		}
		// Update base when the provider entry is still weak, keeping the
		// alt prediction trained.
		if !pe.ctr.Confident() {
			t.base[t.baseIdx(pc)].Update(taken)
		}
	} else {
		t.base[t.baseIdx(pc)].Update(taken)
	}

	// --- Allocation on TAGE misprediction ---
	if lp.tagePred != taken && lp.provider < numTables-1 && !t.suppressed[pc] {
		t.allocate(pc, taken, lp)
	}

	// Periodic graceful usefulness aging.
	if t.updates&(1<<18-1) == 0 {
		for i := range t.tables {
			for j := range t.tables[i] {
				t.tables[i][j].u >>= 1
			}
		}
	}

	t.hist.Push(taken)
}

func (t *TageSCL) allocate(pc uint64, taken bool, lp *lastPred) {
	start := lp.provider + 1
	// Randomized start (skip one table with probability 1/2) spreads
	// allocations across history lengths, as in the CBP code.
	if start < numTables-1 && t.rng.Bool(0.5) {
		start++
	}
	allocated := false
	for i := start; i < numTables; i++ {
		e := &t.tables[i][lp.idx[i]]
		if !e.live || e.u == 0 {
			e.live = true
			e.tag = lp.tag[i]
			e.ctr = bpu.NewCounter(3)
			e.ctr.Update(taken)
			e.u = 0
			allocated = true
			break
		}
	}
	if !allocated {
		for i := start; i < numTables; i++ {
			e := &t.tables[i][lp.idx[i]]
			if e.u > 0 {
				e.u--
			}
		}
	}
}

func (t *TageSCL) trainLoop(pc uint64, taken bool, lp *lastPred) {
	le := &t.loop[lp.loopIdx]
	tag := uint16(pc >> 12)
	if !le.live || le.tag != tag {
		// Replace only once the incumbent entry ages out.
		if le.live && le.age > 0 {
			le.age--
			return
		}
		*le = loopEntry{tag: tag, dir: taken, live: true, age: 7}
		return
	}
	// A confident entry that just mispredicted loses its confidence
	// immediately; a wrong loop hypothesis must not keep overriding TAGE.
	if lp.loopHit && lp.loopPred != taken {
		le.conf = 0
		le.pastIter = 0
		le.curIter = 0
		if le.age > 0 {
			le.age--
		}
		return
	}
	if taken == le.dir {
		if le.curIter < 0xFFFF {
			le.curIter++
		}
		// The body ran longer than the recorded trip count: the recorded
		// count is wrong.
		if le.pastIter != 0 && le.curIter > le.pastIter {
			le.conf = 0
			le.pastIter = 0
		}
		return
	}
	// Direction flipped: one full iteration count observed.
	if le.pastIter == le.curIter && le.pastIter != 0 {
		if le.conf < 7 {
			le.conf++
		}
	} else {
		le.conf = 0
		le.pastIter = le.curIter
	}
	le.curIter = 0
	if le.age < 7 {
		le.age++
	}
}
