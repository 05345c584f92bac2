// Package mtage implements an unlimited-storage MTAGE-SC-style predictor,
// the paper's upper-bound comparison point ("the best predictor in the
// unlimited storage category of CBP-5", §V-B).
//
// With no storage constraint there are no tags, no associativity and no
// eviction: each geometric history component maps (PC, history hash) to a
// saturating counter, and a statistical corrector combines per-PC bias
// with the longest-match prediction. The predictor still mispredicts on
// compulsory (first-seen substream) and data-dependent branches, which is
// exactly the residual the paper reports for MTAGE-SC (branch-MPKI 1.4
// where 1MB TAGE-SC-L sits at 1.9).
//
// The components are custom open-addressed hash tables rather than Go
// maps: linear probing over power-of-two slot arrays storing the full
// 128-bit key, with the counter byte doubling as the empty marker. The
// predictor never deletes, so probes need no tombstones, and the slot
// found during prediction is carried into Update so each of the 16
// components pays one probe per record instead of three (predict scan,
// trainer read, trainer write). Counter updates are branchless
// saturating arithmetic. Together these took the component cost from
// the dominant share of ~2.9us/record down to where the planned hash
// pass shows the same kind of win it does on TAGE (see
// docs/performance.md).
package mtage

import (
	"github.com/whisper-sim/whisper/internal/bpu"
)

// history lengths for the unlimited components: a denser geometric series
// than the 64KB TAGE, reaching the full 1024-bit history window.
var histLens = []int{2, 4, 6, 9, 13, 19, 29, 43, 64, 96, 143, 214, 320, 480, 720, 1024}

type key struct {
	pc uint64
	h  uint64
}

// ctr is a 3-bit saturating counter in [0,7], weak threshold 4,
// stored as one byte.
type ctr uint8

func (c ctr) taken() bool     { return c > 3 }
func (c ctr) confident() bool { return c == 0 || c == 7 }

// update saturates branchlessly: nv ranges over [-1, 8]; the first mask
// floors negative values at 0 (arithmetic shift smears the sign bit),
// the second folds 8 back to 7 (only 8 has bit 3 set).
func (c ctr) update(taken bool) ctr {
	t := int8(0)
	if taken {
		t = 1
	}
	nv := int8(c) + 2*t - 1
	nv &^= nv >> 7
	nv -= nv >> 3
	return ctr(nv)
}

// trustUpdate is the same trick for the 4-bit trust counters in [0,15].
func trustUpdate(tc uint8, up bool) uint8 {
	t := int8(0)
	if up {
		t = 1
	}
	nv := int8(tc) + 2*t - 1
	nv &^= nv >> 7
	nv -= nv >> 4
	return uint8(nv)
}

// emptySlot marks a free table slot in the value array; live counters
// only use 0..7.
const emptySlot = 0xFF

// comp is one unbounded history component: an open-addressed hash table
// from key to a counter byte, grown at 7/8 load. Entries are never
// deleted, so linear probing needs no tombstones and a recorded slot
// stays valid until the component itself grows.
type comp struct {
	keys []key
	vals []uint8
	live int
	mask uint64
}

const compInitSlots = 1024

func newComp() comp {
	c := comp{
		keys: make([]key, compInitSlots),
		vals: make([]uint8, compInitSlots),
		mask: compInitSlots - 1,
	}
	for i := range c.vals {
		c.vals[i] = emptySlot
	}
	return c
}

// khash mixes the two key words with a murmur-style finalizer; the low
// bits index the table, so the raw history hash cannot be used alone.
func khash(k key) uint64 {
	x := k.pc*0x9E3779B97F4A7C15 ^ k.h
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return x
}

// find probes for k and returns its slot, or the empty slot where k
// would be inserted; ok reports whether k is present.
func (c *comp) find(k key) (slot int, ok bool) {
	i := khash(k) & c.mask
	for {
		if c.vals[i] == emptySlot {
			return int(i), false
		}
		if c.keys[i] == k {
			return int(i), true
		}
		i = (i + 1) & c.mask
	}
}

// insertAt fills the empty slot previously returned by find.
func (c *comp) insertAt(slot int, k key, v uint8) {
	c.keys[slot] = k
	c.vals[slot] = v
	c.live++
	if uint64(c.live)*8 >= (c.mask+1)*7 {
		c.grow()
	}
}

func (c *comp) grow() {
	oldKeys, oldVals := c.keys, c.vals
	n := (c.mask + 1) * 2
	c.keys = make([]key, n)
	c.vals = make([]uint8, n)
	for i := range c.vals {
		c.vals[i] = emptySlot
	}
	c.mask = n - 1
	for i, v := range oldVals {
		if v == emptySlot {
			continue
		}
		s, _ := c.find(oldKeys[i])
		c.keys[s] = oldKeys[i]
		c.vals[s] = v
	}
}

// MTageSC is an unlimited-storage multi-component TAGE with a statistical
// corrector. Not safe for concurrent use.
type MTageSC struct {
	comps []comp
	base  map[uint64]ctr // per-PC bias component
	hist  bpu.History

	// trust is a per-PC 4-bit counter [0,15] (weak 8) deciding whether
	// long-history matches have been reliable for the PC.
	trust map[uint64]uint8

	last lastPred

	// plan hashes the 16 component lengths in one prefix-shared pass
	// into hashOut.
	plan    *bpu.HashPlan
	hashOut []uint64
}

type lastPred struct {
	pc       uint64
	valid    bool
	keys     []key
	slots    []int32 // component slot for keys[i], valid until Update
	found    []bool  // whether keys[i] was present at predict time
	provider int     // component index of longest confident match, -1 if none
	pred     bool
	basePred bool
	baseVal  ctr
	baseOK   bool
	trustVal uint8
	trustOK  bool
}

// New returns an empty unlimited predictor.
func New() *MTageSC {
	m := &MTageSC{
		comps: make([]comp, len(histLens)),
		base:  make(map[uint64]ctr),
		trust: make(map[uint64]uint8),
	}
	for i := range m.comps {
		m.comps[i] = newComp()
	}
	m.last.keys = make([]key, len(histLens))
	m.last.slots = make([]int32, len(histLens))
	m.last.found = make([]bool, len(histLens))
	m.plan = bpu.MakeHashPlan(histLens)
	m.hashOut = make([]uint64, len(histLens))
	return m
}

// Name implements bpu.Predictor.
func (m *MTageSC) Name() string { return "mtage-sc-unlimited" }

// Predict implements bpu.Predictor: it computes the 16 component keys
// through one precompiled hash pass, then runs the
// longest-confident-match and corrector logic over them. Every component
// is probed once and the slot recorded, so Update trains without
// re-probing.
func (m *MTageSC) Predict(pc uint64) bool {
	m.hist.HashPlanned(pc, m.plan, m.hashOut)
	lp := &m.last
	for i := range histLens {
		lp.keys[i] = key{pc: pc, h: m.hashOut[i]}
	}
	lp.pc = pc
	lp.valid = true
	lp.provider = -1

	bc, ok := m.base[pc]
	lp.baseVal, lp.baseOK = bc, ok
	if ok {
		lp.basePred = bc.taken()
	} else {
		lp.basePred = true // static taken default
	}
	lp.pred = lp.basePred

	for i := len(histLens) - 1; i >= 0; i-- {
		c := &m.comps[i]
		slot, found := c.find(lp.keys[i])
		lp.slots[i] = int32(slot)
		lp.found[i] = found
		if found && lp.provider < 0 {
			if v := ctr(c.vals[slot]); v.confident() {
				lp.provider = i
				lp.pred = v.taken()
			}
		}
	}
	if lp.provider >= 0 {
		// Statistical corrector: if long-history matches have been
		// unreliable for this PC, fall back to the per-PC bias.
		tc, ok := m.trust[pc]
		lp.trustVal, lp.trustOK = tc, ok
		if ok && tc <= 7 {
			lp.pred = lp.basePred
		}
	}
	return lp.pred
}

// Update implements bpu.Predictor.
func (m *MTageSC) Update(pc uint64, taken bool) {
	lp := &m.last
	if !lp.valid || lp.pc != pc {
		m.Predict(pc)
	}
	lp.valid = false

	bc := lp.baseVal
	if !lp.baseOK {
		bc = 4 // weak taken
	}
	m.base[pc] = bc.update(taken)

	if lp.provider >= 0 {
		provCorrect := ctr(m.comps[lp.provider].vals[lp.slots[lp.provider]]).taken() == taken
		tc := lp.trustVal
		if !lp.trustOK {
			tc = 8
		}
		m.trust[pc] = trustUpdate(tc, provCorrect)
	}

	// Train every component on its substream; unlimited storage means
	// every substream gets its own counter. Slots were recorded during
	// prediction and nothing has probed since, so each write is direct.
	for i := range m.comps {
		c := &m.comps[i]
		slot := int(lp.slots[i])
		if !lp.found[i] {
			// Bias the fresh counter toward the observed outcome so a
			// second occurrence already predicts it confidently.
			v := uint8(0)
			if taken {
				v = 7
			}
			c.insertAt(slot, lp.keys[i], v)
			continue
		}
		c.vals[slot] = uint8(ctr(c.vals[slot]).update(taken))
	}

	m.hist.Push(taken)
}

// Entries returns the total number of allocated component entries, a
// proxy for the unbounded storage the predictor has consumed.
func (m *MTageSC) Entries() int {
	n := len(m.base)
	for i := range m.comps {
		n += m.comps[i].live
	}
	return n
}
