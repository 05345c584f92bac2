// Package perceptron implements a hashed perceptron branch predictor in
// the lineage the paper discusses under "Online branch predictors"
// (Jiménez & Lin, HPCA 2001; the multiperspective perceptron, CBP-5).
//
// Each static branch (PC-indexed row) holds a bias weight plus one signed
// weight per recent global-history bit; two additional tables hold
// weights for hashed long-history segments, the multiperspective idea.
// The prediction is the sign of the dot product between the weights and
// the ±1 history; training follows the perceptron rule with Seznec's
// adaptive threshold.
//
// It exists as an additional online baseline for the comparison harness:
// like TAGE-SC-L it is capacity-limited, so Whisper's hints compose with
// it the same way.
package perceptron

import (
	"fmt"

	"github.com/whisper-sim/whisper/internal/bpu"
)

// HistBits is the per-bit weight window. Shorter than the classic 28-60
// so the row table keeps enough entries for data-center static-branch
// populations; longer reach comes from the hashed segment features.
const HistBits = 8

// segment features: hashed long-history perspectives beyond the per-bit
// window.
var segments = []struct{ From, To int }{
	{8, 32},
	{32, 128},
	{128, 512},
}

// Config sizes the predictor.
type Config struct {
	// SizeKB is the total weight storage budget (weights are 8-bit).
	SizeKB int
}

// DefaultConfig matches the paper's 64KB predictor budgets.
func DefaultConfig() Config { return Config{SizeKB: 64} }

// Perceptron is a hashed perceptron predictor. Not safe for concurrent
// use.
//
// Every weight column (the bias, each history-bit weight, each segment
// weight) lives in its own table indexed by a column-specific hash of the
// PC (Tarjan & Skadron's hashed perceptron). Decorrelated column indices
// are what make the predictor degrade gracefully under the huge static
// branch populations of data center applications: a branch that collides
// with an antagonist in one column still sums clean weights from the
// others.
type Perceptron struct {
	cfg     Config
	bitTbl  [][]int8 // HistBits+1 tables (index 0 = bias), each entries long
	bitMask uint64
	segTbl  [][]int8
	segMask uint64
	hist    bpu.History

	theta    int32
	thetaMin int32
	tc       int32
	lastSum  int32
	lastBit  []uint64
	lastSeg  []uint64
	lastPC   uint64
	valid    bool

	// segHash stages the per-segment history hashes for the current
	// prediction; segPlan is the precompiled plan over the To lengths.
	segHash []uint64
	segPlan *bpu.HashPlan
}

// New builds a predictor with the given budget.
func New(cfg Config) *Perceptron {
	if cfg.SizeKB < 1 {
		panic("perceptron: SizeKB must be >= 1")
	}
	budget := cfg.SizeKB * 1024
	// Half the budget to the bias/bit columns, half to the segment
	// tables.
	nBit := HistBits + 1
	bitEntries := 1
	for bitEntries*2*nBit <= budget*3/4 {
		bitEntries *= 2
	}
	segEntries := 1
	for segEntries*2*len(segments) <= budget/4 {
		segEntries *= 2
	}
	p := &Perceptron{
		cfg:      cfg,
		bitMask:  uint64(bitEntries - 1),
		segMask:  uint64(segEntries - 1),
		thetaMin: int32(1.93*float64(HistBits+len(segments))) + 14,
		lastBit:  make([]uint64, nBit),
		lastSeg:  make([]uint64, len(segments)),
		segHash:  make([]uint64, len(segments)),
	}
	var segLens []int
	for _, seg := range segments {
		segLens = append(segLens, seg.To)
	}
	p.segPlan = bpu.MakeHashPlan(segLens)
	p.bitTbl = make([][]int8, nBit)
	for i := range p.bitTbl {
		p.bitTbl[i] = make([]int8, bitEntries)
	}
	p.theta = p.thetaMin
	p.segTbl = make([][]int8, len(segments))
	for i := range p.segTbl {
		p.segTbl[i] = make([]int8, segEntries)
	}
	return p
}

// Name implements bpu.Predictor.
func (p *Perceptron) Name() string { return fmt.Sprintf("perceptron-%dKB", p.cfg.SizeKB) }

// colIdx hashes the PC for weight column c so collisions differ per
// column.
func (p *Perceptron) colIdx(pc uint64, c int) uint64 {
	x := (pc >> 2) * 0x9E3779B97F4A7C15
	x ^= uint64(c+1) * 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return x & p.bitMask
}

// Predict implements bpu.Predictor: the dot product over the column
// weights, with the segment hashes computed in one precompiled pass.
func (p *Perceptron) Predict(pc uint64) bool {
	p.hist.HashPlanned(pc, p.segPlan, p.segHash)
	bi := p.colIdx(pc, 0)
	p.lastBit[0] = bi
	sum := int32(p.bitTbl[0][bi]) // bias
	for i := 0; i < HistBits; i++ {
		idx := p.colIdx(pc, i+1)
		p.lastBit[i+1] = idx
		w := int32(p.bitTbl[i+1][idx])
		if p.hist.Bit(i) {
			sum += w
		} else {
			sum -= w
		}
	}
	for si, seg := range segments {
		idx := (p.segHash[si] ^ uint64(seg.From)*0x9E3779B97F4A7C15) & p.segMask
		p.lastSeg[si] = idx
		sum += int32(p.segTbl[si][idx])
	}
	p.lastSum = sum
	p.lastPC = pc
	p.valid = true
	return sum >= 0
}

func sat(w int32, up bool) int8 {
	if up {
		if w < 127 {
			w++
		}
	} else if w > -128 {
		w--
	}
	return int8(w)
}

// Update implements bpu.Predictor.
func (p *Perceptron) Update(pc uint64, taken bool) {
	if !p.valid || p.lastPC != pc {
		p.Predict(pc)
	}
	p.valid = false
	pred := p.lastSum >= 0
	mag := p.lastSum
	if mag < 0 {
		mag = -mag
	}
	if pred != taken || mag <= p.theta {
		p.bitTbl[0][p.lastBit[0]] = sat(int32(p.bitTbl[0][p.lastBit[0]]), taken)
		for i := 0; i < HistBits; i++ {
			// Strengthen agreement between history bit and outcome.
			up := p.hist.Bit(i) == taken
			p.bitTbl[i+1][p.lastBit[i+1]] = sat(int32(p.bitTbl[i+1][p.lastBit[i+1]]), up)
		}
		for si := range segments {
			p.segTbl[si][p.lastSeg[si]] = sat(int32(p.segTbl[si][p.lastSeg[si]]), taken)
		}
		// Adaptive threshold (Seznec): grow on mispredictions, shrink on
		// confident-enough correct low-magnitude predictions.
		if pred != taken {
			p.tc++
			if p.tc >= 32 {
				p.tc = 0
				p.theta++
			}
		} else {
			p.tc--
			if p.tc <= -32 {
				p.tc = 0
				// The floor keeps the training margin wide: freezing a
				// branch with a thin margin lets per-bit weight noise
				// flip its predictions.
				if p.theta > p.thetaMin {
					p.theta--
				}
			}
		}
	}
	p.hist.Push(taken)
}

// Theta exposes the adaptive threshold for tests.
func (p *Perceptron) Theta() int32 { return p.theta }
