// Package rombf implements the Read-Once Monotone Boolean Formula branch
// prediction baseline (Jiménez, Hanson, Lin — PACT 2001), the prior
// profile-guided technique the paper evaluates as "4b-ROMBF" and
// "8b-ROMBF" (§II-D).
//
// A ROMBF hint predicts a branch by applying an AND/OR tree over the raw
// outcomes of the last N branches (N = 4 or 8), with contradiction
// (never-taken) and tautology (always-taken) as degenerate formulas.
// Training exhaustively scores all 2^(N-1) trees plus the two constants
// on the branch's profiled history histogram and keeps a hint only when
// the best formula beats the profiled predictor on the same window.
//
// Faithful to the original (pre-"hard-branch-filtering") methodology, the
// trainer considers every profiled static branch, which is also what
// makes its training time exceed Whisper's in the paper's Fig 16.
package rombf

import (
	"fmt"
	"sort"
	"time"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/formula"
	"github.com/whisper-sim/whisper/internal/profiler"
)

// Bias is a degenerate constant prediction.
type Bias uint8

// Bias values.
const (
	BiasNone     Bias = iota // use the formula
	BiasTaken                // tautology: always taken
	BiasNotTaken             // contradiction: never taken
)

// Hint is a trained ROMBF annotation for one static branch.
type Hint struct {
	PC   uint64
	N    int
	Bias Bias
	Mono formula.Monotone
	// ProfiledMisp is the formula's misprediction count on the training
	// histogram; BaselineMisp is the profiled predictor's count.
	ProfiledMisp, BaselineMisp uint64
}

// Config selects the ROMBF variant.
type Config struct {
	// N is the history length: 4 or 8 (the paper's two variants).
	N int
	// MinExecs skips branches with fewer profiled executions.
	MinExecs uint64
	// MinGainFrac and MinGainAbs set the same deployment bar Whisper
	// uses, keeping the technique comparison methodology-equal.
	MinGainFrac float64
	MinGainAbs  uint64
}

// DefaultConfig returns the 8-bit variant.
func DefaultConfig() Config { return Config{N: 8, MinExecs: 20, MinGainFrac: 0.10, MinGainAbs: 2} }

// TrainResult carries the hints and the training cost (paper Fig 16).
type TrainResult struct {
	Hints        map[uint64]Hint
	Trained      int           // branches examined
	Duration     time.Duration // wall-clock training time
	FormulaEvals uint64        // total formula scorings
}

// Train learns ROMBF hints from a profile. The profile must include the
// 8-bit raw history histograms (profiler length index 0 = length 8, whose
// fold is the identity), from which the 4-bit variant marginalizes.
func Train(p *profiler.Profile, cfg Config) (*TrainResult, error) {
	if cfg.N != 4 && cfg.N != 8 {
		return nil, fmt.Errorf("rombf: N must be 4 or 8, got %d", cfg.N)
	}
	if len(p.Lengths) == 0 || p.Lengths[0] != 8 {
		return nil, fmt.Errorf("rombf: profile must include history length 8 first (got %v)", p.Lengths)
	}
	start := time.Now()
	res := &TrainResult{Hints: make(map[uint64]Hint)}

	// Deterministic branch order.
	pcs := make([]uint64, 0, len(p.Hard))
	for pc := range p.Hard {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })

	for _, pc := range pcs {
		hp := p.Hard[pc]
		// Same evidence floor as Whisper's trainer: thin profiles make
		// fragile hints.
		if hp.Execs < cfg.MinExecs || hp.MeasExecs < cfg.MinExecs {
			continue
		}
		res.Trained++
		// Build the N-bit histogram from the 8-bit raw one.
		var tcnt, ntcnt [256]uint64
		mask := (1 << uint(cfg.N)) - 1
		var takenTotal, ntTotal uint64
		for h := 0; h < 256; h++ {
			tcnt[h&mask] += uint64(hp.T[0][h])
			ntcnt[h&mask] += uint64(hp.NT[0][h])
			takenTotal += uint64(hp.T[0][h])
			ntTotal += uint64(hp.NT[0][h])
		}

		// Constants first: tautology mispredicts every not-taken sample,
		// contradiction every taken one.
		best := Hint{PC: pc, N: cfg.N, Bias: BiasTaken, ProfiledMisp: ntTotal}
		if takenTotal < best.ProfiledMisp {
			best = Hint{PC: pc, N: cfg.N, Bias: BiasNotTaken, ProfiledMisp: takenTotal}
		}

		// Exhaustive scan of the 2^(N-1) monotone trees, exactly the
		// original algorithm.
		nf := formula.MonotoneFormulas(cfg.N)
		for enc := 0; enc < nf; enc++ {
			m, err := formula.NewMonotone(cfg.N, uint16(enc))
			if err != nil {
				return nil, err
			}
			var misp uint64
			for h := 0; h <= mask; h++ {
				if tcnt[h] == 0 && ntcnt[h] == 0 {
					continue
				}
				if m.Eval(uint16(h)) {
					misp += ntcnt[h]
				} else {
					misp += tcnt[h]
				}
			}
			res.FormulaEvals++
			if misp < best.ProfiledMisp {
				best = Hint{PC: pc, N: cfg.N, Bias: BiasNone, Mono: m, ProfiledMisp: misp}
			}
		}
		best.BaselineMisp = hp.Misp
		// Validate the selected candidate on the held-out half and keep
		// the hint only when it beats the profiled predictor there by
		// the deployment margin (same bar as Whisper's trainer).
		var valMisp uint64
		var vtc, vntc [256]uint64
		for h := 0; h < 256; h++ {
			vtc[h&mask] += uint64(hp.VT[0][h])
			vntc[h&mask] += uint64(hp.VNT[0][h])
		}
		for h := 0; h <= mask; h++ {
			var predTaken bool
			switch best.Bias {
			case BiasTaken:
				predTaken = true
			case BiasNotTaken:
				predTaken = false
			default:
				predTaken = best.Mono.Eval(uint16(h))
			}
			if predTaken {
				valMisp += vntc[h]
			} else {
				valMisp += vtc[h]
			}
		}
		gain := int64(hp.MispVal) - int64(valMisp)
		if gain >= int64(cfg.MinGainAbs) && float64(gain) >= cfg.MinGainFrac*float64(hp.MispVal) {
			res.Hints[pc] = best
		}
	}
	res.Duration = time.Since(start)
	return res, nil
}

// Predictor is the hybrid runtime: hinted branches use their formula over
// the raw global history, everything else uses the underlying predictor.
type Predictor struct {
	under bpu.Predictor
	hints map[uint64]Hint
	hist  bpu.History
	name  string

	// HintPredictions counts predictions served by hints.
	HintPredictions uint64
}

// NewPredictor wraps under with the trained hints. If the underlying
// predictor supports allocation suppression (TAGE does), hinted branches
// are excluded from its capacity up front, matching the paper's run-time
// policy of not allocating entries for hint-covered branches.
func NewPredictor(under bpu.Predictor, hints map[uint64]Hint, n int) *Predictor {
	if t, ok := under.(interface{ SuppressAllocation(uint64) }); ok {
		for pc := range hints {
			t.SuppressAllocation(pc)
		}
	}
	return &Predictor{
		under: under,
		hints: hints,
		name:  fmt.Sprintf("%db-rombf+%s", n, under.Name()),
	}
}

// Name implements bpu.Predictor.
func (p *Predictor) Name() string { return p.name }

// Predict implements bpu.Predictor.
func (p *Predictor) Predict(pc uint64) bool {
	if h, ok := p.hints[pc]; ok {
		p.HintPredictions++
		switch h.Bias {
		case BiasTaken:
			return true
		case BiasNotTaken:
			return false
		default:
			return h.Mono.Eval(p.hist.Raw(h.N))
		}
	}
	return p.under.Predict(pc)
}

// Update implements bpu.Predictor. The underlying predictor is always
// updated so its history stays consistent; suppression (set up in
// NewPredictor) keeps hinted branches from consuming its capacity.
func (p *Predictor) Update(pc uint64, taken bool) {
	p.under.Update(pc, taken)
	p.hist.Push(taken)
}
