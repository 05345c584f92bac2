// Package profiler models the in-production profile collection of the
// paper's usage model (§IV, step 1): Intel PT supplies the retired-branch
// trace and Intel LBR supplies the deployed predictor's per-branch
// accuracy ("br_misp_retired.conditional").
//
// Collection is two-pass over the same deterministic stream:
//
//  1. The accuracy pass drives the profiled predictor over the trace and
//     records per-branch execution/misprediction/taken counts — the LBR
//     view. It selects the "hard" branches worth analyzing.
//  2. The substream pass replays the trace maintaining only the global
//     history register and, for each hard-branch retirement, bins the
//     XOR-folded hashed history at each candidate length into taken /
//     not-taken histograms — exactly the T and NT inputs of the paper's
//     Algorithm 1.
package profiler

import (
	"fmt"
	"sort"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/telemetry"
	"github.com/whisper-sim/whisper/internal/trace"
)

// BranchStats is the accuracy-pass view of one static branch.
type BranchStats struct {
	Execs uint64
	Misp  uint64
	Taken uint64

	// measured-window views (past the warm-up skip); exported via
	// HardProfile for hard branches.
	measExecs, mispMeas, mispVal uint64
}

// MispRate returns mispredictions per execution.
func (b *BranchStats) MispRate() float64 {
	if b.Execs == 0 {
		return 0
	}
	return float64(b.Misp) / float64(b.Execs)
}

// HardProfile is the substream-pass view: per-candidate-length hashed
// history histograms for one hard branch, split into a training half and
// a held-out validation half so trainers can reject formulas that merely
// fit noise (the profile-overfitting guard behind cross-input robustness,
// paper Fig 17).
//
// Per-branch execution e (0-based): the first WarmExecs executions train
// only (they carry the baseline predictor's cold-start noise); measured
// executions alternate between the training half (even) and the
// validation half (odd).
type HardProfile struct {
	PC uint64
	// T[i][h] counts taken retirements whose fold at Lengths[i] was h
	// in the training half; NT is the not-taken counterpart.
	T, NT [][256]uint32
	// VT / VNT are the validation-half counterparts.
	VT, VNT [][256]uint32
	// Execs and Misp copy the accuracy-pass counters (full window).
	Execs, Misp uint64
	// MeasExecs counts executions past the warm-up skip; MispMeas and
	// MispVal are the baseline predictor's mispredictions on the
	// measured window and on its validation half.
	MeasExecs, MispMeas, MispVal uint64
}

// Profile is the result of collection for one (application, input) pair.
type Profile struct {
	// Lengths are the candidate history lengths (Table III geometric
	// series by default).
	Lengths []int
	// Stats has the accuracy-pass counters for every conditional branch.
	Stats map[uint64]*BranchStats
	// Hard has substream histograms for the selected hard branches.
	Hard map[uint64]*HardProfile

	// Totals over the profiled window.
	Records, Instrs, CondExecs, Mispreds uint64
}

// Options tunes hard-branch selection.
type Options struct {
	// Lengths overrides the candidate lengths (default Table III).
	Lengths []int
	// MinExecs is the minimum executions for a branch to be considered.
	MinExecs uint64
	// MinMisp is the minimum mispredictions.
	MinMisp uint64
	// MinRate is the minimum misprediction rate.
	MinRate float64
	// MaxHard caps the number of profiled branches (highest
	// misprediction counts win); 0 means unlimited.
	MaxHard int
	// WarmExecs is the number of leading executions per branch excluded
	// from the measured baseline (the predictor's cold start would
	// otherwise overstate how beatable it is).
	WarmExecs uint64
}

// DefaultOptions balance coverage against profile size.
func DefaultOptions() Options {
	return Options{
		MinExecs:  12,
		MinMisp:   3,
		MinRate:   0.03,
		MaxHard:   4000,
		WarmExecs: 8,
	}
}

// Collect profiles the stream produced by mkStream under the given
// predictor. mkStream must return a fresh, identical stream on each call
// (deterministic replay stands in for re-reading the PT trace file).
// The predictor is mutated by the accuracy pass.
func Collect(mkStream func() trace.Stream, pred bpu.Predictor, opt Options) (*Profile, error) {
	if mkStream == nil || pred == nil {
		return nil, fmt.Errorf("profiler: nil stream factory or predictor")
	}
	sp := telemetry.StartSpan("profile")
	defer sp.End()
	if opt.Lengths == nil {
		opt.Lengths = bpu.DefaultGeomLengths
	}
	p := &Profile{
		Lengths: opt.Lengths,
		Stats:   make(map[uint64]*BranchStats),
		Hard:    make(map[uint64]*HardProfile),
	}

	// Pass 1: accuracy under the profiled predictor (the LBR view). The
	// predictor resolves each block's conditional records first; the
	// per-branch counters then replay them in order.
	cb := bpu.NewCondBlocks(mkStream(), pred)
	for cb.Next() {
		blk := cb.Block
		p.Records += uint64(blk.N)
		for _, n := range blk.Instrs[:blk.N] {
			p.Instrs += uint64(n) + 1
		}
		p.CondExecs += uint64(cb.N)
		for k, pc := range cb.PC[:cb.N] {
			bs := p.Stats[pc]
			if bs == nil {
				bs = &BranchStats{}
				p.Stats[pc] = bs
			}
			e := bs.Execs
			bs.Execs++
			if cb.Taken[k] {
				bs.Taken++
			}
			misp := cb.Miss[k]
			if misp {
				bs.Misp++
				p.Mispreds++
			}
			if e >= opt.WarmExecs {
				bs.measExecs++
				if misp {
					bs.mispMeas++
					if (e-opt.WarmExecs)&1 == 1 {
						bs.mispVal++
					}
				}
			}
		}
	}

	p.selectHard(opt)
	if len(p.Hard) == 0 {
		return p, nil
	}

	// Pass 2: substream histograms (the PT view).
	s := mkStream()
	blk := cb.Block
	var hist bpu.History
	plan := bpu.MakeHashPlan(opt.Lengths)
	folds := make([]uint8, len(opt.Lengths))
	execIdx := make(map[uint64]uint64, len(p.Hard))
	for trace.Fill(s, blk) > 0 {
		for i, kind := range blk.Kind[:blk.N] {
			if kind != trace.CondBranch {
				continue
			}
			pc, taken := blk.PC[i], blk.Taken[i]
			if hp := p.Hard[pc]; hp != nil {
				e := execIdx[pc]
				execIdx[pc] = e + 1
				validation := e >= opt.WarmExecs && (e-opt.WarmExecs)&1 == 1
				hists := hp.NT
				switch {
				case validation && taken:
					hists = hp.VT
				case validation:
					hists = hp.VNT
				case taken:
					hists = hp.T
				}
				hist.FoldPlanned(plan, folds)
				for li, h := range folds {
					hists[li][h]++
				}
			}
			hist.Push(taken)
		}
	}
	return p, nil
}

// selectHard picks the hard branches from the accuracy-pass counters and
// allocates their empty histograms.
func (p *Profile) selectHard(opt Options) {
	type cand struct {
		pc   uint64
		misp uint64
	}
	var cands []cand
	for pc, bs := range p.Stats {
		// Qualify on the measured window (past the per-branch warm-up):
		// a branch whose mispredictions are all predictor cold-start is
		// not hard, and hinting it only risks damage under input drift.
		measRate := 0.0
		if bs.measExecs > 0 {
			measRate = float64(bs.mispMeas) / float64(bs.measExecs)
		}
		if bs.Execs >= opt.MinExecs && bs.mispMeas >= opt.MinMisp && measRate >= opt.MinRate {
			cands = append(cands, cand{pc, bs.Misp})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].misp != cands[j].misp {
			return cands[i].misp > cands[j].misp
		}
		return cands[i].pc < cands[j].pc
	})
	if opt.MaxHard > 0 && len(cands) > opt.MaxHard {
		cands = cands[:opt.MaxHard]
	}
	for _, c := range cands {
		bs := p.Stats[c.pc]
		hp := &HardProfile{
			PC:        c.pc,
			T:         make([][256]uint32, len(opt.Lengths)),
			NT:        make([][256]uint32, len(opt.Lengths)),
			VT:        make([][256]uint32, len(opt.Lengths)),
			VNT:       make([][256]uint32, len(opt.Lengths)),
			Execs:     bs.Execs,
			Misp:      bs.Misp,
			MeasExecs: bs.measExecs,
			MispMeas:  bs.mispMeas,
			MispVal:   bs.mispVal,
		}
		p.Hard[c.pc] = hp
	}
}

// MPKI returns branch mispredictions per kilo-instruction for the
// profiled window (CBP-5 methodology: conditional branches only).
func (p *Profile) MPKI() float64 {
	if p.Instrs == 0 {
		return 0
	}
	return float64(p.Mispreds) / float64(p.Instrs) * 1000
}

// Overlap is the dynamic branch-overlap metric of "Workload
// Characterization for Branch Predictability" (PAPERS.md): the histogram
// intersection Σ_pc min(fA(pc), fB(pc)) of the two profiles' per-PC
// shares of dynamic conditional executions, in [0, 1] and symmetric.
// Profiles without any conditional executions overlap with nothing. The
// sum runs over the sorted PC intersection, so the float accumulation
// order — and therefore the value — is identical across runs and
// argument orders.
func Overlap(a, b *Profile) float64 {
	if a == nil || b == nil || a.CondExecs == 0 || b.CondExecs == 0 {
		return 0
	}
	var pcs []uint64
	for pc := range a.Stats {
		if _, ok := b.Stats[pc]; ok {
			pcs = append(pcs, pc)
		}
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	sum := 0.0
	for _, pc := range pcs {
		fa := float64(a.Stats[pc].Execs) / float64(a.CondExecs)
		fb := float64(b.Stats[pc].Execs) / float64(b.CondExecs)
		sum += min(fa, fb)
	}
	return sum
}

// HardPCs returns the profiled hard-branch PCs in descending
// misprediction order.
func (p *Profile) HardPCs() []uint64 {
	out := make([]uint64, 0, len(p.Hard))
	for pc := range p.Hard {
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := p.Hard[out[i]], p.Hard[out[j]]
		if a.Misp != b.Misp {
			return a.Misp > b.Misp
		}
		return out[i] < out[j]
	})
	return out
}

// Clone returns a deep copy of p. Merge mutates its receiver, so
// callers holding shared (cached) profiles merge into a clone.
func (p *Profile) Clone() *Profile {
	q := &Profile{
		Lengths:   append([]int(nil), p.Lengths...),
		Stats:     make(map[uint64]*BranchStats, len(p.Stats)),
		Hard:      make(map[uint64]*HardProfile, len(p.Hard)),
		Records:   p.Records,
		Instrs:    p.Instrs,
		CondExecs: p.CondExecs,
		Mispreds:  p.Mispreds,
	}
	for pc, bs := range p.Stats {
		c := *bs
		q.Stats[pc] = &c
	}
	for pc, hp := range p.Hard {
		c := *hp
		c.T = append([][256]uint32(nil), hp.T...)
		c.NT = append([][256]uint32(nil), hp.NT...)
		c.VT = append([][256]uint32(nil), hp.VT...)
		c.VNT = append([][256]uint32(nil), hp.VNT...)
		q.Hard[pc] = &c
	}
	return q
}

// Merge folds other's counters and histograms into p (paper Fig 18:
// merging profiles from multiple inputs). Both profiles must use the same
// candidate lengths. Branches hard in either profile are hard in the
// merge.
func (p *Profile) Merge(other *Profile) error {
	if len(p.Lengths) != len(other.Lengths) {
		return fmt.Errorf("profiler: merging profiles with different length sets")
	}
	for i := range p.Lengths {
		if p.Lengths[i] != other.Lengths[i] {
			return fmt.Errorf("profiler: merging profiles with different length sets")
		}
	}
	p.Records += other.Records
	p.Instrs += other.Instrs
	p.CondExecs += other.CondExecs
	p.Mispreds += other.Mispreds
	for pc, obs := range other.Stats {
		bs := p.Stats[pc]
		if bs == nil {
			bs = &BranchStats{}
			p.Stats[pc] = bs
		}
		bs.Execs += obs.Execs
		bs.Misp += obs.Misp
		bs.Taken += obs.Taken
	}
	for pc, ohp := range other.Hard {
		hp := p.Hard[pc]
		if hp == nil {
			hp = &HardProfile{
				PC:  pc,
				T:   make([][256]uint32, len(p.Lengths)),
				NT:  make([][256]uint32, len(p.Lengths)),
				VT:  make([][256]uint32, len(p.Lengths)),
				VNT: make([][256]uint32, len(p.Lengths)),
			}
			p.Hard[pc] = hp
		}
		hp.Execs += ohp.Execs
		hp.Misp += ohp.Misp
		hp.MeasExecs += ohp.MeasExecs
		hp.MispMeas += ohp.MispMeas
		hp.MispVal += ohp.MispVal
		for i := range p.Lengths {
			for h := 0; h < 256; h++ {
				hp.T[i][h] += ohp.T[i][h]
				hp.NT[i][h] += ohp.NT[i][h]
				hp.VT[i][h] += ohp.VT[i][h]
				hp.VNT[i][h] += ohp.VNT[i][h]
			}
		}
	}
	return nil
}
