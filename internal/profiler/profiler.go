// Package profiler models the in-production profile collection of the
// paper's usage model (§IV, step 1): Intel PT supplies the retired-branch
// trace and Intel LBR supplies the deployed predictor's per-branch
// accuracy ("br_misp_retired.conditional").
//
// Collection reads the trace once, as the paper reads one PT/LBR trace
// of production, in two passes:
//
//  1. The accuracy pass drives the profiled predictor over the trace and
//     records per-branch execution/misprediction/taken counts — the LBR
//     view. It selects the "hard" branches worth analyzing, and logs
//     each conditional record's branch and outcome.
//  2. The substream pass replays that log maintaining only the global
//     history register and, for each hard-branch retirement, bins the
//     XOR-folded hashed history at each candidate length into taken /
//     not-taken histograms — exactly the T and NT inputs of the paper's
//     Algorithm 1. The history holds conditional outcomes only, so the
//     log is all it needs.
package profiler

import (
	"fmt"
	"math"
	"slices"
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
// predictor: the one-end case of CollectPrefixes. It calls mkStream
// once. The predictor is mutated by the accuracy pass.
func Collect(mkStream func() trace.Stream, pred bpu.Predictor, opt Options) (*Profile, error) {
	ps, err := CollectPrefixes(mkStream, pred, opt, []uint64{math.MaxUint64})
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// CollectPrefixes profiles the stream's first end records for each of
// ends, which must ascend strictly, and returns one profile per end.
// Each is exactly what Collect returns over those records, and no two
// share a map or a histogram (Merge mutates its receiver). Any other
// ends are an error, returned before mkStream is called. It calls
// mkStream once: one accuracy pass over the longest end builds them
// all, and the substream pass replays its log, because every counter of
// both passes is a prefix sum over records:
//
//   - The accuracy pass snapshots its per-branch counters at each end,
//     and each end selects its own hard set from its snapshot.
//   - The substream pass counts a branch's histograms in the latest
//     profile where the branch is hard and stops counting it after that
//     end; every earlier profile where it is hard copies them at its own
//     end. A branch's execution index runs from the stream's start, so
//     the copy is the histogram Collect counts over that prefix.
//
// The log holds 4 bytes per conditional record up to the longest end
// (about 1.2 MB for 400k kafka records) and is freed on return. The
// accuracy pass cuts its blocks at the ends, so no record pays a bound
// check, and the longest end's profile keeps the live counters.
func CollectPrefixes(mkStream func() trace.Stream, pred bpu.Predictor, opt Options, ends []uint64) ([]*Profile, error) {
	if mkStream == nil || pred == nil {
		return nil, fmt.Errorf("profiler: nil stream factory or predictor")
	}
	if len(ends) == 0 {
		return nil, nil
	}
	for k := 1; k < len(ends); k++ {
		if ends[k] <= ends[k-1] {
			return nil, fmt.Errorf("profiler: prefix ends %v do not ascend strictly", ends)
		}
	}
	sp := telemetry.StartSpan("profile")
	defer sp.End()
	if opt.Lengths == nil {
		opt.Lengths = bpu.DefaultGeomLengths
	}
	profs := make([]*Profile, len(ends))

	// Pass 1: accuracy under the profiled predictor (the LBR view).
	a := &accuracy{index: make(map[uint64]uint32)}
	marks := make([]int, len(ends))
	cb := bpu.NewCondBlocks(mkStream(), pred)
	blk := cb.Block
	size := uint64(blk.Cap())
	more := true
	for k, end := range ends {
		for more && a.records < end {
			blk.SetCap(int(min(size, end-a.records)))
			if more = cb.Next(); more {
				a.count(cb, opt.WarmExecs)
			}
		}
		profs[k], marks[k] = a.profile(opt.Lengths, k == len(ends)-1), len(a.log)
	}

	last := -1
	for k, q := range profs {
		q.selectHard(opt)
		if len(q.Hard) > 0 {
			last = k
		}
	}
	if last >= 0 {
		a.replay(opt, marks[:last+1], profs)
	}
	return profs, nil
}

// accuracy is the accuracy pass's state. Branches are numbered densely
// in the order they first retire; their counters sit in stats under
// that number, and log keeps one entry per conditional record, its
// branch's number shifted left once OR its outcome, for the substream
// pass to replay.
type accuracy struct {
	index map[uint64]uint32 // pc -> branch number
	pcs   []uint64          // branch number -> pc
	stats []BranchStats     // branch number -> counters
	log   []uint32

	records, instrs, condExecs, mispreds uint64
}

// count adds the accuracy-pass counters of cb's current block: the
// predictor resolved its conditional records, and the per-branch
// counters replay them in order.
func (a *accuracy) count(cb *bpu.CondBlocks, warmExecs uint64) {
	blk := cb.Block
	a.records += uint64(blk.N)
	for _, n := range blk.Instrs[:blk.N] {
		a.instrs += uint64(n) + 1
	}
	a.condExecs += uint64(cb.N)
	// The log doubles when it grows: append alone grows a large slice by
	// a quarter at a time, which allocates about five times the log.
	n := len(a.log)
	if cap(a.log)-n < cb.N {
		a.log = slices.Grow(a.log, max(cb.N, n))
	}
	a.log = a.log[:n+cb.N]
	log := a.log[n:]
	for k, pc := range cb.PC[:cb.N] {
		b, ok := a.index[pc]
		if !ok {
			b = uint32(len(a.pcs))
			a.index[pc] = b
			a.pcs = append(a.pcs, pc)
			a.stats = append(a.stats, BranchStats{})
		}
		bs := &a.stats[b]
		e := bs.Execs
		bs.Execs++
		entry := b << 1
		if cb.Taken[k] {
			bs.Taken++
			entry |= 1
		}
		log[k] = entry
		misp := cb.Miss[k]
		if misp {
			bs.Misp++
			a.mispreds++
		}
		if e >= warmExecs {
			bs.measExecs++
			if misp {
				bs.mispMeas++
				if (e-warmExecs)&1 == 1 {
					bs.mispVal++
				}
			}
		}
	}
}

// profile returns the totals and per-branch counters counted so far as
// a profile with an empty hard set. Stats gets one entry per branch; a
// live profile points them at a's own counters, which the pass must
// not update afterwards, and any other gets a copy.
func (a *accuracy) profile(lengths []int, live bool) *Profile {
	p := &Profile{
		Lengths:   lengths,
		Stats:     make(map[uint64]*BranchStats, len(a.pcs)),
		Hard:      make(map[uint64]*HardProfile),
		Records:   a.records,
		Instrs:    a.instrs,
		CondExecs: a.condExecs,
		Mispreds:  a.mispreds,
	}
	vals := a.stats
	if !live {
		vals = slices.Clone(vals)
	}
	for b, pc := range a.pcs {
		p.Stats[pc] = &vals[b]
	}
	return p
}

// replay is the substream pass (the PT view): it replays the log's
// first marks[len(marks)-1] entries and fills the hard branches' histograms
// of profs[k], the profile of the log's first marks[k] entries, for
// every k. Each branch hard at some end counts toward the latest such
// end.
func (a *accuracy) replay(opt Options, marks []int, profs []*Profile) {
	type counting struct {
		hp    *HardProfile
		execs uint64
	}
	hard := make([]*counting, len(a.pcs)) // branch number -> its counting, nil unless hard
	for k := len(marks) - 1; k >= 0; k-- {
		for pc, hp := range profs[k].Hard {
			if b := a.index[pc]; hard[b] == nil {
				hard[b] = &counting{hp: hp}
			}
		}
	}
	var hist bpu.History
	plan := bpu.MakeHashPlan(opt.Lengths)
	folds := make([]uint8, len(opt.Lengths))
	from := 0
	for k, mark := range marks {
		for _, entry := range a.log[from:mark] {
			taken := entry&1 == 1
			if c := hard[entry>>1]; c != nil {
				e := c.execs
				c.execs++
				validation := e >= opt.WarmExecs && (e-opt.WarmExecs)&1 == 1
				hists := c.hp.NT
				switch {
				case validation && taken:
					hists = c.hp.VT
				case validation:
					hists = c.hp.VNT
				case taken:
					hists = c.hp.T
				}
				hist.FoldPlanned(plan, folds)
				for li, h := range folds {
					hists[li][h]++
				}
			}
			hist.Push(taken)
		}
		from = mark
		// A branch whose last hard end this is stops counting; an
		// earlier end copies the histograms counted so far.
		for pc, hp := range profs[k].Hard {
			b := a.index[pc]
			c := hard[b]
			if c.hp == hp {
				hard[b] = nil
				continue
			}
			copy(hp.T, c.hp.T)
			copy(hp.NT, c.hp.NT)
			copy(hp.VT, c.hp.VT)
			copy(hp.VNT, c.hp.VNT)
		}
	}
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
		Lengths:   slices.Clone(p.Lengths),
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
		c.T = slices.Clone(hp.T)
		c.NT = slices.Clone(hp.NT)
		c.VT = slices.Clone(hp.VT)
		c.VNT = slices.Clone(hp.VNT)
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
