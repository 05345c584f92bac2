// Package pipeline is the trace-driven cycle-accounting model of the
// simulated machine (paper Table II: 3.2GHz 6-wide OOO, 24-entry FTQ,
// 224-entry ROB), the Scarab stand-in of this reproduction.
//
// Rather than simulating structures cycle by cycle, the model charges
// each retired record its steady-state cost and attributes extra cycles
// to the stall sources the paper's evaluation decomposes (Fig 1):
//
//   - base work: instructions / width,
//   - squash cycles: a fixed pipeline-refill penalty per direction
//     misprediction (and per wrong-target return/indirect resteer),
//   - frontend cycles: demand I-cache misses exposed while the FTQ
//     refills after a squash, plus BTB redirect bubbles.
//
// The decomposition is exactly what lets the experiments reproduce the
// paper's speedup splits: an ideal direction predictor removes the squash
// bucket and (through FDIP) most of the frontend bucket.
package pipeline

import (
	"math"
	"slices"

	"github.com/whisper-sim/whisper/internal/attrib"
	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/frontend"
	"github.com/whisper-sim/whisper/internal/telemetry"
	"github.com/whisper-sim/whisper/internal/trace"
)

// Config parameterizes the machine.
type Config struct {
	// Width is the retire width (Table II: 6-wide).
	Width int
	// SquashPenalty is the pipeline-refill cost of a misprediction in
	// cycles (fetch-to-execute depth of a modern OOO core).
	SquashPenalty int
	// Frontend configures the FDIP model.
	Frontend frontend.Config
}

// DefaultConfig mirrors Table II.
func DefaultConfig() Config {
	return Config{
		Width:         6,
		SquashPenalty: 20,
		Frontend:      frontend.DefaultConfig(),
	}
}

// RecordHook observes every retired record; Whisper's runtime uses it to
// model brhint execution at host retirement.
type RecordHook interface {
	OnRecord(rec *trace.Record)
}

// Result carries the run's counters and attributions.
type Result struct {
	// Records and Instrs describe the measured window.
	Records, Instrs uint64
	// CondExecs / CondMisp are conditional-branch direction counts.
	CondExecs, CondMisp uint64
	// Cycle accounting.
	Cycles         uint64
	BaseCycles     uint64
	SquashCycles   uint64
	FrontendCycles uint64
	// Frontend detail.
	Frontend frontend.Stats
	// Warmup describes how many leading records trained without being
	// measured.
	WarmupRecords uint64
}

// IPC returns retired instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instrs) / float64(r.Cycles)
}

// MPKI returns conditional-branch mispredictions per kilo-instruction
// (CBP-5 methodology).
func (r *Result) MPKI() float64 {
	if r.Instrs == 0 {
		return 0
	}
	return float64(r.CondMisp) / float64(r.Instrs) * 1000
}

// MispRate returns mispredictions per conditional execution.
func (r *Result) MispRate() float64 {
	if r.CondExecs == 0 {
		return 0
	}
	return float64(r.CondMisp) / float64(r.CondExecs)
}

// Options control a run.
type Options struct {
	Config Config
	// WarmupRecords train the predictor and caches without counting
	// toward the measured window (paper Fig 22).
	WarmupRecords uint64
	// Hook, when non-nil, observes every retired record (hint
	// execution).
	Hook RecordHook
	// Attrib, when non-nil, receives every measured conditional's
	// direction outcome (pc, taken, mispredicted) in trace order. A nil
	// collector costs nothing.
	Attrib *attrib.Collector
}

// Interval is one measured window of a pass, in records counted from
// the stream's start: the first End records, of which the first Warmup
// train the predictor and caches without counting. RunIntervals'
// Result for it is exactly what Run returns over the stream's first
// End records with WarmupRecords = Warmup.
type Interval struct {
	Warmup, End uint64
}

// Run drives pred over the whole stream and measures the records past
// opt.WarmupRecords: the one-interval case of RunIntervals.
func Run(s trace.Stream, pred bpu.Predictor, opt Options) Result {
	return RunIntervals(s, pred, opt, []Interval{{Warmup: opt.WarmupRecords, End: math.MaxUint64}})[0]
}

// RunIntervals drives pred over the stream once and returns one Result
// per interval, in order; opt.WarmupRecords is ignored. It reads the
// stream a trace.Block at a time, stops at the largest bound, and
// processes each block in two phases that together replay a per-record
// loop (one Predict, one Update and one record's accounting at a time)
// exactly:
//
//   - Phase A walks the block in trace order: Predict then Update for
//     each conditional record (priming an OraclePrimer first, asserted
//     once per run), and the hook after each record. The direction
//     predictor's state depends only on the (pc, taken) sequence of
//     conditionals and the hook calls between them — never on the
//     frontend — so resolving the block's predictions ahead of its cycle
//     accounting cannot change any prediction.
//   - Phase B replays the block record by record for cycle accounting
//     (FetchRun, target prediction, squashes), consuming the precomputed
//     miss flags, into cumulative counters. It runs in segments that end
//     at the sorted distinct interval bounds and snapshots the counters
//     there, so no record pays a bound check. It hands each conditional
//     the first interval measures to opt.Attrib.
//
// Predictor, frontend and cache state never depend on a warm-up, and
// every counter but BaseCycles is a prefix sum over records, so an
// interval's Result is the difference of its two snapshots. BaseCycles
// is ⌊Instrs / Width⌋ of that difference: a per-record loop that
// restarts its retire-width remainder at the warm-up keeps
// B·Width + r = Instrs with 0 ≤ r < Width. When the warm-up spans every
// record the interval has, a per-record loop never resets, and the
// Result covers the whole interval.
//
// The per-record loop is kept in the tests as the reference each
// Result must equal; splitting the phases is what makes RunIntervals
// the faster of the two.
func RunIntervals(s trace.Stream, pred bpu.Predictor, opt Options, ivs []Interval) []Result {
	if len(ivs) == 0 {
		return nil
	}
	sp := telemetry.StartSpan("simulate")
	defer sp.End()
	cfg := opt.Config
	if cfg.Width <= 0 {
		cfg = DefaultConfig()
	}
	// A warm-up at or past its End never starts a measurement, so it
	// is no bound; the largest bound is then the largest End.
	bounds := make([]uint64, 0, 2*len(ivs))
	for _, iv := range ivs {
		bounds = append(bounds, iv.End)
		if iv.Warmup < iv.End {
			bounds = append(bounds, iv.Warmup)
		}
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	stop := bounds[len(bounds)-1]
	snaps := make([]Result, len(bounds))

	fe := frontend.New(cfg.Frontend)
	blk := trace.NewBlock(trace.DefaultBlockSize)
	miss := make([]bool, blk.Cap())
	primer, _ := pred.(bpu.OraclePrimer)
	penalty := uint64(cfg.SquashPenalty)
	var rec trace.Record
	// sum holds the cumulative counters of every record so far; only
	// its prefix-sum fields are kept.
	var sum Result
	var prevTarget uint64
	next := snapshot(snaps, bounds, 0, sum, fe.Stats)

	for sum.Records < stop {
		if left := stop - sum.Records; left < uint64(blk.Cap()) {
			blk = trace.NewBlock(int(left))
		}
		if trace.Fill(s, blk) == 0 {
			break
		}
		// Phase A: direction outcomes.
		for i := 0; i < blk.N; i++ {
			if blk.Kind[i] == trace.CondBranch {
				pc, taken := blk.PC[i], blk.Taken[i]
				if primer != nil {
					primer.Prime(taken)
				}
				miss[i] = pred.Predict(pc) != taken
				pred.Update(pc, taken)
			}
			if opt.Hook != nil {
				blk.Record(i, &rec)
				opt.Hook.OnRecord(&rec)
			}
		}

		// Phase B: cycle accounting, one segment per stretch between
		// bounds.
		for i := 0; i < blk.N; {
			j := blk.N
			if r := bounds[next] - sum.Records; r < uint64(j-i) {
				j = i + int(r)
			}
			// The segment lies wholly inside or outside the first
			// interval's measured records (positions Warmup+1 .. End).
			var attr *attrib.Collector
			if sum.Records >= ivs[0].Warmup && sum.Records < ivs[0].End {
				attr = opt.Attrib
			}
			sum.Records += uint64(j - i)
			for ; i < j; i++ {
				sum.Instrs += uint64(blk.Instrs[i]) + 1

				// Frontend: fetch the sequential run feeding this record.
				start := prevTarget
				if start == 0 {
					start = blk.PC[i]
				}
				sum.FrontendCycles += fe.FetchRun(start, blk.Instrs[i]+1)

				// Target prediction.
				blk.Record(i, &rec)
				feStall, targetSquash := fe.OnControlFlow(&rec)
				sum.FrontendCycles += feStall
				if targetSquash {
					sum.SquashCycles += penalty
					fe.OnSquash()
				}

				// Direction outcome, resolved in Phase A.
				if blk.Kind[i] == trace.CondBranch {
					sum.CondExecs++
					if attr != nil {
						attr.Observe(blk.PC[i], blk.Taken[i], miss[i])
					}
					if miss[i] {
						sum.CondMisp++
						sum.SquashCycles += penalty
						fe.OnSquash()
					}
				}

				if blk.Taken[i] {
					prevTarget = blk.Target[i]
				} else {
					prevTarget = blk.PC[i] + 4
				}
			}
			next = snapshot(snaps, bounds, next, sum, fe.Stats)
		}
	}
	// Bounds past the stream's end see its final counters.
	for ; next < len(bounds); next++ {
		snaps[next] = sum
		snaps[next].Frontend = fe.Stats
	}

	out := make([]Result, len(ivs))
	for k, iv := range ivs {
		end, _ := slices.BinarySearch(bounds, iv.End)
		var from Result
		if iv.Warmup < min(iv.End, sum.Records) {
			w, _ := slices.BinarySearch(bounds, iv.Warmup)
			from = snaps[w]
		}
		out[k] = measured(snaps[end], from, iv.Warmup, uint64(cfg.Width))
		out[k].emitTelemetry()
	}
	return out
}

// snapshot stores the cumulative counters at every bound from next on
// that sum has reached and returns the index of the first bound it has
// not.
func snapshot(snaps []Result, bounds []uint64, next int, sum Result, fe frontend.Stats) int {
	for ; next < len(bounds) && bounds[next] == sum.Records; next++ {
		snaps[next] = sum
		snaps[next].Frontend = fe
	}
	return next
}

// measured is the Result of the records between two snapshots of the
// cumulative counters, from and end, with warmup leading records.
func measured(end, from Result, warmup, width uint64) Result {
	res := Result{
		Records:        end.Records - from.Records,
		Instrs:         end.Instrs - from.Instrs,
		CondExecs:      end.CondExecs - from.CondExecs,
		CondMisp:       end.CondMisp - from.CondMisp,
		SquashCycles:   end.SquashCycles - from.SquashCycles,
		FrontendCycles: end.FrontendCycles - from.FrontendCycles,
		Frontend:       subStats(end.Frontend, from.Frontend),
		WarmupRecords:  warmup,
	}
	res.BaseCycles = res.Instrs / width
	res.Cycles = res.BaseCycles + res.SquashCycles + res.FrontendCycles
	return res
}

// emitTelemetry flushes the run's accounting into the process registry.
// The hot per-record loop accumulates locally; the registry sees one
// batched update per completed run, so enabling telemetry costs a few
// counter adds per simulation unit, not per record.
func (res *Result) emitTelemetry() {
	r := telemetry.Default()
	if r == nil {
		return
	}
	r.Counter("whisper_sim_runs_total").Inc()
	r.Counter("whisper_sim_instructions_total").Add(res.Instrs)
	r.Counter("whisper_sim_records_total").Add(res.Records)
	r.Counter("whisper_sim_cond_execs_total").Add(res.CondExecs)
	r.Counter("whisper_sim_cond_mispredictions_total").Add(res.CondMisp)
	r.Counter("whisper_sim_cycles_total").Add(res.Cycles)
	r.Counter("whisper_sim_squash_cycles_total").Add(res.SquashCycles)
	r.Counter("whisper_sim_frontend_cycles_total").Add(res.FrontendCycles)
	r.Histogram("whisper_sim_run_instructions").Observe(res.Instrs)
}

// subStats subtracts a snapshot of the frontend stats from a later one.
func subStats(a, b frontend.Stats) frontend.Stats {
	return frontend.Stats{
		ExposedMissCycles: a.ExposedMissCycles - b.ExposedMissCycles,
		BTBMissCycles:     a.BTBMissCycles - b.BTBMissCycles,
		L1iAccesses:       a.L1iAccesses - b.L1iAccesses,
		L1iMisses:         a.L1iMisses - b.L1iMisses,
		ExposedMisses:     a.ExposedMisses - b.ExposedMisses,
		TargetMispredicts: a.TargetMispredicts - b.TargetMispredicts,
	}
}
