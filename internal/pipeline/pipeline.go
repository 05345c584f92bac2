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

// Run drives pred over the stream and returns the accounting. It reads
// the stream a trace.Block at a time and processes each block in two
// phases that together replay a per-record loop (one Predict, one
// Update and one record's accounting at a time) exactly:
//
//   - Phase A walks the block in trace order: Predict then Update for
//     each conditional record (priming an OraclePrimer first, asserted
//     once per run), and the hook after each record. The direction
//     predictor's state depends only on the (pc, taken) sequence of
//     conditionals and the hook calls between them — never on the
//     frontend — so resolving the block's predictions ahead of its cycle
//     accounting cannot change any prediction.
//   - Phase B replays the block record by record for cycle accounting
//     (retire-width arithmetic, FetchRun, target prediction, squashes),
//     consuming the precomputed miss flags, and hands each measured
//     conditional's outcome to opt.Attrib.
//
// The per-record loop is kept in the tests as the reference Run must
// equal; splitting the phases is what makes Run the faster of the two.
func Run(s trace.Stream, pred bpu.Predictor, opt Options) Result {
	sp := telemetry.StartSpan("simulate")
	defer sp.End()
	cfg := opt.Config
	if cfg.Width <= 0 {
		cfg = DefaultConfig()
	}
	fe := frontend.New(cfg.Frontend)
	blk := trace.NewBlock(trace.DefaultBlockSize)
	miss := make([]bool, blk.Cap())
	primer, _ := pred.(bpu.OraclePrimer)
	var rec trace.Record

	warmup := opt.WarmupRecords
	res := Result{WarmupRecords: warmup}
	measuring := warmup == 0
	var seen, instrRemainder, prevTarget uint64
	var feAtMeasure frontend.Stats

	for trace.Fill(s, blk) > 0 {
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

		// Phase B: cycle accounting.
		for i := 0; i < blk.N; i++ {
			seen++
			if !measuring && seen > warmup {
				measuring = true
				// Reset measured counters; structures stay warm.
				res = Result{WarmupRecords: warmup}
				instrRemainder = 0
				feAtMeasure = fe.Stats
			}

			instrs := uint64(blk.Instrs[i]) + 1
			res.Records++
			res.Instrs += instrs

			// Base work: width-limited retirement.
			instrRemainder += instrs
			res.BaseCycles += instrRemainder / uint64(cfg.Width)
			instrRemainder %= uint64(cfg.Width)

			// Frontend: fetch the sequential run feeding this record.
			start := prevTarget
			if start == 0 {
				start = blk.PC[i]
			}
			res.FrontendCycles += fe.FetchRun(start, blk.Instrs[i]+1)

			// Target prediction.
			blk.Record(i, &rec)
			feStall, targetSquash := fe.OnControlFlow(&rec)
			res.FrontendCycles += feStall
			if targetSquash {
				res.SquashCycles += uint64(cfg.SquashPenalty)
				fe.OnSquash()
			}

			// Direction outcome, resolved in Phase A.
			if blk.Kind[i] == trace.CondBranch {
				res.CondExecs++
				if measuring {
					opt.Attrib.Observe(blk.PC[i], blk.Taken[i], miss[i])
				}
				if miss[i] {
					res.CondMisp++
					res.SquashCycles += uint64(cfg.SquashPenalty)
					fe.OnSquash()
				}
			}

			if blk.Taken[i] {
				prevTarget = blk.Target[i]
			} else {
				prevTarget = blk.PC[i] + 4
			}
		}
	}
	res.Frontend = subStats(fe.Stats, feAtMeasure)
	res.Cycles = res.BaseCycles + res.SquashCycles + res.FrontendCycles
	res.emitTelemetry()
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

// subStats subtracts the warm-up snapshot from the final frontend stats
// so the result covers only the measured window.
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
