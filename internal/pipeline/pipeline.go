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
	// BlockSize selects the engine: 0 runs the batched engine at
	// trace.DefaultBlockSize, a positive value runs it at that block
	// size, and a negative value forces the scalar reference engine.
	// Every setting produces bit-identical results (locked by the
	// differential tests); the knob exists for testing and comparison.
	BlockSize int
	// Attrib, when non-nil, receives every measured conditional's
	// direction outcome (pc, taken, mispredicted) in trace order. Both
	// engines feed it where direction outcomes resolve (the scalar loop,
	// the batched Phase A walk), so the observation stream — and
	// therefore any attribution report — is identical whichever engine
	// ran. A nil collector costs nothing.
	Attrib *attrib.Collector
}

// Run drives pred over the stream and returns the accounting. It uses
// the batched block engine unless opt.BlockSize is negative, which
// forces the scalar reference loop. Both engines are bit-identical by
// construction and by differential test.
func Run(s trace.Stream, pred bpu.Predictor, opt Options) Result {
	if opt.BlockSize < 0 {
		return RunScalar(s, pred, opt)
	}
	return runBatched(s, pred, opt)
}

// RunScalar is the per-record reference engine: one Stream.Next, one
// Predict, one Update per record. The batched engine is defined as
// producing exactly its output; differential tests compare the two.
func RunScalar(s trace.Stream, pred bpu.Predictor, opt Options) Result {
	sp := telemetry.StartSpan("simulate")
	defer sp.End()
	cfg := opt.Config
	if cfg.Width <= 0 {
		cfg = DefaultConfig()
	}
	fe := frontend.New(cfg.Frontend)
	var res Result
	res.WarmupRecords = opt.WarmupRecords

	var rec trace.Record
	var instrRemainder uint64
	var warmup = opt.WarmupRecords
	var seen uint64
	measuring := warmup == 0
	prevTarget := uint64(0)
	var feAtMeasure frontend.Stats

	for s.Next(&rec) {
		seen++
		if !measuring && seen > warmup {
			measuring = true
			// Reset measured counters; structures stay warm.
			res = Result{WarmupRecords: warmup}
			instrRemainder = 0
			feAtMeasure = fe.Stats
		}

		instrs := uint64(rec.Instrs) + 1
		res.Records++
		res.Instrs += instrs

		// Base work: width-limited retirement.
		instrRemainder += instrs
		res.BaseCycles += instrRemainder / uint64(cfg.Width)
		instrRemainder %= uint64(cfg.Width)

		// Frontend: fetch the sequential run feeding this record.
		start := prevTarget
		if start == 0 {
			start = rec.PC
		}
		res.FrontendCycles += fe.FetchRun(start, rec.Instrs+1)

		// Target prediction.
		feStall, targetSquash := fe.OnControlFlow(&rec)
		res.FrontendCycles += feStall
		if targetSquash {
			res.SquashCycles += uint64(cfg.SquashPenalty)
			fe.OnSquash()
		}

		// Direction prediction for conditionals.
		if rec.Kind == trace.CondBranch {
			res.CondExecs++
			if o, ok := pred.(bpu.OraclePrimer); ok {
				o.Prime(rec.Taken)
			}
			miss := pred.Predict(rec.PC) != rec.Taken
			if measuring {
				opt.Attrib.Observe(rec.PC, rec.Taken, miss)
			}
			if miss {
				res.CondMisp++
				res.SquashCycles += uint64(cfg.SquashPenalty)
				fe.OnSquash()
			}
			pred.Update(rec.PC, rec.Taken)
		}

		if opt.Hook != nil {
			opt.Hook.OnRecord(&rec)
		}
		if rec.Taken {
			prevTarget = rec.Target
		} else {
			prevTarget = rec.PC + 4
		}
	}
	res.Frontend = subStats(fe.Stats, feAtMeasure)
	res.Cycles = res.BaseCycles + res.SquashCycles + res.FrontendCycles
	res.emitTelemetry()
	return res
}

// runBatched is the block engine. Each block is processed in two phases
// that together replay the scalar loop exactly:
//
//   - Phase A walks the block in trace order: Predict then Update for
//     each conditional record (priming an OraclePrimer first, asserted
//     once per run), and the hook after each record, the scalar loop's
//     order. The direction predictor's state depends only on the
//     (pc, taken) sequence of conditionals and the hook calls between
//     them — never on the frontend — so resolving the block's
//     predictions ahead of its cycle accounting cannot change any
//     prediction.
//   - Phase B replays the block record by record for cycle accounting
//     (retire-width arithmetic, FetchRun, target prediction, squashes),
//     consuming the precomputed miss flags. This is the scalar loop with
//     Predict/Update lifted out.
func runBatched(s trace.Stream, pred bpu.Predictor, opt Options) Result {
	sp := telemetry.StartSpan("simulate")
	defer sp.End()
	cfg := opt.Config
	if cfg.Width <= 0 {
		cfg = DefaultConfig()
	}

	size := opt.BlockSize
	if size == 0 {
		size = trace.DefaultBlockSize
	}
	blk := trace.NewBlock(size)
	miss := make([]bool, blk.Cap())
	primer, _ := pred.(bpu.OraclePrimer)
	var rec trace.Record
	a := newAcct(cfg, opt.WarmupRecords)

	var seen uint64
	for trace.Fill(s, blk) > 0 {
		// Phase A.
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
		seen = observeBlock(opt.Attrib, blk, miss, seen, opt.WarmupRecords)
		a.accountBlock(blk, miss)
	}
	res := a.finish()
	res.emitTelemetry()
	return res
}

// observeBlock feeds a block's measured conditional outcomes into the
// attribution collector in trace order, right after Phase A resolved
// them. seen is the global 1-based record count before the block; the
// return value is the count after it. A record is measured exactly when
// its 1-based index exceeds the warmup count — the same condition the
// scalar loop and acct use to flip into measuring — so both engines
// produce the identical observation stream. Nil collectors skip the
// walk entirely.
func observeBlock(c *attrib.Collector, blk *trace.Block, miss []bool, seen, warmup uint64) uint64 {
	if c == nil {
		return seen + uint64(blk.N)
	}
	for i := 0; i < blk.N; i++ {
		seen++
		if blk.Kind[i] == trace.CondBranch && seen > warmup {
			c.Observe(blk.PC[i], blk.Taken[i], miss[i])
		}
	}
	return seen
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
