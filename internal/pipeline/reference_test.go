package pipeline

import (
	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/frontend"
	"github.com/whisper-sim/whisper/internal/telemetry"
	"github.com/whisper-sim/whisper/internal/trace"
)

// runScalar is the per-record reference loop: one Stream.Next, one
// Predict, one Update and one record's accounting at a time. Run is
// defined as producing exactly its output; the differential tests
// compare the two.
func runScalar(s trace.Stream, pred bpu.Predictor, opt Options) Result {
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
