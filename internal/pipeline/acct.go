package pipeline

import (
	"github.com/whisper-sim/whisper/internal/frontend"
	"github.com/whisper-sim/whisper/internal/trace"
)

// acct is the batched engine's cycle-accounting core: the scalar
// reference loop's per-record Phase B state with Predict/Update lifted
// out. Direction outcomes arrive as precomputed miss flags, so an acct
// never touches the predictor.
type acct struct {
	cfg Config
	fe  *frontend.FDIP
	res Result

	instrRemainder uint64
	prevTarget     uint64
	seen           uint64
	warmup         uint64
	measuring      bool
	feAtMeasure    frontend.Stats

	rec trace.Record
}

// newAcct builds a fresh accounting context at trace start.
func newAcct(cfg Config, warmup uint64) *acct {
	a := &acct{
		cfg:       cfg,
		fe:        frontend.New(cfg.Frontend),
		warmup:    warmup,
		measuring: warmup == 0,
	}
	a.res.WarmupRecords = warmup
	return a
}

// accountBlock replays blk's records against the accounting state,
// consuming the precomputed miss flags. It is the body of the scalar
// reference loop minus prediction.
func (a *acct) accountBlock(blk *trace.Block, miss []bool) {
	cfg := a.cfg
	n := blk.N
	for i := 0; i < n; i++ {
		a.seen++
		if !a.measuring && a.seen > a.warmup {
			a.measuring = true
			// Reset measured counters; structures stay warm.
			a.res = Result{WarmupRecords: a.warmup}
			a.instrRemainder = 0
			a.feAtMeasure = a.fe.Stats
		}

		instrs := uint64(blk.Instrs[i]) + 1
		a.res.Records++
		a.res.Instrs += instrs

		// Base work: width-limited retirement.
		a.instrRemainder += instrs
		a.res.BaseCycles += a.instrRemainder / uint64(cfg.Width)
		a.instrRemainder %= uint64(cfg.Width)

		// Frontend: fetch the sequential run feeding this record.
		start := a.prevTarget
		if start == 0 {
			start = blk.PC[i]
		}
		a.res.FrontendCycles += a.fe.FetchRun(start, blk.Instrs[i]+1)

		// Target prediction.
		blk.Record(i, &a.rec)
		feStall, targetSquash := a.fe.OnControlFlow(&a.rec)
		a.res.FrontendCycles += feStall
		if targetSquash {
			a.res.SquashCycles += uint64(cfg.SquashPenalty)
			a.fe.OnSquash()
		}

		// Direction outcome, resolved in Phase A.
		if blk.Kind[i] == trace.CondBranch {
			a.res.CondExecs++
			if miss[i] {
				a.res.CondMisp++
				a.res.SquashCycles += uint64(cfg.SquashPenalty)
				a.fe.OnSquash()
			}
		}

		if blk.Taken[i] {
			a.prevTarget = blk.Target[i]
		} else {
			a.prevTarget = blk.PC[i] + 4
		}
	}
}

// finish folds the frontend stats into the result and totals the cycle
// buckets. Call once, after the last accountBlock.
func (a *acct) finish() Result {
	a.res.Frontend = subStats(a.fe.Stats, a.feAtMeasure)
	a.res.Cycles = a.res.BaseCycles + a.res.SquashCycles + a.res.FrontendCycles
	return a.res
}
