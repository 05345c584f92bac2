package pipeline

import (
	"github.com/whisper-sim/whisper/internal/bpu"
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

// spanRunner is Phase A of the batched engine: it resolves the direction
// outcomes of a block's conditional records through one BatchPredictor
// call per span, breaking spans only at records whose hook call is not
// a guaranteed no-op (see PassiveHook).
type spanRunner struct {
	bp        bpu.BatchPredictor
	hook      RecordHook
	passiveAt func(uint64) bool

	// spanIdx maps the k-th span entry back to its block position so
	// miss flags land on the right record.
	spanPC    []uint64
	spanTaken []bool
	spanMiss  []bool
	spanIdx   []int
	spanLen   int

	rec trace.Record
}

// newSpanRunner sizes the span scratch for blocks of up to size records.
// hook may be nil; when non-nil it must implement PassiveHook.
func newSpanRunner(pred bpu.Predictor, hook RecordHook, size int) *spanRunner {
	sr := &spanRunner{
		bp:        bpu.Batch(pred),
		hook:      hook,
		spanPC:    make([]uint64, size),
		spanTaken: make([]bool, size),
		spanMiss:  make([]bool, size),
		spanIdx:   make([]int, size),
	}
	if hook != nil {
		sr.passiveAt = hook.(PassiveHook).PassiveAt
	}
	return sr
}

func (sr *spanRunner) flush(miss []bool) {
	if sr.spanLen == 0 {
		return
	}
	sr.bp.PredictUpdateBatch(sr.spanPC[:sr.spanLen], sr.spanTaken[:sr.spanLen], sr.spanMiss[:sr.spanLen])
	for k := 0; k < sr.spanLen; k++ {
		miss[sr.spanIdx[k]] = sr.spanMiss[k]
	}
	sr.spanLen = 0
}

// phaseA resolves blk's direction outcomes into miss, interleaving hook
// calls in exact scalar order.
func (sr *spanRunner) phaseA(blk *trace.Block, miss []bool) {
	n := blk.N
	for i := 0; i < n; i++ {
		if blk.Kind[i] == trace.CondBranch {
			sr.spanPC[sr.spanLen] = blk.PC[i]
			sr.spanTaken[sr.spanLen] = blk.Taken[i]
			sr.spanIdx[sr.spanLen] = i
			sr.spanLen++
		}
		if sr.hook != nil && !sr.passiveAt(blk.PC[i]) {
			sr.flush(miss)
			blk.Record(i, &sr.rec)
			sr.hook.OnRecord(&sr.rec)
		}
	}
	sr.flush(miss)
}
