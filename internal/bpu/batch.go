package bpu

import "github.com/whisper-sim/whisper/internal/trace"

// BatchPredictor is the optional block fast path of the simulation hot
// loop. PredictUpdateBatch must be semantically identical to calling
// Predict(pcs[i]) followed by Update(pcs[i], taken[i]) for every i in
// order — same predictions, same internal state afterwards — but a
// single dynamic dispatch covers the whole span, which lets heavy
// predictors hoist history-hash computation and bookkeeping out of the
// per-record path. The batched engine verifies equivalence with
// differential tests at every block size; predictors that do not
// implement the interface run through the Batch adapter below.
type BatchPredictor interface {
	Predictor
	// PredictUpdateBatch predicts and trains on len(pcs) conditional
	// branch records, setting miss[i] to whether the prediction for
	// pcs[i] differed from taken[i]. The three slices share a length.
	PredictUpdateBatch(pcs []uint64, taken, miss []bool)
}

// scalarBatch adapts any Predictor to BatchPredictor with the reference
// per-record loop, including OraclePrimer priming.
type scalarBatch struct {
	Predictor
}

// PredictUpdateBatch implements BatchPredictor.
func (s scalarBatch) PredictUpdateBatch(pcs []uint64, taken, miss []bool) {
	p := s.Predictor
	primer, _ := p.(OraclePrimer)
	for i, pc := range pcs {
		if primer != nil {
			primer.Prime(taken[i])
		}
		miss[i] = p.Predict(pc) != taken[i]
		p.Update(pc, taken[i])
	}
}

// Batch returns p itself when it already implements BatchPredictor, or
// wraps it in the scalar fallback adapter otherwise. The result is
// always safe to drive through PredictUpdateBatch.
func Batch(p Predictor) BatchPredictor {
	if bp, ok := p.(BatchPredictor); ok {
		return bp
	}
	return scalarBatch{p}
}

// CondBlocks runs Phase A in batches for the offline passes over a
// stream (the profiler's accuracy pass, the misprediction classifier):
// it reads the stream one trace.Block at a time and resolves the block's
// conditional records with a single PredictUpdateBatch call, leaving
// them in order for the caller to replay its bookkeeping over. The
// predictor sees exactly the Predict/Update sequence of a per-record
// loop, OraclePrimer priming included (see Batch).
type CondBlocks struct {
	// Block holds the current block's records.
	Block *trace.Block
	// PC, Taken and Miss describe the block's k-th conditional record
	// for k < N: its address, its outcome, and whether the predictor
	// mispredicted it.
	PC    []uint64
	Taken []bool
	Miss  []bool
	N     int

	s  trace.Stream
	bp BatchPredictor
}

// NewCondBlocks drives pred over s in blocks of trace.DefaultBlockSize
// records.
func NewCondBlocks(s trace.Stream, pred Predictor) *CondBlocks {
	blk := trace.NewBlock(0)
	return &CondBlocks{
		Block: blk,
		PC:    make([]uint64, blk.Cap()),
		Taken: make([]bool, blk.Cap()),
		Miss:  make([]bool, blk.Cap()),
		s:     s,
		bp:    Batch(pred),
	}
}

// Next loads the next block and resolves its conditional records. It
// returns false at the end of the stream.
func (c *CondBlocks) Next() bool {
	blk := c.Block
	if trace.Fill(c.s, blk) == 0 {
		return false
	}
	n := 0
	for i, k := range blk.Kind[:blk.N] {
		if k == trace.CondBranch {
			c.PC[n], c.Taken[n] = blk.PC[i], blk.Taken[i]
			n++
		}
	}
	c.N = n
	c.bp.PredictUpdateBatch(c.PC[:n], c.Taken[:n], c.Miss[:n])
	return true
}
