package bpu

import "github.com/whisper-sim/whisper/internal/trace"

// CondBlocks drives Phase A for the offline passes over a stream (the
// profiler's accuracy pass, the misprediction classifier): it reads the
// stream one trace.Block at a time and resolves the block's conditional
// records with Predict then Update each, in trace order, leaving them
// for the caller to replay its bookkeeping over. An OraclePrimer is
// primed before each Predict, exactly as in pipeline.Run's Phase A.
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

	s      trace.Stream
	pred   Predictor
	primer OraclePrimer
}

// NewCondBlocks drives pred over s in blocks of trace.DefaultBlockSize
// records.
func NewCondBlocks(s trace.Stream, pred Predictor) *CondBlocks {
	blk := trace.NewBlock(0)
	primer, _ := pred.(OraclePrimer)
	return &CondBlocks{
		Block:  blk,
		PC:     make([]uint64, blk.Cap()),
		Taken:  make([]bool, blk.Cap()),
		Miss:   make([]bool, blk.Cap()),
		s:      s,
		pred:   pred,
		primer: primer,
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
		if k != trace.CondBranch {
			continue
		}
		pc, taken := blk.PC[i], blk.Taken[i]
		if c.primer != nil {
			c.primer.Prime(taken)
		}
		c.PC[n], c.Taken[n] = pc, taken
		c.Miss[n] = c.pred.Predict(pc) != taken
		c.pred.Update(pc, taken)
		n++
	}
	c.N = n
	return true
}
