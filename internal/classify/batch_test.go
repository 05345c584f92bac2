package classify

import (
	"reflect"
	"testing"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
)

// runScalar is Run as a per-record loop: Predict and Update once per
// conditional record (priming an OraclePrimer first) and one Fold per
// length. It is the reference the batched Run must reproduce exactly.
func (c *Classifier) runScalar(s trace.Stream, pred bpu.Predictor) Counts {
	var counts Counts
	if c.TrackBranches > 0 {
		counts.Branches = make(map[uint64]*BranchClasses)
	}
	var hist bpu.History
	branches := make(map[uint64]*branchState)
	lru := newLRU(c.CapacityEntries)
	folds := make([]uint8, len(c.Lengths))
	var rec trace.Record
	for s.Next(&rec) {
		counts.Instrs += uint64(rec.Instrs) + 1
		if rec.Kind != trace.CondBranch {
			continue
		}
		counts.CondExecs++
		bs := branches[rec.PC]
		newPC := bs == nil
		if newPC {
			bs = &branchState{subs: make(map[uint32]*substream)}
			branches[rec.PC] = bs
		}
		for i, l := range c.Lengths {
			folds[i] = hist.Fold(l)
		}
		if o, ok := pred.(bpu.OraclePrimer); ok {
			o.Prime(rec.Taken)
		}
		misp := pred.Predict(rec.PC) != rec.Taken
		pred.Update(rec.PC, rec.Taken)
		if misp {
			counts.Total++
			cl := Compulsory
			if !newPC {
				cl = c.classify(bs, folds, rec.Taken)
			}
			counts.ByClass[cl]++
			if c.TrackBranches > 0 {
				bc := counts.Branches[rec.PC]
				if bc == nil && len(counts.Branches) < c.TrackBranches {
					bc = &BranchClasses{}
					counts.Branches[rec.PC] = bc
				}
				if bc != nil {
					bc[cl]++
				}
			}
		}
		for i := range c.Lengths {
			key := uint32(i)<<8 | uint32(folds[i])
			ss := bs.subs[key]
			if ss == nil {
				ss = &substream{lruPos: -1}
				bs.subs[key] = ss
			}
			ss.seen++
			if rec.Taken {
				ss.taken++
			}
			lru.touch(ss)
		}
		hist.Push(rec.Taken)
	}
	return counts
}

// TestRunBatchedMatchesScalar: block-wise classification equals the
// per-record reference for TAGE-SC-L, bimodal and the primed ideal
// predictor, with a capacity model small enough to evict.
func TestRunBatchedMatchesScalar(t *testing.T) {
	app := workload.DataCenterApp("kafka")
	preds := map[string]func() bpu.Predictor{
		"tage":    func() bpu.Predictor { return tage.New(tage.DefaultConfig()) },
		"bimodal": func() bpu.Predictor { return bpu.NewBimodal(10) },
		"ideal":   func() bpu.Predictor { return &bpu.Oracle{} },
	}
	for name, newPred := range preds {
		mk := func() *Classifier {
			c := DefaultClassifier()
			c.CapacityEntries = 4096
			c.TrackBranches = 64
			c.Lengths = bpu.DefaultGeomLengths
			return c
		}
		got := mk().Run(app.Stream(0, 30000), newPred())
		want := mk().runScalar(app.Stream(0, 30000), newPred())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: batched counts %+v, scalar %+v", name, got.ByClass, want.ByClass)
		}
		if name != "ideal" && got.Total == 0 {
			t.Fatalf("%s: no mispredictions classified", name)
		}
	}
}
