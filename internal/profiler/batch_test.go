package profiler

import (
	"reflect"
	"testing"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
)

// collectScalar is Collect as a per-record loop: pass 1 calls Predict and
// Update once per conditional record (priming an OraclePrimer first), and
// pass 2 folds every length separately. It is the reference the batched
// Collect must reproduce exactly.
func collectScalar(mkStream func() trace.Stream, pred bpu.Predictor, opt Options) *Profile {
	if opt.Lengths == nil {
		opt.Lengths = bpu.DefaultGeomLengths
	}
	p := &Profile{
		Lengths: opt.Lengths,
		Stats:   make(map[uint64]*BranchStats),
		Hard:    make(map[uint64]*HardProfile),
	}
	s := mkStream()
	var rec trace.Record
	for s.Next(&rec) {
		p.Records++
		p.Instrs += uint64(rec.Instrs) + 1
		if rec.Kind != trace.CondBranch {
			continue
		}
		p.CondExecs++
		bs := p.Stats[rec.PC]
		if bs == nil {
			bs = &BranchStats{}
			p.Stats[rec.PC] = bs
		}
		e := bs.Execs
		bs.Execs++
		if rec.Taken {
			bs.Taken++
		}
		if o, ok := pred.(bpu.OraclePrimer); ok {
			o.Prime(rec.Taken)
		}
		misp := pred.Predict(rec.PC) != rec.Taken
		if misp {
			bs.Misp++
			p.Mispreds++
		}
		if e >= opt.WarmExecs {
			bs.measExecs++
			if misp {
				bs.mispMeas++
				if (e-opt.WarmExecs)&1 == 1 {
					bs.mispVal++
				}
			}
		}
		pred.Update(rec.PC, rec.Taken)
	}
	p.selectHard(opt)
	if len(p.Hard) == 0 {
		return p
	}
	s = mkStream()
	var hist bpu.History
	execIdx := make(map[uint64]uint64)
	for s.Next(&rec) {
		if rec.Kind != trace.CondBranch {
			continue
		}
		if hp := p.Hard[rec.PC]; hp != nil {
			e := execIdx[rec.PC]
			execIdx[rec.PC] = e + 1
			validation := e >= opt.WarmExecs && (e-opt.WarmExecs)&1 == 1
			for i, l := range opt.Lengths {
				h := hist.Fold(l)
				switch {
				case validation && rec.Taken:
					hp.VT[i][h]++
				case validation:
					hp.VNT[i][h]++
				case rec.Taken:
					hp.T[i][h]++
				default:
					hp.NT[i][h]++
				}
			}
		}
		hist.Push(rec.Taken)
	}
	return p
}

// TestCollectBatchedMatchesScalar: the block-wise accuracy pass and the
// planned fold give a profile DeepEqual to the per-record reference, for
// TAGE-SC-L, bimodal and the ideal predictor, whose OraclePrimer priming
// the block driver must keep. The slice-stream case feeds blocks through
// Next rather than the generator's FillBlock.
func TestCollectBatchedMatchesScalar(t *testing.T) {
	app := mkApp(t)
	recs := trace.Collect(app.Stream(1, 30000), 0)
	streams := map[string]func() trace.Stream{
		"generator": func() trace.Stream { return app.Stream(0, 60000) },
		"slice":     func() trace.Stream { return trace.NewSliceStream(recs) },
	}
	preds := map[string]func() bpu.Predictor{
		"tage":    func() bpu.Predictor { return tage.New(tage.DefaultConfig()) },
		"bimodal": func() bpu.Predictor { return bpu.NewBimodal(10) },
		"ideal":   func() bpu.Predictor { return &bpu.Oracle{} },
	}
	for sn, mk := range streams {
		for pn, newPred := range preds {
			got, err := Collect(mk, newPred(), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			want := collectScalar(mk, newPred(), DefaultOptions())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: batched profile differs from the scalar reference", sn, pn)
			}
			if pn != "ideal" && len(got.Hard) == 0 {
				t.Fatalf("%s/%s: no hard branches, so pass 2 went untested", sn, pn)
			}
			if pn == "ideal" && got.Mispreds != 0 {
				t.Fatalf("%s/ideal: %d mispredictions; priming was lost", sn, got.Mispreds)
			}
		}
	}
}
