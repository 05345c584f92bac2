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

// countCalls wraps mk in a factory that counts its calls in *calls.
func countCalls(mk func() trace.Stream, calls *int) func() trace.Stream {
	return func() trace.Stream {
		*calls++
		return mk()
	}
}

// TestCollectBatchedMatchesScalar: the one-read Collect, which replays
// its accuracy pass's log instead of reading the stream twice, gives a
// profile DeepEqual to the per-record, two-read reference, for
// TAGE-SC-L, bimodal and the ideal predictor, whose OraclePrimer priming
// the block driver must keep, under the default options, a hard-set
// cap of one branch and no warm-up. The slice-stream case feeds blocks
// through Next rather than the generator's FillBlock, and a window too
// short to hold a hard branch skips the replay. Collect and a
// three-end CollectPrefixes each call their factory once.
func TestCollectBatchedMatchesScalar(t *testing.T) {
	app := mkApp(t)
	recs := trace.Collect(app.Stream(1, 30000), 0)
	streams := map[string]func() trace.Stream{
		"generator": func() trace.Stream { return app.Stream(0, 60000) },
		"slice":     func() trace.Stream { return trace.NewSliceStream(recs) },
		"no hard":   func() trace.Stream { return app.Stream(0, 40) },
	}
	preds := map[string]func() bpu.Predictor{
		"tage":    func() bpu.Predictor { return tage.New(tage.DefaultConfig()) },
		"bimodal": func() bpu.Predictor { return bpu.NewBimodal(10) },
		"ideal":   func() bpu.Predictor { return &bpu.Oracle{} },
	}
	maxHard1, warm0 := DefaultOptions(), DefaultOptions()
	maxHard1.MaxHard = 1
	warm0.WarmExecs = 0
	opts := map[string]Options{"default": DefaultOptions(), "max hard 1": maxHard1, "warm 0": warm0}
	for sn, mk := range streams {
		for pn, newPred := range preds {
			for on, opt := range opts {
				name := sn + "/" + pn + "/" + on
				calls := 0
				got, err := Collect(countCalls(mk, &calls), newPred(), opt)
				if err != nil {
					t.Fatal(err)
				}
				if calls != 1 {
					t.Fatalf("%s: Collect called its factory %d times", name, calls)
				}
				want := collectScalar(mk, newPred(), opt)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: batched profile differs from the scalar reference", name)
				}
				switch {
				case sn == "no hard" && len(got.Hard) != 0:
					t.Fatalf("%s: %d hard branches in a window meant to have none", name, len(got.Hard))
				case sn != "no hard" && pn != "ideal" && len(got.Hard) == 0:
					t.Fatalf("%s: no hard branches, so pass 2 went untested", name)
				case on == "max hard 1" && len(got.Hard) > 1:
					t.Fatalf("%s: %d hard branches under a cap of 1", name, len(got.Hard))
				case pn == "ideal" && got.Mispreds != 0:
					t.Fatalf("%s: %d mispredictions; priming was lost", name, got.Mispreds)
				}

				calls = 0
				all := recs
				if sn != "slice" {
					all = trace.Collect(mk(), 0)
				}
				n := uint64(len(all))
				ends := []uint64{n / 3, 2 * n / 3, n}
				ps, err := CollectPrefixes(countCalls(mk, &calls), newPred(), opt, ends)
				if err != nil {
					t.Fatal(err)
				}
				if calls != 1 {
					t.Fatalf("%s: CollectPrefixes called its factory %d times", name, calls)
				}
				for k, end := range ends {
					prefix := func() trace.Stream { return trace.NewSliceStream(all[:end]) }
					if !reflect.DeepEqual(ps[k], collectScalar(prefix, newPred(), opt)) {
						t.Fatalf("%s: prefix profile at end %d differs from the scalar reference", name, end)
					}
				}
			}
		}
	}
}
