package profiler

import (
	"reflect"
	"testing"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
)

// checkPrefixes runs one CollectPrefixes over mk's stream at ends,
// which ascend strictly, and fails unless it calls mk once and each
// end's profile is DeepEqual to Collect, and to the per-record
// reference collectScalar, with a fresh predictor, over prefix(end),
// the stream's first end records. Merge mutates its receiver, so it
// then merges into the longest end's profile, which counted the
// histograms the shorter ends copied, and checks that every other
// profile still equals its reference. It returns the profiles.
func checkPrefixes(t *testing.T, name string, mk func() trace.Stream, prefix func(end uint64) func() trace.Stream,
	newPred func() bpu.Predictor, opt Options, ends []uint64) []*Profile {
	t.Helper()
	calls := 0
	got, err := CollectPrefixes(countCalls(mk, &calls), newPred(), opt, ends)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("%s: CollectPrefixes called its factory %d times", name, calls)
	}
	if len(got) != len(ends) {
		t.Fatalf("%s: %d ends, %d profiles", name, len(ends), len(got))
	}
	want := make([]*Profile, len(ends))
	for k, end := range ends {
		if want[k], err = Collect(prefix(end), newPred(), opt); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Fatalf("%s: profile at end %d (of %v) differs from Collect over that prefix", name, end, ends)
		}
		if !reflect.DeepEqual(got[k], collectScalar(prefix(end), newPred(), opt)) {
			t.Fatalf("%s: profile at end %d (of %v) differs from collectScalar over that prefix", name, end, ends)
		}
	}

	longest := len(ends) - 1
	if err := got[longest].Merge(want[longest]); err != nil {
		t.Fatal(err)
	}
	for k, end := range ends[:longest] {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Fatalf("%s: merging into the longest end's profile changed the one at end %d", name, end)
		}
	}
	return got
}

// TestCollectPrefixesMatchesCollect locks CollectPrefixes to Collect
// for every Table I app on its test input: an app's n-record window is
// the first n records of any longer one, so Collect over it is Collect
// over that prefix. The ends straddle a block edge and the last reaches
// past the stream. Over the apps the set must include
// an end with no hard branch while a longer end has some (wordpress at
// 4095), and a branch hard at a shorter end but not at the longest;
// a trace.SliceStream, which fills its blocks through Next, covers the
// stream that is not a trace.BlockFiller.
func TestCollectPrefixesMatchesCollect(t *testing.T) {
	const n = 20000
	bs := uint64(trace.DefaultBlockSize)
	ends := []uint64{bs - 1, bs, bs + 1, 12000, n, n + 5000}
	newPred := func() bpu.Predictor { return tage.New(tage.Config{SizeKB: 64}) }
	opt := DefaultOptions()

	var noHard, droppedLater int
	for _, app := range workload.DataCenterApps() {
		mk := func() trace.Stream { return app.Stream(1, n) }
		prefix := func(end uint64) func() trace.Stream {
			return func() trace.Stream { return app.Stream(1, int(min(end, n))) }
		}
		got := checkPrefixes(t, app.Name(), mk, prefix, newPred, opt, ends)
		last := got[len(got)-1]
		for _, p := range got {
			if len(p.Hard) == 0 && len(last.Hard) > 0 {
				noHard++
			}
			for pc := range p.Hard {
				if last.Hard[pc] == nil {
					droppedLater++
				}
			}
		}
	}
	if noHard == 0 {
		t.Error("no end without a hard branch below one with some: that case went untested")
	}
	if droppedLater == 0 {
		t.Error("no branch hard at a short end but not at the longest: that case went untested")
	}

	recs := trace.Collect(workload.DataCenterApp("mysql").Stream(0, n), 0)
	checkPrefixes(t, "mysql slice",
		func() trace.Stream { return trace.NewSliceStream(recs) },
		func(end uint64) func() trace.Stream {
			return func() trace.Stream { return trace.NewSliceStream(recs[:min(end, n)]) }
		}, newPred, opt, ends)
}

// TestCollectPrefixesEdges: no end returns no profile, an end of 0 is
// the empty profile, nil arguments are rejected as by Collect, and ends
// that do not ascend strictly are rejected before the factory is
// called.
func TestCollectPrefixesEdges(t *testing.T) {
	app := mkApp(t)
	mk := func() trace.Stream { return app.Stream(0, 5000) }
	if ps, err := CollectPrefixes(mk, tage.New(tage.DefaultConfig()), DefaultOptions(), nil); err != nil || ps != nil {
		t.Fatalf("no ends: %v, %v", ps, err)
	}
	checkPrefixes(t, "zero", mk, func(end uint64) func() trace.Stream {
		return func() trace.Stream { return app.Stream(0, int(min(end, 5000))) }
	}, func() bpu.Predictor { return tage.New(tage.DefaultConfig()) }, DefaultOptions(), []uint64{0, 5000})
	if _, err := CollectPrefixes(nil, nil, Options{}, []uint64{1}); err == nil {
		t.Fatal("nil args accepted")
	}
	for _, ends := range [][]uint64{{5000, 0}, {0, 5000, 0}, {100, 100}} {
		checkRejected(t, mk, ends)
	}
}

// checkRejected fails unless CollectPrefixes rejects ends without
// calling its factory.
func checkRejected(t *testing.T, mk func() trace.Stream, ends []uint64) {
	t.Helper()
	calls := 0
	if ps, err := CollectPrefixes(countCalls(mk, &calls), tage.New(tage.Config{SizeKB: 8}), DefaultOptions(), ends); err == nil || ps != nil {
		t.Fatalf("ends %v accepted: %d profiles", ends, len(ps))
	}
	if calls != 0 {
		t.Fatalf("ends %v: the factory was called %d times before the error", ends, calls)
	}
}

// FuzzCollectPrefixes fuzzes CollectPrefixes against per-end Collect
// over random stream lengths and three strictly ascending ends, drawn as
// a first end and two gaps, which reach past the stream. A small
// hard-set cap (maxHard, 0 for none) reorders the selection between
// ends, so a branch hard at one end drops out at a later one. With swap
// set, the first two ends trade places and CollectPrefixes must reject
// them without calling its factory.
func FuzzCollectPrefixes(f *testing.F) {
	f.Add(uint16(12000), uint16(4095), uint16(0), uint16(0), uint8(0), false)
	f.Add(uint16(20000), uint16(9000), uint16(20999), uint16(0), uint8(5), false)
	f.Add(uint16(5000), uint16(0), uint16(99), uint16(4899), uint8(1), false)
	f.Add(uint16(0), uint16(0), uint16(9), uint16(4085), uint8(0), false)
	f.Add(uint16(8193), uint16(8192), uint16(0), uint16(0), uint8(3), false)
	f.Add(uint16(5000), uint16(100), uint16(4899), uint16(10), uint8(0), true)
	app := mkApp(f)
	f.Fuzz(func(t *testing.T, n, first, gap1, gap2 uint16, maxHard uint8, swap bool) {
		e0 := uint64(first)
		e1 := e0 + uint64(gap1) + 1
		ends := []uint64{e0, e1, e1 + uint64(gap2) + 1}
		mk := func() trace.Stream { return app.Stream(0, int(n)) }
		if swap {
			ends[0], ends[1] = ends[1], ends[0]
			checkRejected(t, mk, ends)
			return
		}
		recs := trace.Collect(mk(), 0)
		opt := DefaultOptions()
		opt.MaxHard = int(maxHard)
		checkPrefixes(t, "fuzz", mk,
			func(end uint64) func() trace.Stream {
				return func() trace.Stream { return trace.NewSliceStream(recs[:min(end, uint64(n))]) }
			},
			func() bpu.Predictor { return tage.New(tage.Config{SizeKB: 8}) },
			opt, ends)
	})
}
