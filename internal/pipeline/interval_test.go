package pipeline

import (
	"reflect"
	"testing"

	"github.com/whisper-sim/whisper/internal/attrib"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/xrand"
)

// checkIntervals runs recs once through RunIntervals and fails unless
// every Result equals the reference loop run with that interval's
// warm-up over the stream's first End records. The pass also carries
// an attribution collector, which must see exactly what the reference
// loop's collector sees for the first interval, and a hook, which must
// see every record up to the largest End and no more.
func checkIntervals(t *testing.T, recs []trace.Record, ivs []Interval) {
	t.Helper()
	mk := func() *tage.TageSCL { return tage.New(tage.Config{SizeKB: 8}) }
	c := attrib.NewCollector(0)
	var hooked uint64
	got := RunIntervals(trace.NewSliceStream(recs), mk(), Options{
		Config: DefaultConfig(), Attrib: c, Hook: recordCounter{&hooked},
	}, ivs)
	if len(got) != len(ivs) {
		t.Fatalf("%d intervals, %d results", len(ivs), len(got))
	}
	var maxEnd uint64
	for k, iv := range ivs {
		maxEnd = max(maxEnd, iv.End)
		var ref *attrib.Collector
		if k == 0 {
			ref = attrib.NewCollector(0)
		}
		n := min(iv.End, uint64(len(recs)))
		want := runScalar(trace.NewSliceStream(recs[:n]), mk(), Options{
			Config: DefaultConfig(), WarmupRecords: iv.Warmup, Attrib: ref,
		})
		if got[k] != want {
			t.Errorf("%d records, interval %d %+v:\n got %+v\nwant %+v", len(recs), k, iv, got[k], want)
		}
		if ref != nil && !reflect.DeepEqual(stateOf(c), stateOf(ref)) {
			t.Errorf("%d records, interval %+v: attribution diverged from the reference", len(recs), iv)
		}
	}
	if want := min(maxEnd, uint64(len(recs))); hooked != want {
		t.Errorf("%d records, intervals %v: hook saw %d records, want %d", len(recs), ivs, hooked, want)
	}
}

// TestRunIntervalsEdges covers each bound a pass must get exactly
// right: bounds on either side of a block boundary, a warm-up at or
// past its interval's end, an end past the stream, an end of 0, a
// warm-up past the stream, repeated bounds, and the empty stream.
func TestRunIntervalsEdges(t *testing.T) {
	const bs = trace.DefaultBlockSize
	recs := randomRecords(9, 10000)
	for _, ivs := range [][]Interval{
		{{0, 10000}},
		{{bs - 1, bs}, {bs, bs + 1}, {bs + 1, 9000}},
		{{0, bs - 1}, {0, bs}, {0, bs + 1}},
		{{3000, 2000}, {2000, 2000}, {1999, 2000}},
		{{0, 20000}, {3000, 10001}},
		{{5, 0}, {0, 0}},
		{{12000, 15000}, {10000, 10000}, {9999, 10000}},
		{{7, 900}, {7, 900}, {0, 900}},
		{{2 * bs, 3 * bs}, {bs, 2 * bs}, {0, bs}},
	} {
		checkIntervals(t, recs, ivs)
	}
	checkIntervals(t, nil, []Interval{{0, 0}, {7, 10}, {0, 5}})
}

// TestRunIntervalsRandomSets runs random interval sets, bounds drawn
// up to 20% past the stream, against the reference loop.
func TestRunIntervalsRandomSets(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(14000)
		recs := randomRecords(seed, n)
		ivs := make([]Interval, 1+rng.Intn(6))
		for k := range ivs {
			ivs[k] = Interval{
				Warmup: uint64(rng.Intn(n + n/5 + 1)),
				End:    uint64(rng.Intn(n + n/5 + 1)),
			}
		}
		checkIntervals(t, recs, ivs)
	}
}

// FuzzRunIntervals fuzzes RunIntervals against the reference loop over
// random streams and three-interval sets; n up to 20000 crosses up to
// four block boundaries, and bounds reach past the stream.
func FuzzRunIntervals(f *testing.F) {
	f.Add(uint64(1), 100, uint16(0), uint16(100), uint16(30), uint16(60), uint16(99), uint16(100))
	f.Add(uint64(2), 999, uint16(100), uint16(50), uint16(0), uint16(0), uint16(500), uint16(2000))
	f.Add(uint64(3), 5000, uint16(4095), uint16(4096), uint16(4096), uint16(4097), uint16(4097), uint16(5000))
	f.Add(uint64(4), 4097, uint16(4000), uint16(4097), uint16(4097), uint16(4097), uint16(9000), uint16(9999))
	f.Add(uint64(5), 12289, uint16(8193), uint16(12289), uint16(0), uint16(8192), uint16(4096), uint16(12288))
	f.Add(uint64(6), 0, uint16(0), uint16(0), uint16(3), uint16(10), uint16(0), uint16(4096))
	f.Fuzz(func(t *testing.T, seed uint64, n int, w0, e0, w1, e1, w2, e2 uint16) {
		if n < 0 || n > 20000 {
			t.Skip()
		}
		checkIntervals(t, randomRecords(seed, n), []Interval{
			{uint64(w0), uint64(e0)}, {uint64(w1), uint64(e1)}, {uint64(w2), uint64(e2)},
		})
	})
}
