package pipeline

import (
	"testing"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/mtage"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
	"github.com/whisper-sim/whisper/internal/xrand"
)

// predictor factories under differential test; fresh state per run.
var diffPredictors = []struct {
	name string
	mk   func() bpu.Predictor
}{
	{"tage-64KB", func() bpu.Predictor { return tage.New(tage.DefaultConfig()) }},
	{"tage-8KB", func() bpu.Predictor { return tage.New(tage.Config{SizeKB: 8}) }},
	{"mtage", func() bpu.Predictor { return mtage.New() }},
	{"bimodal", func() bpu.Predictor { return bpu.NewBimodal(14) }},
	{"oracle", func() bpu.Predictor { return &bpu.Oracle{} }},
}

// TestBatchMatchesScalar is the engine-equivalence lock: for every
// predictor, Run must produce a bit-identical Result to the per-record
// reference loop over a window that ends in a partial block.
func TestBatchMatchesScalar(t *testing.T) {
	apps := []string{"mysql", "kafka"}
	const records = 12000 // two full blocks and a partial tail
	for _, p := range diffPredictors {
		for _, appName := range apps {
			a := workload.DataCenterApp(appName)
			if a == nil {
				t.Fatalf("app %s missing", appName)
			}
			want := runScalar(a.Stream(0, records), p.mk(), Options{Config: DefaultConfig()})
			if got := Run(a.Stream(0, records), p.mk(), Options{Config: DefaultConfig()}); got != want {
				t.Errorf("%s/%s: Run %+v != reference %+v", p.name, appName, got, want)
			}
		}
	}
}

// TestBatchMatchesScalarWarmup locks the mid-block warmup-window reset.
func TestBatchMatchesScalarWarmup(t *testing.T) {
	a := app(t)
	mk := func() bpu.Predictor { return tage.New(tage.Config{SizeKB: 8}) }
	opt := Options{Config: DefaultConfig(), WarmupRecords: 5001}
	want := runScalar(a.Stream(0, 12000), mk(), opt)
	if got := Run(a.Stream(0, 12000), mk(), opt); got != want {
		t.Errorf("%+v != %+v", got, want)
	}
}

// TestWindowedWarmupEdges sweeps the warmup window across the block
// boundaries: inside the first block, on either side of a boundary,
// spanning several blocks, and covering the whole trace.
func TestWindowedWarmupEdges(t *testing.T) {
	const bs = trace.DefaultBlockSize
	recs := randomRecords(5, 10000)
	for _, warmup := range []uint64{0, 1, bs - 1, bs, bs + 1, 2 * bs, 9999, 10000} {
		checkBlockEdges(t, recs, warmup)
	}
}

// TestWindowedEmptyStream runs the empty stream with a warmup window no
// record reaches.
func TestWindowedEmptyStream(t *testing.T) {
	checkBlockEdges(t, nil, 7)
}

// checkBlockEdges runs recs through the reference loop and Run and
// fails unless the Results are identical.
func checkBlockEdges(t *testing.T, recs []trace.Record, warmup uint64) {
	t.Helper()
	mk := func() bpu.Predictor { return bpu.NewBimodal(12) }
	opt := Options{Config: DefaultConfig(), WarmupRecords: warmup}
	want := runScalar(trace.NewSliceStream(recs), mk(), opt)
	if got := Run(trace.NewSliceStream(recs), mk(), opt); got != want {
		t.Errorf("%d records, warmup=%d: Run %+v != reference %+v", len(recs), warmup, got, want)
	}
}

// passiveHook does work only at PCs in active, the way the Whisper
// runtime does work only at hint hosts; it counts those OnRecord calls
// so they can be checked against the reference loop.
type passiveHook struct {
	active map[uint64]bool
	calls  uint64
}

func (h *passiveHook) OnRecord(rec *trace.Record) {
	if h.active[rec.PC] {
		h.calls++
	}
}

// TestBatchPassiveHook verifies Run with a hook that acts at a few PCs:
// identical Result and identical active-record hook activity.
func TestBatchPassiveHook(t *testing.T) {
	a := app(t)
	// Mark a handful of real PCs active.
	active := map[uint64]bool{}
	var rec trace.Record
	s := a.Stream(0, 2000)
	for i := 0; s.Next(&rec) && i < 2000; i++ {
		if i%97 == 0 {
			active[rec.PC] = true
		}
	}
	mk := func() bpu.Predictor { return tage.New(tage.Config{SizeKB: 8}) }
	ref := &passiveHook{active: active}
	want := runScalar(a.Stream(0, 12000), mk(), Options{Config: DefaultConfig(), Hook: ref})
	h := &passiveHook{active: active}
	if got := Run(a.Stream(0, 12000), mk(), Options{Config: DefaultConfig(), Hook: h}); got != want {
		t.Errorf("%+v != %+v", got, want)
	}
	if h.calls != ref.calls {
		t.Errorf("hook activity %d != reference %d", h.calls, ref.calls)
	}
}

// TestNonPassiveHookFallsBack: Run calls a hook that acts at every
// record once per record, as the reference loop does.
func TestNonPassiveHookFallsBack(t *testing.T) {
	a := app(t)
	var n, refN uint64
	want := runScalar(a.Stream(0, 5000), tage.New(tage.DefaultConfig()), Options{
		Config: DefaultConfig(),
		Hook:   recordCounter{&refN},
	})
	res := Run(a.Stream(0, 5000), tage.New(tage.DefaultConfig()), Options{
		Config: DefaultConfig(),
		Hook:   recordCounter{&n},
	})
	if n != res.Records || n != refN {
		t.Fatalf("hook saw %d of %d records (reference %d)", n, res.Records, refN)
	}
	if res != want {
		t.Fatalf("%+v != %+v", res, want)
	}
}

// randomRecords synthesizes a control-flow stream with every record
// kind, for fuzzing block-boundary handling beyond what the workload
// generators produce.
func randomRecords(seed uint64, n int) []trace.Record {
	rng := xrand.New(seed | 1)
	recs := make([]trace.Record, n)
	for i := range recs {
		pc := 0x10000 + uint64(rng.Intn(512))*4
		kind := trace.Kind(rng.Intn(5))
		taken := rng.Bool(0.6)
		if kind != trace.CondBranch {
			taken = true
		}
		recs[i] = trace.Record{
			PC:     pc,
			Target: pc + 16 + uint64(rng.Intn(64))*4,
			Kind:   kind,
			Taken:  taken,
			Instrs: uint32(rng.Intn(12)),
		}
	}
	return recs
}

// FuzzScalarBatchEquivalence fuzzes Run against the reference loop over
// random streams and warmup windows; n up to 20000 crosses up to four
// block boundaries.
func FuzzScalarBatchEquivalence(f *testing.F) {
	f.Add(uint64(1), 100, 0)
	f.Add(uint64(2), 999, 100)
	f.Add(uint64(3), 5000, 0)
	f.Add(uint64(4), 4097, 4000)
	f.Add(uint64(5), 12289, 8193)
	f.Fuzz(func(t *testing.T, seed uint64, n, warmup int) {
		if n < 1 || n > 20000 || warmup < 0 {
			t.Skip()
		}
		recs := randomRecords(seed, n)
		opt := Options{Config: DefaultConfig(), WarmupRecords: uint64(warmup)}
		want := runScalar(trace.NewSliceStream(recs), tage.New(tage.Config{SizeKB: 8}), opt)
		got := Run(trace.NewSliceStream(recs), tage.New(tage.Config{SizeKB: 8}), opt)
		if got != want {
			t.Fatalf("seed=%d n=%d warmup=%d: %+v != %+v", seed, n, warmup, got, want)
		}
	})
}
