package pipeline

import (
	"testing"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/mtage"
	"github.com/whisper-sim/whisper/internal/perceptron"
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
	{"perceptron-64KB", func() bpu.Predictor { return perceptron.New(perceptron.DefaultConfig()) }},
	{"bimodal", func() bpu.Predictor { return bpu.NewBimodal(14) }},
	{"gshare", func() bpu.Predictor { return bpu.NewGShare(14, 12) }},
	{"oracle", func() bpu.Predictor { return &bpu.Oracle{} }},
}

// TestBatchMatchesScalar is the engine-equivalence lock: for every
// predictor and a spread of block sizes (including 1, a prime, and
// sizes that leave a partial tail block), the batched engine must
// produce a bit-identical Result to the scalar reference.
func TestBatchMatchesScalar(t *testing.T) {
	apps := []string{"mysql", "kafka"}
	const records = 12000 // not a multiple of any tested block size
	for _, p := range diffPredictors {
		for _, appName := range apps {
			a := workload.DataCenterApp(appName)
			if a == nil {
				t.Fatalf("app %s missing", appName)
			}
			want := RunScalar(a.Stream(0, records), p.mk(), Options{Config: DefaultConfig()})
			for _, bs := range []int{1, 7, 64, 4096} {
				got := Run(a.Stream(0, records), p.mk(), Options{Config: DefaultConfig(), BlockSize: bs})
				if got != want {
					t.Errorf("%s/%s block=%d: batched %+v != scalar %+v", p.name, appName, bs, got, want)
				}
			}
		}
	}
}

// TestBatchMatchesScalarWarmup locks the mid-block warmup-window reset.
func TestBatchMatchesScalarWarmup(t *testing.T) {
	a := app(t)
	mk := func() bpu.Predictor { return tage.New(tage.Config{SizeKB: 8}) }
	opt := Options{Config: DefaultConfig(), WarmupRecords: 5001}
	want := RunScalar(a.Stream(0, 12000), mk(), opt)
	for _, bs := range []int{1, 7, 4096} {
		o := opt
		o.BlockSize = bs
		got := Run(a.Stream(0, 12000), mk(), o)
		if got != want {
			t.Errorf("block=%d: %+v != %+v", bs, got, want)
		}
	}
}

// TestWindowedWarmupEdges sweeps the warmup window across block
// boundaries at block size 1000: inside the first block, exactly on a
// boundary, spanning several blocks, and covering the whole trace.
func TestWindowedWarmupEdges(t *testing.T) {
	recs := randomRecords(5, 10000)
	for _, warmup := range []uint64{0, 1, 999, 1000, 1001, 5000, 9999, 10000} {
		checkBlockEdges(t, recs, warmup)
	}
}

// TestWindowedEmptyStream runs the empty stream with a warmup window no
// record reaches.
func TestWindowedEmptyStream(t *testing.T) {
	checkBlockEdges(t, nil, 7)
}

// checkBlockEdges runs recs through the scalar reference and the batched
// engine at block size 1000 and fails unless the Results are identical.
func checkBlockEdges(t *testing.T, recs []trace.Record, warmup uint64) {
	t.Helper()
	mk := func() bpu.Predictor { return bpu.NewGShare(12, 10) }
	opt := Options{Config: DefaultConfig(), WarmupRecords: warmup}
	want := RunScalar(trace.NewSliceStream(recs), mk(), opt)
	opt.BlockSize = 1000
	if got := Run(trace.NewSliceStream(recs), mk(), opt); got != want {
		t.Errorf("%d records, warmup=%d: batched %+v != scalar %+v", len(recs), warmup, got, want)
	}
}

// passiveHook is a PassiveHook active only at PCs in active; it counts
// OnRecord calls so span-breaking can be verified against the scalar
// engine.
type passiveHook struct {
	active map[uint64]bool
	calls  uint64
}

func (h *passiveHook) OnRecord(rec *trace.Record) {
	if h.active[rec.PC] {
		h.calls++
	}
}
func (h *passiveHook) PassiveAt(pc uint64) bool { return !h.active[pc] }

// TestBatchPassiveHook verifies the batched engine with a span-breaking
// hook: identical Result and identical active-record hook activity.
func TestBatchPassiveHook(t *testing.T) {
	a := app(t)
	// Mark a handful of real PCs active so spans actually break.
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
	want := RunScalar(a.Stream(0, 12000), mk(), Options{Config: DefaultConfig(), Hook: ref})
	for _, bs := range []int{1, 7, 4096} {
		h := &passiveHook{active: active}
		got := Run(a.Stream(0, 12000), mk(), Options{Config: DefaultConfig(), Hook: h, BlockSize: bs})
		if got != want {
			t.Errorf("block=%d: %+v != %+v", bs, got, want)
		}
		if h.calls != ref.calls {
			t.Errorf("block=%d: hook activity %d != scalar %d", bs, h.calls, ref.calls)
		}
	}
}

// TestNonPassiveHookFallsBack: a hook without PassiveAt must run the
// scalar engine (same results, every record observed).
func TestNonPassiveHookFallsBack(t *testing.T) {
	a := app(t)
	n := uint64(0)
	res := Run(a.Stream(0, 5000), tage.New(tage.DefaultConfig()), Options{
		Config:    DefaultConfig(),
		Hook:      recordCounter{&n},
		BlockSize: 4096,
	})
	if n != res.Records {
		t.Fatalf("hook saw %d of %d records", n, res.Records)
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

// FuzzScalarBatchEquivalence fuzzes the batched engine against the
// scalar reference over random streams, block sizes and warmup windows.
func FuzzScalarBatchEquivalence(f *testing.F) {
	f.Add(uint64(1), 1, 100, 0)
	f.Add(uint64(2), 7, 999, 100)
	f.Add(uint64(3), 4096, 5000, 0)
	f.Add(uint64(4), 64, 4097, 4000)
	f.Fuzz(func(t *testing.T, seed uint64, block, n, warmup int) {
		if block < 1 || block > 1<<14 || n < 1 || n > 20000 || warmup < 0 {
			t.Skip()
		}
		recs := randomRecords(seed, n)
		opt := Options{Config: DefaultConfig(), WarmupRecords: uint64(warmup)}
		want := RunScalar(trace.NewSliceStream(recs), tage.New(tage.Config{SizeKB: 8}), opt)
		opt.BlockSize = block
		got := Run(trace.NewSliceStream(recs), tage.New(tage.Config{SizeKB: 8}), opt)
		if got != want {
			t.Fatalf("seed=%d block=%d n=%d warmup=%d: %+v != %+v", seed, block, n, warmup, got, want)
		}
	})
}
