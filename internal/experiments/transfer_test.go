package experiments

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/traceio"
	"github.com/whisper-sim/whisper/internal/workload"
)

// transferOptions builds a small deterministic configuration with fresh
// app instances (the memos key on app identity, so fresh instances keep
// runs independent).
func transferOptions(records int, names ...string) Options {
	opt := Default()
	opt.Records = records
	opt.Parallelism = 2
	opt.Apps = nil
	for _, n := range names {
		opt.Apps = append(opt.Apps, workload.AppByName(n))
	}
	return opt
}

// TestTransferDiagonalMatchesComparison: the A->A diagonal of the
// transfer matrix must equal the single-workload comparison's Whisper
// column bit for bit — both are computed by the same memoized
// build/baseline/evaluate calls, and this locks that equivalence even
// when the two drivers run from cold state independently.
func TestTransferDiagonalMatchesComparison(t *testing.T) {
	names := []string{"mysql", "rpc-chain"}
	records := 20000

	resetMemos()
	cmp, err := RunComparison(transferOptions(records, names...), []Technique{TechWhisper})
	if err != nil {
		t.Fatal(err)
	}

	resetMemos()
	tr, err := RunTransfer(transferOptions(records, names...))
	if err != nil {
		t.Fatal(err)
	}

	for i, name := range names {
		want := cmp.Reduction[TechWhisper][i]
		got := tr.Reduction[i][i]
		if got != want {
			t.Errorf("%s: diagonal reduction %v != comparison %v", name, got, want)
		}
	}
	if tr.Apps[0] != "mysql" || tr.Apps[1] != "rpc-chain" {
		t.Fatalf("unexpected app order: %v", tr.Apps)
	}
}

// TestTransferOverlapProperties: both overlap matrices are symmetric,
// bounded to [0, 1], and 1 on the diagonal (exactly for the static
// Jaccard, within float tolerance for the dynamic histogram sum).
func TestTransferOverlapProperties(t *testing.T) {
	resetMemos()
	tr, err := RunTransfer(transferOptions(15000, "kafka", "gc-mark", "rpc-chain"))
	if err != nil {
		t.Fatal(err)
	}
	n := len(tr.Apps)
	for a := 0; a < n; a++ {
		if tr.StaticOverlap[a][a] != 1 {
			t.Errorf("static diagonal [%d][%d] = %v, want 1", a, a, tr.StaticOverlap[a][a])
		}
		if d := tr.DynamicOverlap[a][a]; d < 1-1e-9 || d > 1+1e-9 {
			t.Errorf("dynamic diagonal [%d][%d] = %v, want 1", a, a, d)
		}
		for b := 0; b < n; b++ {
			for name, m := range map[string][][]float64{"static": tr.StaticOverlap, "dynamic": tr.DynamicOverlap} {
				v := m[a][b]
				if v < 0 || v > 1+1e-9 {
					t.Errorf("%s overlap [%d][%d] = %v out of [0,1]", name, a, b, v)
				}
				if v != m[b][a] {
					t.Errorf("%s overlap asymmetric: [%d][%d]=%v, [%d][%d]=%v", name, a, b, v, b, a, m[b][a])
				}
			}
		}
	}
	// The apps deliberately share a code layout, so distinct workloads
	// should still overlap partially — a zero off-diagonal everywhere
	// would mean the metric (or the layout) broke.
	off := 0.0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				off += tr.StaticOverlap[a][b]
			}
		}
	}
	if off == 0 {
		t.Error("all off-diagonal static overlaps are zero")
	}
}

// TestTransferWarmRerun: against a warm cache directory the transfer
// study performs zero profiling and zero training work and reproduces
// the cold matrices exactly.
func TestTransferWarmRerun(t *testing.T) {
	dir := t.TempDir()
	pass := func() (store.CacheStats, *Transfer) {
		resetMemos()
		cache, err := store.OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		opt := transferOptions(15000, "kafka", "interp-dispatch")
		opt.Cache = cache
		tr, err := RunTransfer(opt)
		if err != nil {
			t.Fatal(err)
		}
		return cache.Stats(), tr
	}

	coldStats, cold := pass()
	if coldStats.ProfileMisses != 2 || coldStats.TrainMisses != 2 {
		t.Fatalf("cold pass should miss once per train app: %+v", coldStats)
	}
	warmStats, warm := pass()
	if warmStats.ProfileMisses != 0 || warmStats.TrainMisses != 0 {
		t.Fatalf("warm pass recomputed profile/train work: %+v", warmStats)
	}
	if warmStats.ProfileHits == 0 || warmStats.TrainHits == 0 {
		t.Fatalf("warm pass never consulted the cache: %+v", warmStats)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm transfer matrices differ from cold")
	}
}

// TestImportedTraceWarmRerun: the imported-trace driver caches its
// profile under the trace fingerprint and its trained bundle under the
// profile fingerprint, so a warm rerun is pure disk reads plus
// evaluation, and reproduces the cold result exactly. A memo reset
// between passes keeps the in-memory layer cold both times, so only
// the disk cache separates the two passes.
func TestImportedTraceWarmRerun(t *testing.T) {
	app := workload.AppByName("rpc-chain")
	recs := trace.Collect(app.Stream(0, 4000), 4000)

	dir := t.TempDir()
	pass := func() (store.CacheStats, *ImportedTrace) {
		resetMemos()
		cache, err := store.OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		opt := Default()
		opt.Cache = cache
		r, err := RunImportedTrace(opt, "synthetic.txt", recs)
		if err != nil {
			t.Fatal(err)
		}
		return cache.Stats(), r
	}

	coldStats, cold := pass()
	if coldStats.ProfileMisses != 1 || coldStats.TrainMisses != 1 {
		t.Fatalf("cold pass should miss exactly once: %+v", coldStats)
	}
	warmStats, warm := pass()
	if warmStats.ProfileMisses != 0 || warmStats.TrainMisses != 0 {
		t.Fatalf("warm pass recomputed profile/train work: %+v", warmStats)
	}
	if warmStats.ProfileHits != 1 || warmStats.TrainHits != 1 {
		t.Fatalf("warm pass did not read the disk cache: %+v", warmStats)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm imported-trace result differs from cold")
	}
	if cold.Static == 0 || cold.Base.CondMisp == 0 {
		t.Fatalf("degenerate evaluation: %+v", cold)
	}
}

// TestImportedTraceRejectsDegenerate: empty traces and traces without
// conditional branches are rejected with the typed traceio errors, so
// callers can dispatch on errors.Is instead of matching message text.
func TestImportedTraceRejectsDegenerate(t *testing.T) {
	_, err := RunImportedTrace(Default(), "empty", nil)
	if !errors.Is(err, traceio.ErrEmptyTrace) {
		t.Fatalf("empty trace: err = %v, want traceio.ErrEmptyTrace", err)
	}
	uncond := []trace.Record{
		{PC: 0x10, Target: 0x40, Kind: trace.Call, Taken: true, Instrs: 4},
		{PC: 0x44, Target: 0x14, Kind: trace.Return, Taken: true, Instrs: 4},
	}
	_, err = RunImportedTrace(Default(), "uncond", uncond)
	if !errors.Is(err, traceio.ErrNoConditionals) {
		t.Fatalf("cond-free trace: err = %v, want traceio.ErrNoConditionals", err)
	}
	// The message stays actionable (it tells the operator what to do),
	// not just typed.
	if !strings.Contains(err.Error(), "uncond") || !strings.Contains(err.Error(), "re-export") {
		t.Fatalf("unhelpful rejection: %v", err)
	}
}

// TestTransferOverlapMatchesStreamCounts: the overlap matrices, computed
// from the memoized train-window profiles, equal bit for bit the
// overlaps of conditional-branch execution counts taken straight from
// each app's train-window stream.
func TestTransferOverlapMatchesStreamCounts(t *testing.T) {
	const records = 20000
	names := []string{"mysql", "kafka", "python"}
	resetMemos()
	opt := transferOptions(records, names...)
	tr, err := RunTransfer(opt)
	if err != nil {
		t.Fatal(err)
	}

	type counts struct {
		execs map[uint64]uint64
		total uint64
	}
	fps := make([]counts, len(names))
	for i, app := range opt.Apps {
		fp := counts{execs: map[uint64]uint64{}}
		s := app.Stream(opt.TrainInput, records)
		var r trace.Record
		for s.Next(&r) {
			if r.Kind == trace.CondBranch {
				fp.execs[r.PC]++
				fp.total++
			}
		}
		fps[i] = fp
	}
	for a := range names {
		for b := range names {
			fa, fb := fps[a], fps[b]
			var shared []uint64
			for pc := range fa.execs {
				if _, ok := fb.execs[pc]; ok {
					shared = append(shared, pc)
				}
			}
			static := float64(len(shared)) / float64(len(fa.execs)+len(fb.execs)-len(shared))
			sort.Slice(shared, func(i, j int) bool { return shared[i] < shared[j] })
			dynamic := 0.0
			for _, pc := range shared {
				dynamic += min(float64(fa.execs[pc])/float64(fa.total), float64(fb.execs[pc])/float64(fb.total))
			}
			if got := tr.StaticOverlap[a][b]; got != static {
				t.Errorf("%s/%s: static overlap %v, stream counts give %v", names[a], names[b], got, static)
			}
			if got := tr.DynamicOverlap[a][b]; got != dynamic {
				t.Errorf("%s/%s: dynamic overlap %v, stream counts give %v", names[a], names[b], got, dynamic)
			}
		}
	}
}
