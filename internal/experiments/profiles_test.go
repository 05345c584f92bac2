package experiments

import (
	"reflect"
	"sync"
	"testing"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/telemetry"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
)

// perRecordMisp counts each branch's mispredictions record by record
// under a 64KB TAGE-SC-L over app's train window of the given length:
// over the whole window, and past its warm-up.
func perRecordMisp(app *workload.App, records int) (all, measured map[uint64]uint64) {
	all, measured = map[uint64]uint64{}, map[uint64]uint64{}
	warm := warmup(records)
	var seen uint64
	cb := bpu.NewCondBlocks(appWindow(app, trainInput, records).Open(), sim.Tage64KB())
	for cb.Next() {
		blk := cb.Block
		k := 0 // the next conditional record's index in cb
		for i, kind := range blk.Kind[:blk.N] {
			seen++
			if kind != trace.CondBranch {
				continue
			}
			if cb.Miss[k] {
				all[blk.PC[i]]++
				if seen > warm {
					measured[blk.PC[i]]++
				}
			}
			k++
		}
	}
	return all, measured
}

// TestFig5Fig6MatchPerRecordPass locks Figs 5 and 6, which read the
// profiler's per-branch misprediction counts, to a per-record pass of
// their own predictor over the train window: Fig 5 to the counts over
// the whole window, Fig 6 to those past the warm-up. The budgets
// include a warm-up that rounds down (10001 records) and one of 0 (3
// records).
func TestFig5Fig6MatchPerRecordPass(t *testing.T) {
	names := []string{"mysql", "kafka", "interp-dispatch", "spec-gcc"}
	for _, records := range []int{10000, 10001, 3} {
		opt := Options{Records: records, Parallelism: 2}
		want5 := &Fig5Result{Apps: names}
		want6 := &Fig6Result{Apps: names}
		for _, name := range names {
			app := workload.AppByName(name)
			opt.Apps = append(opt.Apps, app)
			all, measured := perRecordMisp(app, records)
			counts := make([]uint64, 0, len(all))
			var total uint64
			for _, c := range all {
				counts = append(counts, c)
				total += c
			}
			row := newFig5Row(counts, total)
			want5.Branches = append(want5.Branches, row.branches)
			want5.NeededFor = append(want5.NeededFor, row.needed)
			want5.Top50Share = append(want5.Top50Share, row.top50)
			want6.Shares = append(want6.Shares, fig6Shares(app, measured))
		}
		got5, err := Fig5(opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got5, want5) {
			t.Errorf("%d records: Fig 5 %+v, per-record pass %+v", records, got5, want5)
		}
		got6, err := Fig6(opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got6, want6) {
			t.Errorf("%d records: Fig 6 %v, per-record pass %v", records, got6.Shares, want6.Shares)
		}
	}
}

// traceProfiles installs a fresh tracer for the rest of the test and
// returns a count of the profiling spans it has recorded.
func traceProfiles(t *testing.T) func() int {
	t.Helper()
	prev := telemetry.Tracer()
	tb := telemetry.InstallTracer(telemetry.NewTraceBuffer())
	t.Cleanup(func() { telemetry.InstallTracer(prev) })
	return func() int {
		n := 0
		for _, ev := range tb.Events() {
			if ev.Name == "profile" {
				n++
			}
		}
		return n
	}
}

// TestProfilesRecallOrComputeOnce locks the one profile path. Of four
// ascending prefixes of kafka's train window, profiles recalls the
// first from the memo and the second from the disk cache, and collects
// the two missing ones in one profiling pass, each equal to profiling
// its window alone, and saves them; it writes nothing to the memo.
// Eight concurrent collectProfile calls on a fresh window profile it
// once and share the result.
func TestProfilesRecallOrComputeOnce(t *testing.T) {
	resetMemos()
	t.Cleanup(resetMemos)
	cache, err := store.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Cache: cache}
	app := workload.DataCenterApp("kafka")
	popt := profiler.DefaultOptions()
	lengths := []int{3000, 6000, 9000, 12000}
	ws := make([]sim.Window, len(lengths))
	alone := make([]*profiler.Profile, len(lengths))
	for i, n := range lengths {
		ws[i] = appWindow(app, trainInput, n)
		if alone[i], err = profiler.Collect(ws[i].Open, sim.TageSized(64)(), popt); err != nil {
			t.Fatal(err)
		}
	}
	profileMemo.Do(newProfileKey(ws[0], 64, popt), func() profileResult { return profileResult{p: alone[0]} })
	diskKey := sim.ProfileKey(ws[1], 64, popt)
	if err := cache.SaveProfile(diskKey, store.Meta{App: ws[1].Name, Records: ws[1].Records}, alone[1]); err != nil {
		t.Fatal(err)
	}
	onDisk, ok := cache.LoadProfile(diskKey)
	if !ok {
		t.Fatal("the saved profile does not load")
	}
	memoLen, before := profileMemo.Len(), cache.Stats()
	spans := traceProfiles(t)

	got, err := opt.profiles(ws, 64, popt)
	if err != nil {
		t.Fatal(err)
	}
	if n := spans(); n != 1 {
		t.Fatalf("profiles opened %d profiling spans, want 1", n)
	}
	if got[0] != alone[0] {
		t.Error("the memoized profile was not recalled")
	}
	if !reflect.DeepEqual(got[1], onDisk) {
		t.Error("the cached profile was not recalled")
	}
	for i := 2; i < len(ws); i++ {
		if !reflect.DeepEqual(got[i], alone[i]) {
			t.Errorf("%d records: profile differs from profiling the window alone", lengths[i])
		}
	}
	st := cache.Stats()
	if hits, misses := st.ProfileHits-before.ProfileHits, st.ProfileMisses-before.ProfileMisses; hits != 1 || misses != 2 {
		t.Errorf("disk cache: %d hits and %d misses, want 1 and 2", hits, misses)
	}
	for i := 2; i < len(ws); i++ {
		saved, ok := cache.LoadProfile(sim.ProfileKey(ws[i], 64, popt))
		if !ok {
			t.Errorf("%d records: the computed profile was not saved", lengths[i])
			continue
		}
		want, _ := store.Fingerprint(alone[i])
		if fp, _ := store.Fingerprint(saved); fp != want {
			t.Errorf("%d records: the saved profile differs from profiling the window alone", lengths[i])
		}
	}
	if n := profileMemo.Len(); n != memoLen {
		t.Errorf("profiles changed the memo from %d to %d entries", memoLen, n)
	}

	spans = traceProfiles(t)
	fresh := appWindow(app, trainInput, 5000)
	ps := make([]*profiler.Profile, 8)
	var wg sync.WaitGroup
	for g := range ps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps[g], _ = opt.collectProfile(fresh, 64, popt)
		}()
	}
	wg.Wait()
	if n := spans(); n != 1 {
		t.Fatalf("eight concurrent collectProfile calls opened %d profiling spans, want 1", n)
	}
	for _, p := range ps {
		if p == nil || p != ps[0] {
			t.Fatal("concurrent collectProfile calls returned different profiles")
		}
	}
}
