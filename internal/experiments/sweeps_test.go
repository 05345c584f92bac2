package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/stats"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/workload"
)

// TestSharedPassSweepsMatchPerPointRuns locks Figs 22 and 23, which
// measure every warm-up and every window length in shared passes and
// profile every Fig 23 length in one pass, to the per-point loop they
// replace: one separate build, baseline run and Whisper run per
// (point, app). The loop is kept inline as the oracle, and the memos
// are reset before each oracle, so it profiles, trains and injects
// every window on its own. Besides the reductions, each Fig 23 build's
// profile and hints must equal the oracle's: a short window may train
// no hint, so a wrong profile need not move its reduction. Fig 23 runs
// after Fig 22, which leaves its 20000-record build in the memo, as the
// suite's other drivers leave the budget-length build. The lengths come
// unsorted and repeated, and both parallelism settings must agree with
// the oracle bit for bit.
func TestSharedPassSweepsMatchPerPointRuns(t *testing.T) {
	fracs := []float64{0, 0.25, 0.5, 0.9}
	counts := []int{12000, 4000, 20000, 4000}
	for _, j := range []int{1, 4} {
		opt := Options{
			Records:     20000,
			Parallelism: j,
			Apps: []*workload.App{
				workload.DataCenterApp("mysql"),
				workload.DataCenterApp("kafka"),
			},
		}

		resetMemos()
		r22, err := Fig22(opt, fracs)
		if err != nil {
			t.Fatal(err)
		}
		r23, err := Fig23(opt, counts)
		if err != nil {
			t.Fatal(err)
		}
		got := fig23Builds(t, opt, counts) // recalled from the build memo

		resetMemos()
		if want := fig22PerPoint(t, opt, fracs); !slices.Equal(r22.Reduction, want) {
			t.Errorf("-j %d: Fig 22 reductions %v, per-point loop %v", j, r22.Reduction, want)
		}
		resetMemos()
		want, builds := fig23PerPoint(t, opt, counts)
		if !slices.Equal(r23.Reduction, want) {
			t.Errorf("-j %d: Fig 23 reductions %v, per-point loop %v", j, r23.Reduction, want)
		}
		for k, b := range builds {
			if !reflect.DeepEqual(got[k].Profile, b.Profile) || !reflect.DeepEqual(got[k].Train.Hints, b.Train.Hints) {
				t.Errorf("-j %d: Fig 23 build %d (of lengths %v per app) differs from the per-point loop's", j, k, counts)
			}
		}
	}
}

// fig23Builds returns the Fig 23 build of every (window length, app),
// in fig23PerPoint's order.
func fig23Builds(t *testing.T, opt Options, counts []int) []*sim.WhisperBuild {
	t.Helper()
	var out []*sim.WhisperBuild
	for _, n := range counts {
		for _, app := range opt.Apps {
			b, err := opt.build(appWindow(app, trainInput, n), 64, core.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
	}
	return out
}

// TestFig23DiskCache: Fig 23 profiles each app's lengths in one pass,
// yet the disk cache holds what profiling each length alone would
// leave there. A cold run writes one profile and one train per
// (length, app), each profile under its own length's key with its own
// window's metadata; a rerun with fresh memos and apps misses nothing
// and returns equal results; and with one length's profile file
// removed, the next run misses exactly that profile.
func TestFig23DiskCache(t *testing.T) {
	dir := t.TempDir()
	counts := []int{12000, 4000, 20000}
	pass := func() (*Fig23Result, store.CacheStats) {
		t.Helper()
		resetMemos()
		cache, err := store.OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Fig23(Options{
			Records:     20000,
			Parallelism: 2,
			Cache:       cache,
			Apps: []*workload.App{
				workload.DataCenterApp("mysql"),
				workload.DataCenterApp("kafka"),
			},
		}, counts)
		if err != nil {
			t.Fatal(err)
		}
		return r, cache.Stats()
	}
	// profiles maps each cached profile's key to its file and metadata.
	profiles := func() map[string]string {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(dir, "profile-*.wspa"))
		if err != nil {
			t.Fatal(err)
		}
		byKey := map[string]string{}
		for _, f := range files {
			a, err := store.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if a.Profile == nil || a.Meta.Records != int(a.Profile.Records) || a.Meta.Input != trainInput {
				t.Fatalf("%s: metadata %+v does not describe its profile", f, a.Meta)
			}
			byKey[a.Meta.Key] = f
		}
		return byKey
	}

	cold, st := pass()
	if st.ProfileMisses != 6 || st.TrainMisses != 6 || st.ProfileHits != 0 || st.TrainHits != 0 {
		t.Fatalf("cold run: %+v, want 6 profile and 6 train misses", st)
	}
	byKey := profiles()
	if trains, _ := filepath.Glob(filepath.Join(dir, "train-*.wspa")); len(byKey) != 6 || len(trains) != 6 {
		t.Fatalf("cold run wrote %d profiles and %d trains, want 6 each", len(byKey), len(trains))
	}
	popt := profiler.DefaultOptions()
	app := workload.DataCenterApp("kafka")
	for _, n := range counts {
		w := appWindow(app, trainInput, n)
		f, ok := byKey[sim.ProfileKey(w, 64, popt)]
		if !ok {
			t.Fatalf("no profile cached under the %d-record window's key", n)
		}
		a, err := store.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		alone, err := sim.Profile(w, sim.TageSized(64), popt)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := store.Fingerprint(a.Profile)
		want, _ := store.Fingerprint(alone)
		if a.Meta.App != "kafka" || got != want {
			t.Fatalf("%d records: cached %s profile differs from profiling the window alone", n, a.Meta.App)
		}
	}

	warm, st := pass()
	if st.ProfileMisses != 0 || st.TrainMisses != 0 || st.ProfileHits != 6 || st.TrainHits != 6 {
		t.Fatalf("warm run: %+v, want 6 profile and 6 train hits", st)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm run %v, cold run %v", warm.Reduction, cold.Reduction)
	}

	if err := os.Remove(byKey[sim.ProfileKey(appWindow(app, trainInput, 12000), 64, popt)]); err != nil {
		t.Fatal(err)
	}
	again, st := pass()
	if st.ProfileMisses != 1 || st.ProfileHits != 5 || st.TrainMisses != 0 {
		t.Fatalf("run without one profile file: %+v, want exactly one profile miss", st)
	}
	if !reflect.DeepEqual(again, cold) || len(profiles()) != 6 {
		t.Fatalf("run without one profile file: %v, cold run %v", again.Reduction, cold.Reduction)
	}
}

// fig22PerPoint is Fig 22 as one baseline run and one Whisper run per
// (warm-up fraction, app).
func fig22PerPoint(t *testing.T, opt Options, fracs []float64) []float64 {
	t.Helper()
	var out []float64
	for _, f := range fracs {
		popt := pipeline.Options{WarmupRecords: uint64(float64(opt.Records) * f)}
		var reds []float64
		for _, app := range opt.Apps {
			b, err := opt.buildWhisper(app)
			if err != nil {
				t.Fatal(err)
			}
			test := appWindow(app, testInput, opt.Records)
			base := pipeline.Run(test.Open(), sim.TageSized(64)(), popt)
			res, _ := b.Run(test, sim.Tage64KB(), popt)
			reds = append(reds, sim.MispReduction(base, res))
		}
		out = append(out, stats.Mean(reds))
	}
	return out
}

// fig23PerPoint is Fig 23 as one build, one baseline run and one
// Whisper run per (window length, app), each over its own window. It
// also returns the builds.
func fig23PerPoint(t *testing.T, opt Options, counts []int) ([]float64, []*sim.WhisperBuild) {
	t.Helper()
	var out []float64
	builds := fig23Builds(t, opt, counts)
	for li, n := range counts {
		popt := pipeline.Options{WarmupRecords: uint64(float64(n) * warmupFrac)}
		var reds []float64
		for ai, app := range opt.Apps {
			b := builds[li*len(opt.Apps)+ai]
			test := appWindow(app, testInput, n)
			base := pipeline.Run(test.Open(), sim.TageSized(64)(), popt)
			res, _ := b.Run(test, sim.TageSized(64)(), popt)
			reds = append(reds, sim.MispReduction(base, res))
		}
		out = append(out, stats.Mean(reds))
	}
	return out, builds
}
