// Package experiments contains one driver per table and figure of the
// paper's evaluation (§II characterization and §V results). Each driver
// returns a typed result with a Table() rendering, so the CLI, the tests,
// and the benchmarks share the same code paths.
//
// Scale note: the paper simulates 100M-instruction Intel PT windows per
// application; drivers here default to workload.ScaleSmall (~400k records
// ≈ 2.3M instructions per app) so the whole suite runs on a laptop.
// EXPERIMENTS.md records paper-vs-measured values for every driver.
package experiments

import (
	"fmt"
	"runtime"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/runner"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/stats"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/workload"
)

// Options configure an experiment run.
type Options struct {
	// Scale selects the per-app record budget (default ScaleSmall).
	Scale workload.Scale
	// Records overrides the scale's record budget when positive.
	Records int
	// Apps overrides the application list (default: the 12 Table I
	// apps).
	Apps []*workload.App
	// WarmupFrac is the fraction of records used to warm predictors and
	// caches before measuring (default 0.3); the paper's scale amortizes
	// cold-start, ours needs the explicit window (see DESIGN.md).
	WarmupFrac float64
	// TrainInput and TestInput select the profile and evaluation inputs
	// (paper §V-A: optimize with one input, test with another).
	TrainInput, TestInput int
	// Pipeline overrides the machine model (zero value = Table II).
	Pipeline pipeline.Config
	// Params override Whisper's design parameters (zero = Table III).
	Params core.Params
	// Parallelism bounds how many simulation units run concurrently
	// (the CLI's -j flag). Zero means one worker per CPU. Results are
	// byte-identical at every setting: units derive their RNG streams
	// from (app, input) and land in pre-sized, index-addressed slices.
	Parallelism int
	// Monitor, when non-nil, observes every unit completion for the
	// live progress line and the -timing report.
	Monitor *runner.Monitor
	// Cache, when non-nil, persists profiles and trained hint bundles
	// across processes (the CLI's -cache flag). It layers under the
	// in-memory memos: a warm cache turns every profiling and training
	// computation of a rerun into a disk read.
	Cache *store.Cache
}

// Default returns the standard configuration.
func Default() Options {
	return Options{
		Scale:      workload.ScaleSmall,
		WarmupFrac: 0.3,
		TrainInput: 0,
		TestInput:  1,
		Pipeline:   pipeline.DefaultConfig(),
		Params:     core.DefaultParams(),
	}
}

// normalize fills defaults in place and returns the options for chaining.
func (o Options) normalize() Options {
	if o.Apps == nil {
		o.Apps = workload.DataCenterApps()
	}
	if o.Records <= 0 {
		o.Records = o.Scale.Records()
	}
	if o.WarmupFrac <= 0 || o.WarmupFrac >= 1 {
		o.WarmupFrac = 0.3
	}
	if o.Pipeline.Width == 0 {
		o.Pipeline = pipeline.DefaultConfig()
	}
	if o.Params.NumLengths == 0 {
		o.Params = core.DefaultParams()
	}
	if o.TestInput == 0 && o.TrainInput == 0 {
		o.TestInput = 1
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// pool builds the execution engine for this run.
func (o Options) pool() *runner.Pool {
	workers := o.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &runner.Pool{Workers: workers, Monitor: o.Monitor}
}

// mapApps fans one unit per configured app out on the engine and
// collects the per-app results in app order, so tables render exactly as
// a sequential run would print them. phase labels the units in progress
// and timing reports.
func mapApps[T any](o Options, phase string, fn func(i int, app *workload.App, u *runner.Unit) (T, error)) ([]T, error) {
	return runner.Map(o.pool(), len(o.Apps), func(i int, u *runner.Unit) (T, error) {
		u.Label = phase + "/" + o.Apps[i].Name()
		return fn(i, o.Apps[i], u)
	})
}

// popt builds the pipeline options with the warm-up window.
func (o Options) popt() pipeline.Options { return o.poptFor(o.Records) }

// poptFor builds pipeline options with the warm-up window scaled to a
// window of the given length (spec phases and imported traces need not
// share the run's record budget).
func (o Options) poptFor(records int) pipeline.Options {
	return pipeline.Options{
		Config:        o.Pipeline,
		WarmupRecords: uint64(float64(records) * o.WarmupFrac),
	}
}

// appWindow is app's input window of the given length. The drivers only
// ask for inputs their apps have (the suite fixes them; Fig 18 checks
// its range up front), so a bad one is a programming error.
func appWindow(app *workload.App, input, records int) sim.Window {
	w, err := sim.AppWindow(app, input, records)
	if err != nil {
		panic(err)
	}
	return w
}

// --- the offline flow behind memos -------------------------------------
//
// Three memo layers sit between the drivers and the sim flow, shared by
// every window kind (application input, spec phase, imported trace):
// baselines, profiles and builds. The memos key on sim.Window.Key — the
// instance generating the records plus the window's identity — so
// custom app instances never collide; sharing across drivers therefore
// requires the caller to reuse one instantiated app set, which
// cmd/experiments does. Profiling and training additionally consult
// Options.Cache, whose artifacts persist across processes under
// sim.ProfileKey and sim.TrainKey. Every key describes
// its computation completely, so a cache can never alias two different
// configurations.

// baselineKey identifies one deterministic sized-TAGE-SC-L baseline run.
type baselineKey struct {
	win    sim.WindowKey
	warmup uint64
	sizeKB int
	pcfg   pipeline.Config
}

// baselineMemo caches baseline runs behind the engine: several drivers
// re-measure the identical TAGE-SC-L window (Figs 1 and 2 on the train
// input; Figs 12/13, 14, 15, 17, the ablations and the buffer sweep on
// the test input), and the result is a pure function of the key.
var baselineMemo runner.Memo[baselineKey, pipeline.Result]

// BaselineCacheStats reports the cross-driver baseline memo's hit and
// miss counts (surfaced by the CLI's -timing report).
func BaselineCacheStats() (hits, misses uint64) { return baselineMemo.Stats() }

// memoBaseline measures (or recalls) a sized TAGE-SC-L baseline over w.
// The predictor is always constructed through sim.TageSized, whose seed
// normalization makes sizeKB a complete description of the
// configuration.
func (o Options) memoBaseline(w sim.Window, warmup uint64, sizeKB int) pipeline.Result {
	key := baselineKey{win: w.Key(), warmup: warmup, sizeKB: sizeKB, pcfg: o.Pipeline}
	return baselineMemo.Do(key, func() pipeline.Result {
		popt := pipeline.Options{Config: o.Pipeline, WarmupRecords: warmup}
		return pipeline.Run(w.Open(), sim.TageSized(sizeKB)(), popt)
	})
}

// baseline measures the 64KB TAGE-SC-L baseline over w.
func (o Options) baseline(w sim.Window) pipeline.Result {
	return o.memoBaseline(w, o.poptFor(w.Records).WarmupRecords, 64)
}

// runBaseline measures the 64KB TAGE-SC-L baseline for one app/input.
func (o Options) runBaseline(app *workload.App, input int) pipeline.Result {
	return o.baseline(appWindow(app, input, o.Records))
}

// runIdeal measures the ideal direction predictor.
func (o Options) runIdeal(app *workload.App, input int) pipeline.Result {
	return pipeline.Run(app.Stream(input, o.Records), &bpu.Oracle{}, o.popt())
}

// appNames extracts the apps' display names in option order. The
// figures' trailing "Avg" label is NOT included: every Table() renderer
// appends its own Avg row after the per-app rows.
func appNames(apps []*workload.App) []string {
	names := make([]string, 0, len(apps))
	for _, a := range apps {
		names = append(names, a.Name())
	}
	return names
}

// pct formats a fraction as "12.3".
func pct(frac float64) string { return stats.FormatFloat(frac*100, 1) }

// profileKey identifies one profiler.Collect run: the window plus its
// disk key (window ID, profiled predictor size, profiler options).
type profileKey struct {
	win  sim.WindowKey
	disk string
}

type profileResult struct {
	p   *profiler.Profile
	err error
}

var profileMemo runner.Memo[profileKey, profileResult]

// buildKey identifies one full Whisper build. The baseline predictor is
// keyed by its TAGE size (constructed via sim.TageSized, so the size is
// a complete description); params are a comparable struct.
type buildKey struct {
	win    sim.WindowKey
	sizeKB int
	params core.Params
}

type buildResult struct {
	b   *sim.WhisperBuild
	err error
}

var buildMemo runner.Memo[buildKey, buildResult]

// resetMemos clears every cross-driver memo. Tests use it to separate
// cold from warm passes; correctness never depends on memo state.
func resetMemos() {
	baselineMemo.Reset()
	profileMemo.Reset()
	buildMemo.Reset()
}

// collectProfile collects (or recalls) a profile of w under a sizeKB
// TAGE-SC-L, preferring the in-memory memo, then the disk cache, then
// computing.
func (o Options) collectProfile(w sim.Window, sizeKB int, popt profiler.Options) (*profiler.Profile, error) {
	diskKey := sim.ProfileKey(w, sizeKB, popt)
	r := profileMemo.Do(profileKey{win: w.Key(), disk: diskKey}, func() profileResult {
		if o.Cache != nil {
			if p, ok := o.Cache.LoadProfile(diskKey); ok {
				return profileResult{p: p}
			}
		}
		p, err := sim.Profile(w, sim.TageSized(sizeKB), popt)
		if err != nil {
			return profileResult{err: err}
		}
		if o.Cache != nil {
			// Persist failures degrade to an unpopulated cache, nothing more.
			_ = o.Cache.SaveProfile(diskKey,
				store.Meta{App: w.Name, Input: w.Input, Records: w.Records}, p)
		}
		return profileResult{p: p}
	})
	return r.p, r.err
}

// trainCached trains (or loads) hints for a profile. The disk key is
// the profile's content fingerprint plus the params, so incrementally
// merged profiles (Fig 18) cache correctly at every merge level. No
// in-memory memo here: build's memo already runs it once per
// (window, size, params), which is once per (profile, params), and the
// Fig 18 driver mutates its merged profile between calls.
func (o Options) trainCached(prof *profiler.Profile, params core.Params) (*core.TrainResult, error) {
	var diskKey string
	if o.Cache != nil {
		if key, err := sim.TrainKey(prof, params); err == nil {
			diskKey = key
			if tr, ok := o.Cache.LoadTrain(diskKey); ok {
				return tr, nil
			}
		}
	}
	tr, err := core.Train(prof, params)
	if err != nil {
		return nil, err
	}
	if diskKey != "" {
		_ = o.Cache.SaveTrain(diskKey, store.Meta{}, tr, prof.Instrs)
	}
	return tr, nil
}

// build runs (or recalls) the staged offline flow — profile, train,
// inject — over w, profiled under a sizeKB TAGE-SC-L.
func (o Options) build(w sim.Window, sizeKB int, params core.Params) (*sim.WhisperBuild, error) {
	r := buildMemo.Do(buildKey{win: w.Key(), sizeKB: sizeKB, params: params}, func() buildResult {
		prof, err := o.collectProfile(w, sizeKB, profiler.DefaultOptions())
		if err != nil {
			return buildResult{err: err}
		}
		tr, err := o.trainCached(prof, params)
		if err != nil {
			return buildResult{err: fmt.Errorf("experiments: training %s: %w", w.Name, err)}
		}
		b := sim.Inject(w, tr, prof.Instrs)
		b.Profile = prof
		return buildResult{b: b}
	})
	return r.b, r.err
}

// buildWhisper runs the end-to-end offline flow for one app under the
// experiment options.
func (o Options) buildWhisper(app *workload.App) (*sim.WhisperBuild, error) {
	return o.build(appWindow(app, o.TrainInput, o.Records), 64, o.Params)
}

// runWhisper measures a built Whisper binary on app's input.
func (o Options) runWhisper(b *sim.WhisperBuild, app *workload.App, input int) (pipeline.Result, *core.Runtime) {
	return b.Run(appWindow(app, input, o.Records), sim.Tage64KB, o.popt())
}

// checkApps validates the option's application list.
func (o Options) checkApps() error {
	if len(o.Apps) == 0 {
		return fmt.Errorf("experiments: no applications configured")
	}
	return nil
}
