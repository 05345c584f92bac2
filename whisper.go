// Package whisper is the public API of this reproduction of "Whisper:
// Profile-Guided Branch Misprediction Elimination for Data Center
// Applications" (Khan et al., MICRO 2022).
//
// The package exports the pieces a downstream user needs to run the
// full usage model of the paper's Fig 10:
//
//  1. pick or synthesize an application workload (Apps, NewApp),
//  2. profile it in "production" under a deployed predictor and train
//     Whisper hints offline (Optimize, configured with functional
//     options: WithParams, WithPredictor, WithTelemetry, ...),
//  3. persist the profile or trained hints between those stages
//     (Save, Load),
//  4. evaluate the updated binary on another input against the baseline
//     (Build.Evaluate), and
//  5. reproduce any of the paper's tables and figures (the
//     cmd/experiments binary).
//
// Implementation packages live under internal/; the exports here are the
// supported surface. The functional-options generation is the only API:
// the v1 entry points (bare BuildOptions, the package-level
// Evaluate/EvaluateWith/Measure) were removed after a deprecation cycle —
// measure a bare predictor by reading Evaluation.Baseline from a Build
// configured with WithPredictor.
package whisper

import (
	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/mtage"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/telemetry"
	"github.com/whisper-sim/whisper/internal/workload"
)

// App is a synthetic data-center application (see internal/workload).
type App = workload.App

// AppConfig parameterizes a custom application.
type AppConfig = workload.Config

// Mix is an application's branch behaviour class mix.
type Mix = workload.Mix

// Params are Whisper's design parameters (paper Table III).
type Params = core.Params

// Result is a simulation result with IPC/MPKI accessors.
type Result = pipeline.Result

// Predictor is a conditional branch direction predictor.
type Predictor = bpu.Predictor

// MachineConfig is the simulated machine (paper Table II).
type MachineConfig = pipeline.Config

// Registry is a metrics registry: counters, gauges and histograms with
// Prometheus-text and snapshot renderings. Pass one to Optimize via
// WithTelemetry to observe a run's pipeline and cache activity without
// touching the process-wide default.
type Registry = telemetry.Registry

// NewRegistry returns an empty metrics registry for WithTelemetry.
func NewRegistry() *Registry { return telemetry.NewRegistry() }

// NewApp synthesizes an application from a configuration.
func NewApp(cfg AppConfig) (*App, error) { return workload.New(cfg) }

// Apps returns the 12 data center applications of the paper's Table I.
func Apps() []*App { return workload.DataCenterApps() }

// AppByName returns one catalogued application — Table I, the extra
// workload families ("interp-dispatch", "gc-mark", "rpc-chain"), or
// the SPEC-like family ("spec-gcc", ...) — or nil if unknown.
func AppByName(name string) *App { return workload.AppByName(name) }

// FamilyApps returns the extra workload families used by the
// cross-workload hint-transfer study.
func FamilyApps() []*App { return workload.FamilyApps() }

// SpecApps returns the SPEC2017-like comparison family (paper Fig 5a).
func SpecApps() []*App { return workload.SpecApps() }

// DefaultParams returns the paper's Table III parameters.
func DefaultParams() Params { return core.DefaultParams() }

// DefaultMachine returns the Table II machine model.
func DefaultMachine() MachineConfig { return pipeline.DefaultConfig() }

// NewTageSCL builds a TAGE-SC-L baseline predictor with the given storage
// budget in kilobytes (the paper's baseline uses 64).
func NewTageSCL(sizeKB int) Predictor { return tage.New(tage.Config{SizeKB: sizeKB}) }

// NewMTageSC builds the unlimited-storage MTAGE-SC comparison predictor.
func NewMTageSC() Predictor { return mtage.New() }

// NewOracle builds the ideal direction predictor of the limit study.
func NewOracle() Predictor { return &bpu.Oracle{} }

// --- options ----------------------------------------------------------

// config is everything Optimize captures: the profiled window and
// build settings plus the evaluation defaults the returned Build
// reuses.
type config struct {
	trainInput int
	records    int
	params     core.Params
	baseline   sim.PredictorFactory
	machine    pipeline.Config
	warmup     float64
	metrics    *telemetry.Registry
}

func defaultConfig() config {
	return config{machine: pipeline.DefaultConfig(), warmup: 0.3}
}

// Option configures Optimize and the evaluations of the Build it
// returns. Options compose left to right; later options win.
type Option interface {
	apply(*config)
}

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithParams overrides Whisper's design parameters (paper Table III).
func WithParams(p Params) Option {
	return optionFunc(func(c *config) { c.params = p })
}

// WithPredictor sets the baseline predictor factory: the predictor
// profiled in production, deployed underneath the Whisper runtime, and
// measured standalone by Build.Evaluate. The default is the paper's
// 64KB TAGE-SC-L.
func WithPredictor(baseline func() Predictor) Option {
	return optionFunc(func(c *config) { c.baseline = sim.PredictorFactory(baseline) })
}

// WithTrainInput selects the workload input profiled in production
// (paper §V-A: optimize with one input, test with another; default #0).
func WithTrainInput(input int) Option {
	return optionFunc(func(c *config) { c.trainInput = input })
}

// WithRecords sets the profiled window length in trace records, and the
// default evaluation window of Build.Evaluate. n <= 0 keeps the default
// (workload.ScaleSmall's window).
func WithRecords(n int) Option {
	return optionFunc(func(c *config) { c.records = n })
}

// WithMachine overrides the simulated machine (paper Table II) used by
// Build.Evaluate.
func WithMachine(m MachineConfig) Option {
	return optionFunc(func(c *config) { c.machine = m })
}

// WithWarmup sets the fraction of evaluation records used to warm
// predictors and frontend structures before measuring (default 0.3).
func WithWarmup(frac float64) Option {
	return optionFunc(func(c *config) { c.warmup = frac })
}

// WithBlockSize changes nothing: evaluations run on the pipeline's one
// engine at its fixed block size, whatever n is.
//
// Deprecated: the pipeline has a single engine and no block-size
// setting; drop the option.
func WithBlockSize(n int) Option {
	return optionFunc(func(*config) {})
}

// WithTelemetry routes the run's metrics (pipeline spans, cache
// counters, runner series) into r for the duration of Optimize and of
// each Build.Evaluate call. The registry can then be snapshotted or
// rendered as Prometheus text. Not safe to combine with concurrent runs
// that use a different registry.
func WithTelemetry(r *Registry) Option {
	return optionFunc(func(c *config) { c.metrics = r })
}

// installMetrics swaps r in as the process metrics registry and returns
// the restore function (a no-op for nil).
func installMetrics(r *telemetry.Registry) func() {
	if r == nil {
		return func() {}
	}
	prev := telemetry.Default()
	telemetry.Install(r)
	return func() { telemetry.Install(prev) }
}

// --- the offline flow -------------------------------------------------

// Build is the output of the offline flow: the production profile, the
// trained hints, the dynamic CFG, and the updated binary, plus the
// evaluation configuration captured at Optimize time.
type Build struct {
	sim.WhisperBuild

	app *App
	cfg config
}

// Optimize runs the full offline flow for one application: in-production
// profiling, Algorithm 1 training with hashed history correlation and
// randomized formula testing, and link-time brhint injection. It
// rejects a train input the application does not have.
//
// With no options it mirrors the paper's setup (input #0, 64KB
// TAGE-SC-L, Table III parameters).
func Optimize(app *App, opts ...Option) (*Build, error) {
	c := defaultConfig()
	for _, o := range opts {
		if o != nil {
			o.apply(&c)
		}
	}
	// Resolve unset settings to the paper defaults once, so Evaluate and
	// Save see the window and configuration that were actually profiled.
	if c.records <= 0 {
		c.records = workload.ScaleSmall.Records()
	}
	if c.params.NumLengths == 0 {
		c.params = core.DefaultParams()
	}
	if c.baseline == nil {
		c.baseline = sim.Tage64KB
	}
	w, err := sim.AppWindow(app, c.trainInput, c.records)
	if err != nil {
		return nil, err
	}
	restore := installMetrics(c.metrics)
	defer restore()
	wb, err := sim.Build(w, c.baseline, c.params)
	if err != nil {
		return nil, err
	}
	return &Build{WhisperBuild: *wb, app: app, cfg: c}, nil
}

// Evaluation compares the Whisper-updated binary against the baseline on
// one workload input.
type Evaluation struct {
	Baseline, Whisper Result
	// HintPredictions counts predictions served from the hint buffer;
	// HintExecutions counts retired brhint instructions.
	HintPredictions, HintExecutions uint64
}

// Reduction returns the fraction of baseline mispredictions eliminated.
func (e *Evaluation) Reduction() float64 { return sim.MispReduction(e.Baseline, e.Whisper) }

// Speedup returns the IPC improvement fraction.
func (e *Evaluation) Speedup() float64 { return sim.Speedup(e.Baseline, e.Whisper) }

// Evaluate measures the updated binary against the baseline on the
// given workload input (paper Fig 10 step 3: deploy the optimized
// binary and test on an input the profile never saw), using the
// configuration captured at Optimize time — baseline predictor,
// machine model, warmup fraction, and telemetry registry.
// records <= 0 reuses the training window length. An input the
// application does not have panics.
func (b *Build) Evaluate(input, records int) *Evaluation {
	c := b.cfg
	if records <= 0 {
		records = c.records
	}
	w, err := sim.AppWindow(b.app, input, records)
	if err != nil {
		panic("whisper: Evaluate: " + err.Error())
	}
	popt := pipeline.Options{
		Config:        c.machine,
		WarmupRecords: uint64(float64(records) * c.warmup),
	}
	restore := installMetrics(c.metrics)
	defer restore()
	base := pipeline.Run(w.Open(), c.baseline(), popt)
	res, rt := b.Run(w, c.baseline, popt)
	return &Evaluation{
		Baseline:        base,
		Whisper:         res,
		HintPredictions: rt.HintPredictions,
		HintExecutions:  rt.HintExecutions,
	}
}

// --- artifacts --------------------------------------------------------

// Artifact is a versioned on-disk bundle: window metadata plus a profile
// snapshot and/or a trained hint bundle (see internal/store for the
// format).
type Artifact = store.Artifact

// ArtifactMeta identifies the workload window an artifact covers.
type ArtifactMeta = store.Meta

// Save persists a build's profile and trained hint bundle as one
// artifact file. This is the durability the paper's Fig 10 deployment
// model needs: the profile is collected on the production fleet
// (step 1), training runs offline elsewhere (step 2), and only the
// trained hints ship to the link step (step 3) — each arrow in that
// diagram is an artifact crossing a process or machine boundary.
// Artifacts are CRC-checked and versioned; Load rejects damage with
// typed errors instead of consuming garbage.
func Save(path string, b *Build) error {
	return store.WriteFile(path, &Artifact{
		Meta: ArtifactMeta{
			App:     b.app.Name(),
			Input:   b.cfg.trainInput,
			Records: b.cfg.records,
		},
		Profile:      b.Profile,
		Train:        b.Train,
		WindowInstrs: b.Profile.Instrs,
	})
}

// Load reads an artifact written by Save (or by the whisper CLI's
// staged profile/train/apply flow — same format). The profile side can
// be retrained with different parameters; the hint side can be
// re-injected into a binary without the profile (Fig 10's
// "apply-only" arrow).
func Load(path string) (*Artifact, error) { return store.ReadFile(path) }
