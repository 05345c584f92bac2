package experiments

// Sensitivity sweeps: larger baseline (Fig 20), predictor size (Fig 21),
// warm-up fraction (Fig 22), and simulated window length (Fig 23).

import (
	"fmt"

	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/runner"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/stats"
	"github.com/whisper-sim/whisper/internal/workload"
)

// whisperReductionWith builds Whisper against the given baseline budget
// and returns per-app reductions on the test input. Each app is one
// engine unit; the baseline goes through the cross-driver memo.
func whisperReductionWith(opt Options, phase string, sizeKB int, records int, warmupFrac float64) ([]float64, []float64, error) {
	warmup := uint64(float64(records) * warmupFrac)
	type sweepApp struct {
		red, mpki float64
	}
	per, err := mapApps(opt, phase, func(ai int, app *workload.App, u *runner.Unit) (sweepApp, error) {
		b, err := opt.build(appWindow(app, opt.TrainInput, records), sizeKB, opt.Params)
		if err != nil {
			return sweepApp{}, err
		}
		test := appWindow(app, opt.TestInput, records)
		popt := pipeline.Options{Config: opt.Pipeline, WarmupRecords: warmup}
		base := opt.memoBaseline(test, warmup, sizeKB)
		res, _ := b.Run(test, sim.TageSized(sizeKB), popt)
		u.AddInstrs(base.Instrs + res.Instrs)
		u.AddRecords(base.Records + res.Records)
		return sweepApp{red: sim.MispReduction(base, res), mpki: base.MPKI()}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	reds := make([]float64, len(per))
	mpkis := make([]float64, len(per))
	for i, pa := range per {
		reds[i], mpkis[i] = pa.red, pa.mpki
	}
	return reds, mpkis, nil
}

// Fig20Result is Whisper against a 128KB TAGE-SC-L baseline (paper
// Fig 20).
type Fig20Result struct {
	Apps      []string
	Reduction []float64
	BaseMPKI  []float64
}

// Fig20 runs the 128KB-baseline study.
func Fig20(opt Options) (*Fig20Result, error) {
	opt = opt.normalize()
	if err := opt.checkApps(); err != nil {
		return nil, err
	}
	reds, mpkis, err := whisperReductionWith(opt, "fig20", 128, opt.Records, opt.WarmupFrac)
	if err != nil {
		return nil, err
	}
	return &Fig20Result{Apps: appNames(opt.Apps), Reduction: reds, BaseMPKI: mpkis}, nil
}

// Table renders the figure.
func (r *Fig20Result) Table() *stats.Table {
	t := stats.NewTable("Fig 20: misprediction reduction over 128KB TAGE-SC-L (%)",
		"app", "reduction", "baseline MPKI")
	for i, app := range r.Apps {
		t.AddRow(app, pct(r.Reduction[i]), stats.FormatFloat(r.BaseMPKI[i], 2))
	}
	t.AddRow("Avg", pct(stats.Mean(r.Reduction)), stats.FormatFloat(stats.Mean(r.BaseMPKI), 2))
	return t
}

// Fig21Sizes is the predictor-size sweep of the paper's Fig 21.
var Fig21Sizes = []int{8, 16, 32, 64, 128, 256, 512, 1024}

// Fig21Result sweeps the baseline predictor budget.
type Fig21Result struct {
	SizesKB   []int
	Reduction []float64 // mean across apps per size
	BaseMPKI  []float64
}

// Fig21 runs the sweep.
func Fig21(opt Options, sizes []int) (*Fig21Result, error) {
	opt = opt.normalize()
	if err := opt.checkApps(); err != nil {
		return nil, err
	}
	if sizes == nil {
		sizes = Fig21Sizes
	}
	r := &Fig21Result{SizesKB: sizes}
	for _, kb := range sizes {
		reds, mpkis, err := whisperReductionWith(opt, fmt.Sprintf("fig21@%dKB", kb), kb, opt.Records, opt.WarmupFrac)
		if err != nil {
			return nil, err
		}
		r.Reduction = append(r.Reduction, stats.Mean(reds))
		r.BaseMPKI = append(r.BaseMPKI, stats.Mean(mpkis))
	}
	return r, nil
}

// Table renders the figure.
func (r *Fig21Result) Table() *stats.Table {
	t := stats.NewTable("Fig 21: avg reduction vs baseline predictor size",
		"size", "avg reduction %", "avg baseline MPKI")
	for i, kb := range r.SizesKB {
		t.AddRow(fmt.Sprintf("%dKB", kb), pct(r.Reduction[i]),
			stats.FormatFloat(r.BaseMPKI[i], 2))
	}
	return t
}

// Fig22Fracs is the warm-up sweep of the paper's Fig 22.
var Fig22Fracs = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// Fig22Result sweeps the warm-up fraction.
type Fig22Result struct {
	WarmupFracs []float64
	Reduction   []float64
}

// Fig22 runs the sweep. A zero warm-up measures the whole window
// (cold-start mispredictions included, where Whisper helps most).
func Fig22(opt Options, fracs []float64) (*Fig22Result, error) {
	opt = opt.normalize()
	if err := opt.checkApps(); err != nil {
		return nil, err
	}
	if fracs == nil {
		fracs = Fig22Fracs
	}
	r := &Fig22Result{WarmupFracs: fracs}
	// One build per app; only the measurement window varies.
	builds, err := mapApps(opt, "fig22/build", func(ai int, app *workload.App, u *runner.Unit) (*sim.WhisperBuild, error) {
		b, err := opt.buildWhisper(app)
		if err != nil {
			return nil, err
		}
		u.AddInstrs(b.Profile.Instrs)
		u.AddRecords(b.Profile.Records)
		return b, nil
	})
	if err != nil {
		return nil, err
	}
	for _, f := range fracs {
		warmup := uint64(float64(opt.Records) * f)
		reds, err := mapApps(opt, fmt.Sprintf("fig22@%g", f), func(ai int, app *workload.App, u *runner.Unit) (float64, error) {
			test := appWindow(app, opt.TestInput, opt.Records)
			popt := pipeline.Options{Config: opt.Pipeline, WarmupRecords: warmup}
			base := opt.memoBaseline(test, warmup, 64)
			res, _ := builds[ai].Run(test, sim.Tage64KB, popt)
			u.AddInstrs(base.Instrs + res.Instrs)
			u.AddRecords(base.Records + res.Records)
			return sim.MispReduction(base, res), nil
		})
		if err != nil {
			return nil, err
		}
		r.Reduction = append(r.Reduction, stats.Mean(reds))
	}
	return r, nil
}

// Table renders the figure.
func (r *Fig22Result) Table() *stats.Table {
	t := stats.NewTable("Fig 22: avg reduction vs warm-up fraction",
		"warm-up %", "avg reduction %")
	for i, f := range r.WarmupFracs {
		t.AddRow(stats.FormatFloat(f*100, 0)+"%", pct(r.Reduction[i]))
	}
	return t
}

// Fig23Result sweeps the measured window length (paper Fig 23: 100M to
// 1B instructions; here scaled record counts).
type Fig23Result struct {
	Records   []int
	Reduction []float64
}

// Fig23 runs the sweep; counts default to 1x..10x of a tenth of the
// configured record budget, mirroring the paper's 100M..1B range.
func Fig23(opt Options, counts []int) (*Fig23Result, error) {
	opt = opt.normalize()
	if err := opt.checkApps(); err != nil {
		return nil, err
	}
	if counts == nil {
		base := opt.Records / 10
		if base < 10000 {
			base = 10000
		}
		for k := 1; k <= 10; k++ {
			counts = append(counts, base*k)
		}
	}
	r := &Fig23Result{Records: counts}
	for _, n := range counts {
		reds, _, err := whisperReductionWith(opt, fmt.Sprintf("fig23@%d", n), 64, n, opt.WarmupFrac)
		if err != nil {
			return nil, err
		}
		r.Reduction = append(r.Reduction, stats.Mean(reds))
	}
	return r, nil
}

// Table renders the figure.
func (r *Fig23Result) Table() *stats.Table {
	t := stats.NewTable("Fig 23: avg reduction vs simulated window length",
		"records", "avg reduction %")
	for i, n := range r.Records {
		t.AddRow(fmt.Sprintf("%d", n), pct(r.Reduction[i]))
	}
	return t
}
