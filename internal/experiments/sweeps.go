package experiments

// Sensitivity sweeps: larger baseline (Fig 20), predictor size (Fig 21),
// warm-up fraction (Fig 22), and simulated window length (Fig 23).

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/runner"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/stats"
	"github.com/whisper-sim/whisper/internal/workload"
)

// whisperReductionWith builds Whisper against the given baseline budget
// and returns per-app reductions on the test input. Each app is one
// engine unit; the baseline goes through the cross-driver memo.
func whisperReductionWith(opt Options, phase string, sizeKB int) ([]float64, []float64, error) {
	type sweepApp struct {
		red, mpki float64
	}
	per, err := mapApps(opt, phase, func(ai int, app *workload.App, u *runner.Unit) (sweepApp, error) {
		b, err := opt.build(appWindow(app, trainInput, opt.Records), sizeKB, core.DefaultParams())
		if err != nil {
			return sweepApp{}, err
		}
		test := appWindow(app, testInput, opt.Records)
		base := baseline(u, test, sizeKB)
		res, _ := measureBuild(u, b, test, sizeKB)
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
	reds, mpkis, err := whisperReductionWith(opt, "fig20", 128)
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
	if sizes == nil {
		sizes = Fig21Sizes
	}
	r := &Fig21Result{SizesKB: sizes}
	for _, kb := range sizes {
		reds, mpkis, err := whisperReductionWith(opt, fmt.Sprintf("fig21@%dKB", kb), kb)
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
	if fracs == nil {
		fracs = Fig22Fracs
	}
	// The warm-up decides only which records count, so per app one
	// baseline pass and one Whisper pass over the test window measure
	// every fraction, one interval each.
	ivs := make([]pipeline.Interval, len(fracs))
	for k, f := range fracs {
		ivs[k] = pipeline.Interval{Warmup: uint64(float64(opt.Records) * f), End: uint64(opt.Records)}
	}
	per, err := mapApps(opt, "fig22", func(ai int, app *workload.App, u *runner.Unit) ([]float64, error) {
		b, err := opt.buildWhisper(app)
		if err != nil {
			return nil, err
		}
		u.AddInstrs(b.Profile.Instrs)
		u.AddRecords(b.Profile.Records)
		test := appWindow(app, testInput, opt.Records)
		base := pipeline.RunIntervals(test.Open(), sim.Tage64KB(), pipeline.Options{}, ivs)
		res, _ := b.RunIntervals(test, sim.Tage64KB(), pipeline.Options{}, ivs)
		credit(u, base...)
		credit(u, res...)
		reds := make([]float64, len(ivs))
		for k := range reds {
			reds[k] = sim.MispReduction(base[k], res[k])
		}
		return reds, nil
	})
	if err != nil {
		return nil, err
	}
	r := &Fig22Result{WarmupFracs: fracs}
	for k := range fracs {
		reds := make([]float64, len(per))
		for ai, appReds := range per {
			reds[ai] = appReds[k]
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
// configured record budget, mirroring the paper's 100M..1B range, with
// a floor of 10000 records on that tenth: at budgets under 100000 the
// sweep runs 10000..100000 records, past the budget itself.
func Fig23(opt Options, counts []int) (*Fig23Result, error) {
	pool, err := opt.appPool()
	if err != nil {
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
	// Windows are prefix-consistent: an app's n-record window is the
	// first n records of its longest one. So per app one profiling pass
	// over the longest train window profiles every length, and leaves
	// them in the memo for the build units; one baseline pass over the
	// longest test window measures every length, one interval each. The
	// (length, app) units then train, inject and measure, longest first.
	if len(counts) == 0 {
		return &Fig23Result{Records: counts}, nil
	}
	ivs := make([]pipeline.Interval, len(counts))
	for li, n := range counts {
		ivs[li] = pipeline.Interval{Warmup: warmup(n), End: uint64(n)}
	}
	lengths := slices.Clone(counts)
	slices.Sort(lengths)
	lengths = slices.Compact(lengths)
	longest := lengths[len(lengths)-1]
	popt := profiler.DefaultOptions()
	nApps := len(opt.Apps)
	bases := make([][]pipeline.Result, nApps) // [app][length]
	err = pool.Run(2*nApps, func(i int, u *runner.Unit) error {
		app := opt.Apps[i%nApps]
		if i < nApps {
			u.Label = "fig23/profile/" + app.Name()
			wins := make([]sim.Window, len(lengths))
			for k, n := range lengths {
				wins[k] = appWindow(app, trainInput, n)
			}
			profs, err := opt.profiles(wins, 64, popt)
			if err != nil {
				return err
			}
			for k, p := range profs {
				profileMemo.Do(newProfileKey(wins[k], 64, popt), func() profileResult { return profileResult{p: p} })
			}
			last := profs[len(profs)-1]
			u.AddInstrs(last.Instrs)
			u.AddRecords(last.Records)
			return nil
		}
		u.Label = "fig23/baseline/" + app.Name()
		test := appWindow(app, testInput, longest)
		bases[i-nApps] = pipeline.RunIntervals(test.Open(), sim.Tage64KB(), pipeline.Options{}, ivs)
		credit(u, bases[i-nApps]...)
		return nil
	})
	if err != nil {
		return nil, err
	}

	byLength := make([]int, len(counts))
	for li := range byLength {
		byLength[li] = li
	}
	slices.SortStableFunc(byLength, func(a, b int) int { return cmp.Compare(counts[b], counts[a]) })
	runs := make([][]pipeline.Result, len(counts))
	for li := range runs {
		runs[li] = make([]pipeline.Result, nApps) // [length][app]
	}
	err = pool.Run(nApps*len(counts), func(i int, u *runner.Unit) error {
		li, ai := byLength[i/nApps], i%nApps
		n, app := counts[li], opt.Apps[ai]
		u.Label = fmt.Sprintf("fig23@%d/%s", n, app.Name())
		b, err := opt.build(appWindow(app, trainInput, n), 64, core.DefaultParams())
		if err != nil {
			return err
		}
		runs[li][ai], _ = measureBuild(u, b, appWindow(app, testInput, n), 64)
		return nil
	})
	if err != nil {
		return nil, err
	}
	r := &Fig23Result{Records: counts}
	for li := range counts {
		reds := make([]float64, nApps)
		for ai := range reds {
			reds[ai] = sim.MispReduction(bases[ai][li], runs[li][ai])
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
