package experiments

// Whisper-specific evaluation drivers: the trained-formula operation
// breakdown (Fig 7), the ablation (Fig 14), the randomized-testing sweep
// (Fig 15), input sensitivity (Fig 17), profile merging (Fig 18), and the
// hint overhead (Fig 19).

import (
	"fmt"
	"time"

	"github.com/whisper-sim/whisper/internal/cfg"
	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/hint"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/rombf"
	"github.com/whisper-sim/whisper/internal/runner"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/stats"
	"github.com/whisper-sim/whisper/internal/workload"
)

// Fig7Ops are the categories of the paper's Fig 7 legend.
var Fig7Ops = []string{
	"And", "Always-taken", "Converse-nonimplication", "Implication",
	"Never-taken", "Or", "Others",
}

// Fig7Result distributes hinted branch *executions* among the logical
// operations of their trained formulas (paper Fig 7).
type Fig7Result struct {
	Apps []string
	// Shares[app][op] follows Fig7Ops ordering; fractions of hinted
	// executions.
	Shares [][]float64
}

// Fig7 trains Whisper per app and classifies the deployed formulas.
func Fig7(opt Options) (*Fig7Result, error) {
	allShares, err := mapApps(opt, "fig7", func(ai int, app *workload.App, u *runner.Unit) ([]float64, error) {
		b, err := opt.buildWhisper(app)
		if err != nil {
			return nil, err
		}
		u.AddInstrs(b.Profile.Instrs)
		u.AddRecords(b.Profile.Records)
		shares := make([]float64, len(Fig7Ops))
		var total float64
		for pc, h := range b.Train.Hints {
			execs := float64(b.Profile.Stats[pc].Execs)
			total += execs
			shares[fig7Class(h)] += execs
		}
		if total > 0 {
			for i := range shares {
				shares[i] /= total
			}
		}
		return shares, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig7Result{Apps: appNames(opt.Apps), Shares: allShares}, nil
}

// fig7Class maps a trained hint to its Fig 7 category index.
func fig7Class(h core.Hint) int {
	switch h.Bias {
	case hint.BiasTaken:
		return 1 // Always-taken
	case hint.BiasNotTaken:
		return 4 // Never-taken
	}
	if op, ok := h.Formula.DominantOp(); ok {
		switch op.String() {
		case "And":
			return 0
		case "Converse-nonimplication":
			return 2
		case "Implication":
			return 3
		case "Or":
			return 5
		}
	}
	return 6 // Others
}

// Table renders the figure.
func (r *Fig7Result) Table() *stats.Table {
	cols := append([]string{"app"}, Fig7Ops...)
	t := stats.NewTable("Fig 7: hinted executions by formula operation (%)", cols...)
	avg := make([]float64, len(Fig7Ops))
	for i, app := range r.Apps {
		cells := []string{app}
		for k, v := range r.Shares[i] {
			cells = append(cells, pct(v))
			avg[k] += v
		}
		t.AddRow(cells...)
	}
	cells := []string{"Avg"}
	for _, v := range avg {
		cells = append(cells, pct(v/float64(len(r.Apps))))
	}
	t.AddRow(cells...)
	return t
}

// Fig14Result is the ablation over 8b-ROMBF: the misprediction reduction
// contributed by hashed history correlation and by the Implication /
// Converse Non-Implication extension (paper Fig 14).
type Fig14Result struct {
	Apps []string
	// HashedHistory and ImplCnimpl are reduction-percentage-point
	// contributions over the 8b-ROMBF baseline.
	HashedHistory, ImplCnimpl []float64
}

// Fig14 measures the two contributions in the order the techniques
// compose: Whisper restricted to the raw 8-bit history (HashedHistory
// off) isolates the Implication/Converse-Non-Implication extension over
// 8b-ROMBF; enabling the full geometric length series on top isolates
// hashed history correlation. (The reverse attribution — monotone
// operators over hashed lengths — measures near zero here because the
// workload's long-history ground truths are balanced formulas outside
// the monotone space; the two techniques are complementary, not
// additive, and this order matches the paper's narrative.)
func Fig14(opt Options) (*Fig14Result, error) {
	type fig14App struct {
		hashed, impl float64
	}
	per, err := mapApps(opt, "fig14", func(ai int, app *workload.App, u *runner.Unit) (fig14App, error) {
		train := appWindow(app, trainInput, opt.Records)
		test := appWindow(app, testInput, opt.Records)
		base := baseline(u, test, 64)

		// 8b-ROMBF reference, trained over the same hard-branch set the
		// Whisper variants see (the figure decomposes expressiveness;
		// coverage differences would contaminate it).
		ropt := profiler.DefaultOptions()
		ropt.Lengths = []int{8}
		rprof, err := opt.collectProfile(train, 64, ropt)
		if err != nil {
			return fig14App{}, err
		}
		rtr, err := rombf.Train(rprof, rombf.DefaultConfig())
		if err != nil {
			return fig14App{}, err
		}
		rres := measure(u, test, rombf.NewPredictor(sim.Tage64KB(), rtr.Hints, 8))
		rombfRed := sim.MispReduction(base, rres)

		// All variants search their formula spaces exhaustively so the
		// decomposition isolates expressiveness rather than sampling
		// luck (8b-ROMBF's 128-formula space is always searched
		// exhaustively; the factorized evaluator makes the 2^15 space
		// exhaustive too).
		run := func(params core.Params) (float64, error) {
			params.ExploreFraction = 1.0
			b, err := opt.build(train, 64, params)
			if err != nil {
				return 0, err
			}
			res, _ := measureBuild(u, b, test, 64)
			return sim.MispReduction(base, res), nil
		}
		opsOnly := core.DefaultParams()
		opsOnly.HashedHistory = false
		opsRed, err := run(opsOnly)
		if err != nil {
			return fig14App{}, err
		}
		fullRed, err := run(core.DefaultParams())
		if err != nil {
			return fig14App{}, err
		}
		return fig14App{hashed: fullRed - opsRed, impl: opsRed - rombfRed}, nil
	})
	if err != nil {
		return nil, err
	}
	r := &Fig14Result{Apps: appNames(opt.Apps)}
	for _, pa := range per {
		r.HashedHistory = append(r.HashedHistory, pa.hashed)
		r.ImplCnimpl = append(r.ImplCnimpl, pa.impl)
	}
	return r, nil
}

// Table renders the figure.
func (r *Fig14Result) Table() *stats.Table {
	t := stats.NewTable("Fig 14: improvement over 8b-ROMBF (percentage points)",
		"app", "Hashed-history-correlation", "Implication-converse-nonimplication")
	for i, app := range r.Apps {
		t.AddRow(app, pct(r.HashedHistory[i]), pct(r.ImplCnimpl[i]))
	}
	t.AddRow("Avg", pct(stats.Mean(r.HashedHistory)), pct(stats.Mean(r.ImplCnimpl)))
	return t
}

// Fig15Fractions is the default exploration sweep.
var Fig15Fractions = []float64{0.001, 0.01, 0.05, 0.2, 1.0}

// Fig15Result sweeps randomized formula testing's explored fraction
// against average misprediction reduction and training time (paper
// Fig 15). The 1.0 point uses the exact factorized exhaustive search.
type Fig15Result struct {
	Fractions []float64
	// Reduction is the mean misprediction reduction at each fraction;
	// TrainSeconds the mean per-app training time.
	Reduction    []float64
	TrainSeconds []float64
}

// Fig15 runs the sweep.
func Fig15(opt Options, fractions []float64) (*Fig15Result, error) {
	if fractions == nil {
		fractions = Fig15Fractions
	}
	r := &Fig15Result{Fractions: fractions}
	type fig15App struct {
		red   float64
		train time.Duration
	}
	for _, frac := range fractions {
		per, err := mapApps(opt, fmt.Sprintf("fig15@%g", frac),
			func(ai int, app *workload.App, u *runner.Unit) (fig15App, error) {
				base := baseline(u, appWindow(app, testInput, opt.Records), 64)
				params := core.DefaultParams()
				params.ExploreFraction = frac
				b, err := opt.build(appWindow(app, trainInput, opt.Records), 64, params)
				if err != nil {
					return fig15App{}, err
				}
				res, _ := measureBuild(u, b, appWindow(app, testInput, opt.Records), 64)
				return fig15App{red: sim.MispReduction(base, res), train: b.Train.Duration}, nil
			})
		if err != nil {
			return nil, err
		}
		var reds []float64
		var train time.Duration
		for _, pa := range per {
			reds = append(reds, pa.red)
			train += pa.train
		}
		r.Reduction = append(r.Reduction, stats.Mean(reds))
		r.TrainSeconds = append(r.TrainSeconds, train.Seconds()/float64(len(opt.Apps)))
	}
	return r, nil
}

// Table renders the figure.
func (r *Fig15Result) Table() *stats.Table {
	t := stats.NewTable("Fig 15: randomized formula testing sweep",
		"% formulas explored", "avg misprediction reduction %", "avg training time (s)")
	for i, f := range r.Fractions {
		t.AddRow(stats.FormatFloat(f*100, 1), pct(r.Reduction[i]),
			stats.FormatFloat(r.TrainSeconds[i], 3))
	}
	return t
}

// Fig17Result compares cross-input against same-input profiles (paper
// Fig 17): for each app and test input, the reduction using the training
// input's profile versus a profile from the test input itself.
type Fig17Result struct {
	Apps []string
	// TestInputs lists the evaluated inputs (#1..#3).
	TestInputs []int
	// CrossInput[app][k] and SameInput[app][k] are reductions.
	CrossInput, SameInput [][]float64
}

// Fig17 runs the input-sensitivity study.
func Fig17(opt Options, testInputs []int) (*Fig17Result, error) {
	if testInputs == nil {
		testInputs = []int{1, 2, 3}
	}
	type fig17App struct {
		cross, same []float64
	}
	per, err := mapApps(opt, "fig17", func(ai int, app *workload.App, u *runner.Unit) (fig17App, error) {
		crossB, err := opt.buildWhisper(app)
		if err != nil {
			return fig17App{}, err
		}
		var cross, same []float64
		for _, ti := range testInputs {
			test := appWindow(app, ti, opt.Records)
			base := baseline(u, test, 64)
			res, _ := measureBuild(u, crossB, test, 64)
			cross = append(cross, sim.MispReduction(base, res))

			sameB, err := opt.build(test, 64, core.DefaultParams())
			if err != nil {
				return fig17App{}, err
			}
			sres, _ := measureBuild(u, sameB, test, 64)
			same = append(same, sim.MispReduction(base, sres))
		}
		return fig17App{cross: cross, same: same}, nil
	})
	if err != nil {
		return nil, err
	}
	r := &Fig17Result{Apps: appNames(opt.Apps), TestInputs: testInputs}
	for _, pa := range per {
		r.CrossInput = append(r.CrossInput, pa.cross)
		r.SameInput = append(r.SameInput, pa.same)
	}
	return r, nil
}

// Table renders the figure.
func (r *Fig17Result) Table() *stats.Table {
	t := stats.NewTable("Fig 17: reduction with training-input vs same-input profiles (%)",
		"app", "input", "profile-from-training-input", "profile-from-same-input")
	var cAll, sAll []float64
	for i, app := range r.Apps {
		for k, ti := range r.TestInputs {
			t.AddRow(app, fmt.Sprintf("#%d", ti),
				pct(r.CrossInput[i][k]), pct(r.SameInput[i][k]))
			cAll = append(cAll, r.CrossInput[i][k])
			sAll = append(sAll, r.SameInput[i][k])
		}
	}
	t.AddRow("Avg", "", pct(stats.Mean(cAll)), pct(stats.Mean(sAll)))
	return t
}

// Fig18Result measures merged profiles: Whisper, 8b-ROMBF, and
// unlimited-BranchNet trained on profiles merged from 1..k inputs and
// evaluated on a held-out input (paper Fig 18).
type Fig18Result struct {
	InputCounts []int
	// Reduction[technique][k] is the mean reduction across apps.
	Reduction map[Technique][]float64
}

// Fig18 runs the merged-profile study. Per-input profiles are collected
// once per app and merged incrementally, so the sweep costs k profile
// collections rather than k^2. The held-out test input is the app's last
// input.
func Fig18(opt Options, maxInputs int) (*Fig18Result, error) {
	if maxInputs <= 0 {
		maxInputs = 5
	}
	type fig18App struct {
		wh, ro []float64 // reductions indexed by merge level k-1
	}
	per, err := mapApps(opt, "fig18", func(ai int, app *workload.App, u *runner.Unit) (fig18App, error) {
		if maxInputs >= app.Inputs() {
			return fig18App{}, fmt.Errorf("experiments: app %s has only %d inputs, need > %d",
				app.Name(), app.Inputs(), maxInputs)
		}
		pa := fig18App{}
		train := appWindow(app, trainInput, opt.Records)
		test := appWindow(app, app.Inputs()-1, opt.Records)
		base := baseline(u, test, 64)
		g := cfg.Build(train.Open())

		var merged, rmerged *profiler.Profile
		for k := 1; k <= maxInputs; k++ {
			in := k - 1
			w := appWindow(app, in, opt.Records)
			p, err := opt.collectProfile(w, 64, profiler.DefaultOptions())
			if err != nil {
				return pa, err
			}
			ropt := profiler.DefaultOptions()
			ropt.Lengths = []int{8}
			ropt.MaxHard = 0
			rp, err := opt.collectProfile(w, 64, ropt)
			if err != nil {
				return pa, err
			}
			// The per-input profiles are shared cache entries; Merge
			// mutates its receiver, so the accumulators are clones.
			if merged == nil {
				merged, rmerged = p.Clone(), rp.Clone()
			} else {
				if err := merged.Merge(p); err != nil {
					return pa, err
				}
				if err := rmerged.Merge(rp); err != nil {
					return pa, err
				}
			}

			// Whisper from the merged profile. No ProfileKey describes
			// it, so its hints key on its content, and each merge level
			// caches separately even though the accumulator mutates in
			// place. A profile that fails to encode only goes uncached.
			params := core.DefaultParams()
			var trainKey string
			if opt.Cache != nil {
				trainKey, _ = sim.ContentTrainKey(merged, params)
			}
			tr, err := opt.trainCached(merged, params, trainKey)
			if err != nil {
				return pa, err
			}
			res, _ := measureBuild(u, sim.Inject(train, tr, g, merged.Instrs), test, 64)
			pa.wh = append(pa.wh, sim.MispReduction(base, res))

			// 8b-ROMBF from the merged raw-history profile.
			rtr, err := rombf.Train(rmerged, rombf.DefaultConfig())
			if err != nil {
				return pa, err
			}
			rres := measure(u, test, rombf.NewPredictor(sim.Tage64KB(), rtr.Hints, 8))
			pa.ro = append(pa.ro, sim.MispReduction(base, rres))
		}
		return pa, nil
	})
	if err != nil {
		return nil, err
	}
	r := &Fig18Result{Reduction: map[Technique][]float64{}}
	for k := 1; k <= maxInputs; k++ {
		var wh, ro []float64
		for _, pa := range per {
			wh = append(wh, pa.wh[k-1])
			ro = append(ro, pa.ro[k-1])
		}
		r.InputCounts = append(r.InputCounts, k)
		r.Reduction[TechWhisper] = append(r.Reduction[TechWhisper], stats.Mean(wh))
		r.Reduction[Tech8bROMBF] = append(r.Reduction[Tech8bROMBF], stats.Mean(ro))
	}
	return r, nil
}

// Table renders the figure.
func (r *Fig18Result) Table() *stats.Table {
	t := stats.NewTable("Fig 18: avg misprediction reduction with merged profiles (%)",
		"inputs merged", "8b-ROMBF", "Whisper")
	for i, k := range r.InputCounts {
		t.AddRow(fmt.Sprintf("%d-input", k),
			pct(r.Reduction[Tech8bROMBF][i]), pct(r.Reduction[TechWhisper][i]))
	}
	return t
}

// Fig19Result is the brhint overhead study (paper Fig 19).
type Fig19Result struct {
	Apps []string
	// Static and Dynamic are instruction-increase fractions.
	Static, Dynamic []float64
	// Placed and Dropped count hints; Coverage is placed/(placed+dropped).
	Placed, Dropped []int
}

// Fig19 builds Whisper per app and reports the injected-hint overheads.
func Fig19(opt Options) (*Fig19Result, error) {
	type fig19App struct {
		static, dynamic float64
		placed, dropped int
	}
	per, err := mapApps(opt, "fig19", func(ai int, app *workload.App, u *runner.Unit) (fig19App, error) {
		b, err := opt.buildWhisper(app)
		if err != nil {
			return fig19App{}, err
		}
		u.AddInstrs(b.Profile.Instrs)
		u.AddRecords(b.Profile.Records)
		return fig19App{
			static:  b.Binary.StaticOverhead(),
			dynamic: b.Binary.DynamicOverhead(),
			placed:  b.Binary.Placed,
			dropped: b.Binary.Dropped,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	r := &Fig19Result{Apps: appNames(opt.Apps)}
	for _, pa := range per {
		r.Static = append(r.Static, pa.static)
		r.Dynamic = append(r.Dynamic, pa.dynamic)
		r.Placed = append(r.Placed, pa.placed)
		r.Dropped = append(r.Dropped, pa.dropped)
	}
	return r, nil
}

// Table renders the figure.
func (r *Fig19Result) Table() *stats.Table {
	t := stats.NewTable("Fig 19: brhint instruction overhead (%)",
		"app", "static", "dynamic", "hints placed", "hints dropped")
	for i, app := range r.Apps {
		t.AddRow(app, pct(r.Static[i]), pct(r.Dynamic[i]),
			fmt.Sprintf("%d", r.Placed[i]), fmt.Sprintf("%d", r.Dropped[i]))
	}
	t.AddRow("Avg", pct(stats.Mean(r.Static)), pct(stats.Mean(r.Dynamic)))
	return t
}
