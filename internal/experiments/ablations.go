package experiments

// Design-choice ablations beyond the paper's own figures (DESIGN.md §3):
// the hint-buffer capacity sensitivity the paper summarizes in Table III
// ("high performance even with a 32-entry hint buffer"), the §IV
// allocation-suppression policy, and this reproduction's held-out
// validation split.

import (
	"fmt"

	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/runner"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/stats"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/workload"
)

// BufferSweepSizes is the default hint-buffer capacity sweep.
var BufferSweepSizes = []int{1, 2, 4, 8, 16, 32, 64, 128}

// BufferSweepResult measures reduction versus hint-buffer capacity.
type BufferSweepResult struct {
	Sizes     []int
	Reduction []float64 // mean across apps
	HitRate   []float64 // mean buffer hit rate among hinted branches
}

// BufferSweep runs the Table III hint-buffer sensitivity study.
func BufferSweep(opt Options, sizes []int) (*BufferSweepResult, error) {
	opt = opt.normalize()
	if err := opt.checkApps(); err != nil {
		return nil, err
	}
	if sizes == nil {
		sizes = BufferSweepSizes
	}
	// Build once per app, evaluate at every size.
	type built struct {
		b        *sim.WhisperBuild
		baseMisp uint64
	}
	basePopt := opt.popt()
	builds, err := mapApps(opt, "buffer/build", func(ai int, app *workload.App, u *runner.Unit) (built, error) {
		b, err := opt.buildWhisper(app)
		if err != nil {
			return built{}, err
		}
		base := opt.runBaseline(app, opt.TestInput)
		u.AddInstrs(b.Profile.Instrs + base.Instrs)
		u.AddRecords(b.Profile.Records + base.Records)
		return built{b: b, baseMisp: base.CondMisp}, nil
	})
	if err != nil {
		return nil, err
	}
	r := &BufferSweepResult{Sizes: sizes}
	for _, size := range sizes {
		type sized struct {
			red, hit float64
		}
		per, err := mapApps(opt, fmt.Sprintf("buffer@%d", size), func(ai int, app *workload.App, u *runner.Unit) (sized, error) {
			rt := core.NewRuntimeOpts(tage.New(tage.DefaultConfig()),
				builds[ai].b.Binary, builds[ai].b.Train.Lengths, size, true)
			popt := basePopt
			popt.Hook = rt
			res := pipeline.Run(app.Stream(opt.TestInput, opt.Records), rt, popt)
			u.AddInstrs(res.Instrs)
			u.AddRecords(res.Records)
			red := 0.0
			if builds[ai].baseMisp > 0 {
				red = 1 - float64(res.CondMisp)/float64(builds[ai].baseMisp)
			}
			return sized{red: red, hit: rt.Buffer().HitRate()}, nil
		})
		if err != nil {
			return nil, err
		}
		var reds, hits []float64
		for _, pa := range per {
			reds = append(reds, pa.red)
			hits = append(hits, pa.hit)
		}
		r.Reduction = append(r.Reduction, stats.Mean(reds))
		r.HitRate = append(r.HitRate, stats.Mean(hits))
	}
	return r, nil
}

// Table renders the sweep.
func (r *BufferSweepResult) Table() *stats.Table {
	t := stats.NewTable("Ablation: hint-buffer capacity sensitivity",
		"entries", "avg reduction %", "buffer hit rate")
	for i, s := range r.Sizes {
		t.AddRow(fmt.Sprintf("%d", s), pct(r.Reduction[i]),
			stats.FormatFloat(r.HitRate[i], 3))
	}
	return t
}

// AblationResult compares the full design against single-policy removals.
type AblationResult struct {
	Apps []string
	// Full is the shipped configuration; NoSuppression keeps hinted
	// branches inside TAGE's tables; NoValidation deploys hints without
	// the held-out check.
	Full, NoSuppression, NoValidation []float64
}

// Ablations measures the design-policy contributions.
func Ablations(opt Options) (*AblationResult, error) {
	opt = opt.normalize()
	if err := opt.checkApps(); err != nil {
		return nil, err
	}
	type ablationApp struct {
		full, noSup, noVal float64
	}
	per, err := mapApps(opt, "ablations", func(ai int, app *workload.App, u *runner.Unit) (ablationApp, error) {
		base := opt.runBaseline(app, opt.TestInput)
		u.AddInstrs(base.Instrs)
		u.AddRecords(base.Records)

		// Full design (shared build for full + no-suppression).
		b, err := opt.buildWhisper(app)
		if err != nil {
			return ablationApp{}, err
		}
		evalWith := func(bb *sim.WhisperBuild, suppress bool) float64 {
			rt := core.NewRuntimeOpts(tage.New(tage.DefaultConfig()),
				bb.Binary, bb.Train.Lengths, 0, suppress)
			popt := opt.popt()
			popt.Hook = rt
			res := pipeline.Run(app.Stream(opt.TestInput, opt.Records), rt, popt)
			u.AddInstrs(res.Instrs)
			u.AddRecords(res.Records)
			return sim.MispReduction(base, res)
		}
		pa := ablationApp{}
		pa.full = evalWith(b, true)
		pa.noSup = evalWith(b, false)

		params := opt.Params
		params.NoValidation = true
		nb, err := opt.build(appWindow(app, opt.TrainInput, opt.Records), 64, params)
		if err != nil {
			return ablationApp{}, err
		}
		pa.noVal = evalWith(nb, true)
		return pa, nil
	})
	if err != nil {
		return nil, err
	}
	r := &AblationResult{Apps: appNames(opt.Apps)}
	for _, pa := range per {
		r.Full = append(r.Full, pa.full)
		r.NoSuppression = append(r.NoSuppression, pa.noSup)
		r.NoValidation = append(r.NoValidation, pa.noVal)
	}
	return r, nil
}

// Table renders the ablation comparison.
func (r *AblationResult) Table() *stats.Table {
	t := stats.NewTable("Ablation: design policies (misprediction reduction %)",
		"app", "full", "no-alloc-suppression", "no-validation-split")
	for i, app := range r.Apps {
		t.AddRow(app, pct(r.Full[i]), pct(r.NoSuppression[i]), pct(r.NoValidation[i]))
	}
	t.AddRow("Avg", pct(stats.Mean(r.Full)), pct(stats.Mean(r.NoSuppression)),
		pct(stats.Mean(r.NoValidation)))
	return t
}
