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
	if sizes == nil {
		sizes = BufferSweepSizes
	}
	// Build once per app, evaluate at every size.
	type built struct {
		b    *sim.WhisperBuild
		base pipeline.Result
	}
	builds, err := mapApps(opt, "buffer/build", func(ai int, app *workload.App, u *runner.Unit) (built, error) {
		b, err := opt.buildWhisper(app)
		if err != nil {
			return built{}, err
		}
		u.AddInstrs(b.Profile.Instrs)
		u.AddRecords(b.Profile.Records)
		return built{b: b, base: baseline(u, appWindow(app, testInput, opt.Records), 64)}, nil
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
			rt := core.NewRuntime(sim.Tage64KB(), builds[ai].b.Binary, builds[ai].b.Train.Lengths, size)
			res := measureRuntime(u, appWindow(app, testInput, opt.Records), rt)
			return sized{red: sim.MispReduction(builds[ai].base, res), hit: rt.Buffer().HitRate()}, nil
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
	type ablationApp struct {
		full, noSup, noVal float64
	}
	per, err := mapApps(opt, "ablations", func(ai int, app *workload.App, u *runner.Unit) (ablationApp, error) {
		test := appWindow(app, testInput, opt.Records)
		base := baseline(u, test, 64)
		reduction := func(b *sim.WhisperBuild) float64 {
			res, _ := measureBuild(u, b, test, 64)
			return sim.MispReduction(base, res)
		}

		// Full design (shared build for full + no-suppression).
		b, err := opt.buildWhisper(app)
		if err != nil {
			return ablationApp{}, err
		}
		pa := ablationApp{full: reduction(b)}
		noSup := core.NewRuntimeOpts(sim.Tage64KB(), b.Binary, b.Train.Lengths, 0, false)
		pa.noSup = sim.MispReduction(base, measureRuntime(u, test, noSup))

		params := core.DefaultParams()
		params.NoValidation = true
		nb, err := opt.build(appWindow(app, trainInput, opt.Records), 64, params)
		if err != nil {
			return ablationApp{}, err
		}
		pa.noVal = reduction(nb)
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
