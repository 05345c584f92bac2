package experiments

// The cross-technique comparison behind the paper's headline figures:
// Fig 4 (prior profile-guided techniques), Fig 12 (speedup), Fig 13
// (misprediction reduction), and Fig 16 (training time). All techniques
// are trained on the train input's profile and evaluated on the test
// input, the paper's cross-input methodology (§V-A).

import (
	"time"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/branchnet"
	"github.com/whisper-sim/whisper/internal/mtage"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/rombf"
	"github.com/whisper-sim/whisper/internal/runner"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/stats"
	"github.com/whisper-sim/whisper/internal/workload"
)

// Technique identifies one compared mechanism.
type Technique string

// The techniques of the paper's Figs 4/12/13.
const (
	Tech4bROMBF      Technique = "4b-ROMBF"
	Tech8bROMBF      Technique = "8b-ROMBF"
	TechBranchNet8   Technique = "8KB-BranchNet"
	TechBranchNet32  Technique = "32KB-BranchNet"
	TechBranchNetUnl Technique = "Unlimited-BranchNet"
	TechWhisper      Technique = "Whisper"
	TechMTAGE        Technique = "Unlimited-MTAGE-SC"
	TechIdeal        Technique = "Ideal-Branch-Predictor"
)

// PriorTechniques are the profile-guided baselines of Fig 4.
var PriorTechniques = []Technique{
	Tech4bROMBF, Tech8bROMBF, TechBranchNet8, TechBranchNet32, TechBranchNetUnl,
}

// AllTechniques is the Fig 12 set, in the figure's legend order.
var AllTechniques = []Technique{
	Tech4bROMBF, Tech8bROMBF, TechBranchNet8, TechBranchNet32, TechBranchNetUnl,
	TechWhisper, TechMTAGE, TechIdeal,
}

// Comparison holds per-app, per-technique results.
type Comparison struct {
	Apps       []string
	Techniques []Technique
	// Reduction and Speedup are fractions per technique per app.
	Reduction map[Technique][]float64
	Speedup   map[Technique][]float64
	// TrainTime is total offline training time per technique (the
	// profile-guided ones).
	TrainTime map[Technique]time.Duration
	// BaseMPKI is the 64KB TAGE-SC-L baseline per app on the test input.
	BaseMPKI []float64
}

// RunComparison trains and evaluates every requested technique. A nil
// techniques slice selects AllTechniques.
func RunComparison(opt Options, techniques []Technique) (*Comparison, error) {
	if techniques == nil {
		techniques = AllTechniques
	}
	want := map[Technique]bool{}
	for _, t := range techniques {
		want[t] = true
	}
	// Each app is one independent unit on the engine; results are merged
	// back in app order afterwards so tables match a sequential run.
	type appComparison struct {
		baseMPKI  float64
		reduction map[Technique]float64
		speedup   map[Technique]float64
		trainTime map[Technique]time.Duration
	}
	per, err := mapApps(opt, "comparison", func(ai int, app *workload.App, u *runner.Unit) (appComparison, error) {
		pa := appComparison{
			reduction: map[Technique]float64{},
			speedup:   map[Technique]float64{},
			trainTime: map[Technique]time.Duration{},
		}
		train := appWindow(app, trainInput, opt.Records)
		test := appWindow(app, testInput, opt.Records)
		base := baseline(u, test, 64)
		pa.baseMPKI = base.MPKI()
		record := func(t Technique, res pipeline.Result) {
			pa.reduction[t] = sim.MispReduction(base, res)
			pa.speedup[t] = sim.Speedup(base, res)
		}

		// Profiles: the Whisper/BranchNet profile uses the full length
		// series over hard branches; the ROMBF profile covers every
		// mispredicting branch at the raw 8-bit history (the original
		// methodology).
		var hardProf, rombfProf *profiler.Profile
		var err error
		if want[TechWhisper] || want[TechBranchNet8] || want[TechBranchNet32] || want[TechBranchNetUnl] {
			hardProf, err = opt.collectProfile(train, 64, profiler.DefaultOptions())
			if err != nil {
				return pa, err
			}
		}
		if want[Tech4bROMBF] || want[Tech8bROMBF] {
			ropt := profiler.DefaultOptions()
			ropt.Lengths = []int{8}
			ropt.MaxHard = 0
			rombfProf, err = opt.collectProfile(train, 64, ropt)
			if err != nil {
				return pa, err
			}
		}

		for _, n := range []int{4, 8} {
			t := Tech4bROMBF
			if n == 8 {
				t = Tech8bROMBF
			}
			if !want[t] {
				continue
			}
			cfg := rombf.DefaultConfig()
			cfg.N = n
			tr, err := rombf.Train(rombfProf, cfg)
			if err != nil {
				return pa, err
			}
			pa.trainTime[t] += tr.Duration
			record(t, measure(u, test, rombf.NewPredictor(sim.Tage64KB(), tr.Hints, n)))
		}

		for _, v := range []struct {
			t    Technique
			name string
		}{
			{TechBranchNet8, "8KB"},
			{TechBranchNet32, "32KB"},
			{TechBranchNetUnl, "unlimited"},
		} {
			if !want[v.t] {
				continue
			}
			cfg, err := branchnet.Variant(v.name)
			if err != nil {
				return pa, err
			}
			tr, err := branchnet.Train(hardProf, train.Open, cfg)
			if err != nil {
				return pa, err
			}
			pa.trainTime[v.t] += tr.Duration
			record(v.t, measure(u, test, branchnet.NewPredictor(sim.Tage64KB(), tr.Models, v.name)))
		}

		if want[TechWhisper] {
			b, err := opt.buildWhisper(app)
			if err != nil {
				return pa, err
			}
			pa.trainTime[TechWhisper] += b.Train.Duration
			res, _ := measureBuild(u, b, test, 64)
			record(TechWhisper, res)
		}
		if want[TechMTAGE] {
			record(TechMTAGE, measure(u, test, mtage.New()))
		}
		if want[TechIdeal] {
			record(TechIdeal, measure(u, test, &bpu.Oracle{}))
		}
		return pa, nil
	})
	if err != nil {
		return nil, err
	}

	c := &Comparison{
		Apps:       appNames(opt.Apps),
		Techniques: techniques,
		Reduction:  map[Technique][]float64{},
		Speedup:    map[Technique][]float64{},
		TrainTime:  map[Technique]time.Duration{},
	}
	for _, pa := range per {
		c.BaseMPKI = append(c.BaseMPKI, pa.baseMPKI)
		for _, t := range techniques {
			if red, ok := pa.reduction[t]; ok {
				c.Reduction[t] = append(c.Reduction[t], red)
				c.Speedup[t] = append(c.Speedup[t], pa.speedup[t])
			}
		}
		// Only trained techniques carry entries; summing per key keeps
		// untrained ones absent so TrainTimeTable skips them.
		for t, d := range pa.trainTime {
			c.TrainTime[t] += d
		}
	}
	return c, nil
}

// ReductionTable renders the misprediction-reduction comparison
// (Fig 13, or Fig 4 when run with PriorTechniques).
func (c *Comparison) ReductionTable(title string) *stats.Table {
	cols := []string{"app"}
	for _, t := range c.Techniques {
		cols = append(cols, string(t))
	}
	tb := stats.NewTable(title, cols...)
	for i, app := range c.Apps {
		cells := []string{app}
		for _, t := range c.Techniques {
			cells = append(cells, pct(c.Reduction[t][i]))
		}
		tb.AddRow(cells...)
	}
	cells := []string{"Avg"}
	for _, t := range c.Techniques {
		cells = append(cells, pct(stats.Mean(c.Reduction[t])))
	}
	tb.AddRow(cells...)
	return tb
}

// SpeedupTable renders the IPC-speedup comparison (Fig 12).
func (c *Comparison) SpeedupTable(title string) *stats.Table {
	cols := []string{"app"}
	for _, t := range c.Techniques {
		cols = append(cols, string(t))
	}
	tb := stats.NewTable(title, cols...)
	for i, app := range c.Apps {
		cells := []string{app}
		for _, t := range c.Techniques {
			cells = append(cells, pct(c.Speedup[t][i]))
		}
		tb.AddRow(cells...)
	}
	cells := []string{"Avg"}
	for _, t := range c.Techniques {
		cells = append(cells, pct(stats.Mean(c.Speedup[t])))
	}
	tb.AddRow(cells...)
	return tb
}

// TrainTimeTable renders Fig 16: total offline training time per
// technique across the configured apps (log-scale in the paper; raw
// seconds here).
func (c *Comparison) TrainTimeTable() *stats.Table {
	tb := stats.NewTable("Fig 16: offline training time (seconds, all apps)",
		"technique", "seconds")
	for _, t := range c.Techniques {
		if d, ok := c.TrainTime[t]; ok {
			tb.AddRow(string(t), stats.FormatFloat(d.Seconds(), 3))
		}
	}
	return tb
}

// Fig4 runs the prior-technique comparison (paper Fig 4).
func Fig4(opt Options) (*Comparison, error) {
	return RunComparison(opt, PriorTechniques)
}

// Fig12and13 runs the full comparison behind Figs 12, 13 and 16.
func Fig12and13(opt Options) (*Comparison, error) {
	return RunComparison(opt, AllTechniques)
}

// AvgReduction returns a technique's mean reduction.
func (c *Comparison) AvgReduction(t Technique) float64 { return stats.Mean(c.Reduction[t]) }

// AvgSpeedup returns a technique's mean speedup.
func (c *Comparison) AvgSpeedup(t Technique) float64 { return stats.Mean(c.Speedup[t]) }
