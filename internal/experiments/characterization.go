package experiments

// Drivers for the paper's §II characterization: the limit study (Fig 1),
// the baseline MPKI (Fig 2), the misprediction taxonomy (Fig 3), the
// misprediction CDF contrast (Fig 5), and the history-length distribution
// (Fig 6).

import (
	"fmt"
	"sort"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/classify"
	"github.com/whisper-sim/whisper/internal/runner"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/stats"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
)

// Fig1Result is the limit study: ideal-direction-predictor speedup over
// the 64KB TAGE-SC-L baseline, decomposed into avoided misprediction
// stalls and avoided frontend stalls (paper Fig 1).
type Fig1Result struct {
	Apps []string
	// Total, MispStall, FrontendStall are per-app speedup fractions.
	Total, MispStall, FrontendStall []float64
	// BaseMPKI / BaseIPC record the baseline for reuse (Fig 2).
	BaseMPKI, BaseIPC []float64
}

// Fig1 runs the limit study.
func Fig1(opt Options) (*Fig1Result, error) {
	opt = opt.normalize()
	if err := opt.checkApps(); err != nil {
		return nil, err
	}
	type fig1App struct {
		total, misp, fe, mpki, ipc float64
	}
	per, err := mapApps(opt, "fig1", func(i int, app *workload.App, u *runner.Unit) (fig1App, error) {
		base := opt.runBaseline(app, opt.TrainInput)
		ideal := opt.runIdeal(app, opt.TrainInput)
		u.AddInstrs(base.Instrs + ideal.Instrs)
		u.AddRecords(base.Records + ideal.Records)
		// Decomposition: cycles saved in each bucket relative to the
		// ideal run's cycle count (so the parts sum to the total).
		mispSaved := float64(base.SquashCycles) - float64(ideal.SquashCycles)
		feSaved := float64(base.FrontendCycles) - float64(ideal.FrontendCycles)
		return fig1App{
			total: sim.Speedup(base, ideal),
			misp:  mispSaved / float64(ideal.Cycles),
			fe:    feSaved / float64(ideal.Cycles),
			mpki:  base.MPKI(),
			ipc:   base.IPC(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	r := &Fig1Result{Apps: appNames(opt.Apps)}
	for _, pa := range per {
		r.Total = append(r.Total, pa.total)
		r.MispStall = append(r.MispStall, pa.misp)
		r.FrontendStall = append(r.FrontendStall, pa.fe)
		r.BaseMPKI = append(r.BaseMPKI, pa.mpki)
		r.BaseIPC = append(r.BaseIPC, pa.ipc)
	}
	return r, nil
}

// Table renders the figure's series.
func (r *Fig1Result) Table() *stats.Table {
	t := stats.NewTable(
		"Fig 1: ideal branch predictor speedup over 64KB TAGE-SC-L (%)",
		"app", "misprediction-stalls", "frontend-stalls", "total")
	for i, app := range r.Apps {
		t.AddRow(app, pct(r.MispStall[i]), pct(r.FrontendStall[i]), pct(r.Total[i]))
	}
	t.AddRow("Avg", pct(stats.Mean(r.MispStall)), pct(stats.Mean(r.FrontendStall)),
		pct(stats.Mean(r.Total)))
	return t
}

// Fig2Result is the per-app baseline branch-MPKI (paper Fig 2).
type Fig2Result struct {
	Apps []string
	MPKI []float64
}

// Fig2 measures baseline MPKI.
func Fig2(opt Options) (*Fig2Result, error) {
	opt = opt.normalize()
	if err := opt.checkApps(); err != nil {
		return nil, err
	}
	mpki, err := mapApps(opt, "fig2", func(i int, app *workload.App, u *runner.Unit) (float64, error) {
		base := opt.runBaseline(app, opt.TrainInput)
		u.AddInstrs(base.Instrs)
		u.AddRecords(base.Records)
		return base.MPKI(), nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Apps: appNames(opt.Apps), MPKI: mpki}, nil
}

// Table renders the figure.
func (r *Fig2Result) Table() *stats.Table {
	t := stats.NewTable("Fig 2: branch-MPKI under 64KB TAGE-SC-L", "app", "MPKI")
	for i, app := range r.Apps {
		t.AddRow(app, stats.FormatFloat(r.MPKI[i], 2))
	}
	t.AddRow("Avg", stats.FormatFloat(stats.Mean(r.MPKI), 2))
	return t
}

// Fig3Result is the misprediction class breakdown (paper Fig 3).
type Fig3Result struct {
	Apps []string
	// Fractions[app][class] with classes indexed by classify.Class.
	Fractions [][4]float64
}

// Fig3 classifies every baseline misprediction.
func Fig3(opt Options) (*Fig3Result, error) {
	opt = opt.normalize()
	if err := opt.checkApps(); err != nil {
		return nil, err
	}
	fractions, err := mapApps(opt, "fig3", func(i int, app *workload.App, u *runner.Unit) ([4]float64, error) {
		counts := classify.DefaultClassifier().Run(
			app.Stream(opt.TrainInput, opt.Records), tage.New(tage.DefaultConfig()))
		var fr [4]float64
		for c := classify.Compulsory; c <= classify.DataDependent; c++ {
			fr[int(c)] = counts.Fraction(c)
		}
		return fr, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig3Result{Apps: appNames(opt.Apps), Fractions: fractions}, nil
}

// Table renders the figure.
func (r *Fig3Result) Table() *stats.Table {
	t := stats.NewTable("Fig 3: breakdown of branch mispredictions (%)",
		"app", "Compulsory", "Capacity", "Conflict", "Conditional-on-data")
	var avg [4]float64
	for i, app := range r.Apps {
		f := r.Fractions[i]
		t.AddRow(app, pct(f[0]), pct(f[1]), pct(f[2]), pct(f[3]))
		for k := range avg {
			avg[k] += f[k]
		}
	}
	n := float64(len(r.Apps))
	t.AddRow("Avg", pct(avg[0]/n), pct(avg[1]/n), pct(avg[2]/n), pct(avg[3]/n))
	return t
}

// Fig5Result contrasts misprediction concentration: how many static
// branches cover given shares of all mispredictions (paper Fig 5).
type Fig5Result struct {
	Apps []string
	// Branches is the number of static branches with >= 1 misprediction.
	Branches []int
	// NeededFor[i][k] is the branch count covering {25,50,75,90}% of
	// mispredictions for app i.
	NeededFor [][4]int
	// Top50Share is the misprediction share of the top 50 branches.
	Top50Share []float64
}

// Fig5Quantiles are the CDF points reported by the driver.
var Fig5Quantiles = [4]float64{0.25, 0.50, 0.75, 0.90}

// Fig5 computes the misprediction CDF statistics for the given apps
// (callers pass data-center and SPEC-like app sets separately to
// reproduce the figure's two panels).
func Fig5(opt Options) (*Fig5Result, error) {
	opt = opt.normalize()
	if err := opt.checkApps(); err != nil {
		return nil, err
	}
	type fig5App struct {
		branches int
		needed   [4]int
		top50    float64
	}
	per, err := mapApps(opt, "fig5", func(ai int, app *workload.App, u *runner.Unit) (fig5App, error) {
		misp := map[uint64]uint64{}
		var total uint64
		cb := bpu.NewCondBlocks(app.Stream(opt.TrainInput, opt.Records), tage.New(tage.DefaultConfig()))
		for cb.Next() {
			for _, n := range cb.Block.Instrs[:cb.Block.N] {
				u.AddInstrs(uint64(n))
			}
			u.AddRecords(uint64(cb.Block.N))
			for k, pc := range cb.PC[:cb.N] {
				if cb.Miss[k] {
					misp[pc]++
					total++
				}
			}
		}
		counts := make([]uint64, 0, len(misp))
		for _, c := range misp {
			counts = append(counts, c)
		}
		sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
		var needed [4]int
		var cum uint64
		qi := 0
		var top50 uint64
		for i, c := range counts {
			cum += c
			if i < 50 {
				top50 += c
			}
			for qi < len(Fig5Quantiles) && float64(cum) >= Fig5Quantiles[qi]*float64(total) {
				needed[qi] = i + 1
				qi++
			}
		}
		for ; qi < len(Fig5Quantiles); qi++ {
			needed[qi] = len(counts)
		}
		share := 0.0
		if total > 0 {
			share = float64(top50) / float64(total)
		}
		return fig5App{branches: len(counts), needed: needed, top50: share}, nil
	})
	if err != nil {
		return nil, err
	}
	r := &Fig5Result{Apps: appNames(opt.Apps)}
	for _, pa := range per {
		r.Branches = append(r.Branches, pa.branches)
		r.NeededFor = append(r.NeededFor, pa.needed)
		r.Top50Share = append(r.Top50Share, pa.top50)
	}
	return r, nil
}

// Table renders the figure.
func (r *Fig5Result) Table() *stats.Table {
	t := stats.NewTable(
		"Fig 5: misprediction CDF across static branches (branches needed per share)",
		"app", "mispredicting branches", "25%", "50%", "75%", "90%", "top-50 share %")
	for i, app := range r.Apps {
		n := r.NeededFor[i]
		t.AddRow(app, fmt.Sprintf("%d", r.Branches[i]),
			fmt.Sprintf("%d", n[0]), fmt.Sprintf("%d", n[1]),
			fmt.Sprintf("%d", n[2]), fmt.Sprintf("%d", n[3]),
			pct(r.Top50Share[i]))
	}
	return t
}

// Fig6Buckets are the history-length buckets of the paper's Fig 6.
var Fig6Buckets = []struct {
	Label    string
	Min, Max int
}{
	{"1-8", 1, 8}, {"9-16", 9, 16}, {"17-32", 17, 32}, {"33-64", 33, 64},
	{"65-128", 65, 128}, {"129-256", 129, 256}, {"257-512", 257, 512},
	{"513-1024", 513, 1024}, {"1024+", 1025, 1 << 30},
}

// Fig6Result distributes baseline mispredictions among the history
// lengths required to predict the branch (paper Fig 6). The required
// length comes from the workload's ground truth: loops need their trip
// count, short-history branches their window, hashed-history branches
// their fold window; data-dependent branches correlate with no history
// and land in the 1024+ bucket.
type Fig6Result struct {
	Apps []string
	// Shares[app][bucket] are misprediction fractions.
	Shares [][]float64
}

// Fig6 computes the distribution.
func Fig6(opt Options) (*Fig6Result, error) {
	opt = opt.normalize()
	if err := opt.checkApps(); err != nil {
		return nil, err
	}
	warmup := uint64(float64(opt.Records) * opt.WarmupFrac)
	allShares, err := mapApps(opt, "fig6", func(ai int, app *workload.App, u *runner.Unit) ([]float64, error) {
		shares := make([]float64, len(Fig6Buckets))
		var total float64
		var seen uint64
		cb := bpu.NewCondBlocks(app.Stream(opt.TrainInput, opt.Records), tage.New(tage.DefaultConfig()))
		for cb.Next() {
			blk := cb.Block
			u.AddRecords(uint64(blk.N))
			k := 0 // the next conditional record's index in cb
			for i, kind := range blk.Kind[:blk.N] {
				u.AddInstrs(uint64(blk.Instrs[i]))
				seen++
				if kind != trace.CondBranch {
					continue
				}
				misp := cb.Miss[k]
				k++
				if !misp || seen <= warmup {
					continue
				}
				br, ok := app.Branch(blk.PC[i])
				if !ok {
					continue
				}
				l := requiredLength(br)
				for bi, b := range Fig6Buckets {
					if l >= b.Min && l <= b.Max {
						shares[bi]++
						break
					}
				}
				total++
			}
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
	return &Fig6Result{Apps: appNames(opt.Apps), Shares: allShares}, nil
}

// requiredLength maps a ground-truth behaviour to the history depth a
// predictor must correlate with.
func requiredLength(br workload.Branch) int {
	switch br.Class {
	case workload.Loop:
		return br.Trip + 1
	case workload.ShortHist:
		return br.MonoN
	case workload.LongHist, workload.ComplexHist:
		return br.HistLen
	case workload.Biased:
		return 1
	default: // DataDep: no history length predicts it
		return 1 << 20
	}
}

// Table renders the figure.
func (r *Fig6Result) Table() *stats.Table {
	cols := []string{"app"}
	for _, b := range Fig6Buckets {
		cols = append(cols, b.Label)
	}
	t := stats.NewTable("Fig 6: mispredictions by required history length (%)", cols...)
	avg := make([]float64, len(Fig6Buckets))
	for i, app := range r.Apps {
		cells := []string{app}
		for bi, v := range r.Shares[i] {
			cells = append(cells, pct(v))
			avg[bi] += v
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
