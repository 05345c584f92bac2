package experiments

import (
	"slices"
	"testing"

	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/stats"
	"github.com/whisper-sim/whisper/internal/workload"
)

// TestSharedPassSweepsMatchPerPointRuns locks Figs 22 and 23, which
// measure every warm-up and every window length in shared passes, to
// the per-point loop they replace: one separate baseline run and one
// separate Whisper run per (point, app). The loop is kept inline as
// the oracle. The lengths come unsorted and repeated, and both
// parallelism settings must agree with it bit for bit.
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

		r22, err := Fig22(opt, fracs)
		if err != nil {
			t.Fatal(err)
		}
		if want := fig22PerPoint(t, opt, fracs); !slices.Equal(r22.Reduction, want) {
			t.Errorf("-j %d: Fig 22 reductions %v, per-point loop %v", j, r22.Reduction, want)
		}

		r23, err := Fig23(opt, counts)
		if err != nil {
			t.Fatal(err)
		}
		if want := fig23PerPoint(t, opt, counts); !slices.Equal(r23.Reduction, want) {
			t.Errorf("-j %d: Fig 23 reductions %v, per-point loop %v", j, r23.Reduction, want)
		}
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
// Whisper run per (window length, app), each over its own window.
func fig23PerPoint(t *testing.T, opt Options, counts []int) []float64 {
	t.Helper()
	var out []float64
	for _, n := range counts {
		popt := pipeline.Options{WarmupRecords: uint64(float64(n) * warmupFrac)}
		var reds []float64
		for _, app := range opt.Apps {
			b, err := opt.build(appWindow(app, trainInput, n), 64, core.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			test := appWindow(app, testInput, n)
			base := pipeline.Run(test.Open(), sim.TageSized(64)(), popt)
			res, _ := b.Run(test, sim.TageSized(64)(), popt)
			reds = append(reds, sim.MispReduction(base, res))
		}
		out = append(out, stats.Mean(reds))
	}
	return out
}
