package experiments

// The cross-workload hint-transfer study: train Whisper hints on every
// application A, then apply them to every application B and measure the
// misprediction reduction B sees. The paper motivates per-application
// profiles (§III); this driver quantifies the cost of getting that
// wrong. Because the synthetic apps share a code layout (functions
// allocated from the same base address), their branch PCs partially
// collide, so foreign hints attach to real branches of the test app —
// transfer quality then tracks how similar the two apps' branch
// footprints are, which the driver reports alongside each cell as a
// static (PC-set Jaccard) and dynamic (execution-frequency histogram
// intersection) overlap.

import (
	"fmt"
	"sort"

	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/runner"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/stats"
)

// Transfer holds the A×B cross-workload study. All matrices are indexed
// [train][test] in Apps order.
type Transfer struct {
	Apps []string
	// BaseMPKI is the 64KB TAGE-SC-L baseline per test app (TestInput).
	BaseMPKI []float64
	// Reduction[a][b] is the misprediction reduction test app b sees
	// under hints trained on app a. The diagonal reproduces the
	// single-workload comparison (RunComparison's Whisper column)
	// bit for bit: it is computed by the identical memoized calls.
	Reduction [][]float64
	// StaticOverlap[a][b] is the Jaccard index of the two apps'
	// conditional-branch PC sets on the TrainInput window; symmetric,
	// in [0, 1], 1 on the diagonal.
	StaticOverlap [][]float64
	// DynamicOverlap[a][b] is the histogram intersection of the two
	// apps' normalized conditional-branch execution frequencies over
	// the same window (profiler.Overlap); symmetric, in [0, 1], 1 on
	// the diagonal.
	DynamicOverlap [][]float64
}

// jaccard is the Jaccard index |A∩B| / |A∪B| of the two profiles'
// conditional-branch PC sets.
func jaccard(a, b *profiler.Profile) float64 {
	if len(a.Stats) == 0 && len(b.Stats) == 0 {
		return 0
	}
	inter := 0
	for pc := range a.Stats {
		if _, ok := b.Stats[pc]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(a.Stats)+len(b.Stats)-inter)
}

// RunTransfer trains hints on each configured app and evaluates them on
// every configured app (the A×B matrix). Profiles and trained bundles go
// through the shared memo and disk-cache layers, so a warm rerun does no
// profiling or training work, and each (train, test) evaluation is one
// journaled unit on the engine. The overlaps are computed from the
// train-window profiles the builds already hold.
func RunTransfer(opt Options) (*Transfer, error) {
	opt = opt.normalize()
	if err := opt.checkApps(); err != nil {
		return nil, err
	}
	n := len(opt.Apps)

	// The A×B evaluation, one unit per (train, test) pair. The builds and
	// baselines are memoized, so concurrent pairs sharing a train app (or
	// a test baseline) compute each once.
	type cell struct {
		baseMPKI  float64
		reduction float64
		train     *profiler.Profile // the train app's train-window profile
	}
	pool := opt.pool()
	cells, err := runner.Map(pool, n*n, func(k int, u *runner.Unit) (cell, error) {
		ai, bi := k/n, k%n
		train, test := opt.Apps[ai], opt.Apps[bi]
		u.Label = fmt.Sprintf("transfer/%s->%s", train.Name(), test.Name())
		b, err := opt.buildWhisper(train)
		if err != nil {
			return cell{}, err
		}
		base := opt.runBaseline(test, opt.TestInput)
		res, _ := opt.runWhisper(b, test, opt.TestInput)
		u.AddInstrs(base.Instrs + res.Instrs)
		u.AddRecords(base.Records + res.Records)
		return cell{baseMPKI: base.MPKI(), reduction: sim.MispReduction(base, res), train: b.Profile}, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Transfer{
		Apps:           appNames(opt.Apps),
		BaseMPKI:       make([]float64, n),
		Reduction:      make([][]float64, n),
		StaticOverlap:  make([][]float64, n),
		DynamicOverlap: make([][]float64, n),
	}
	for a := 0; a < n; a++ {
		t.Reduction[a] = make([]float64, n)
		t.StaticOverlap[a] = make([]float64, n)
		t.DynamicOverlap[a] = make([]float64, n)
		for b := 0; b < n; b++ {
			pa, pb := cells[a*n].train, cells[b*n].train
			t.Reduction[a][b] = cells[a*n+b].reduction
			t.StaticOverlap[a][b] = jaccard(pa, pb)
			t.DynamicOverlap[a][b] = profiler.Overlap(pa, pb)
		}
	}
	for b := 0; b < n; b++ {
		t.BaseMPKI[b] = cells[b].baseMPKI // row 0 covers every test app
	}
	return t, nil
}

// ReductionTable renders the A×B misprediction-reduction matrix: rows
// are the training apps, columns the test apps, "self" the diagonal.
func (t *Transfer) ReductionTable() *stats.Table {
	cols := []string{"train\\test"}
	cols = append(cols, t.Apps...)
	tb := stats.NewTable("Hint transfer: misprediction reduction on test app (%), hints trained on row app", cols...)
	for a, name := range t.Apps {
		cells := []string{name}
		for b := range t.Apps {
			cells = append(cells, pct(t.Reduction[a][b]))
		}
		tb.AddRow(cells...)
	}
	return tb
}

// OverlapTable renders the pairwise branch-footprint overlap as
// "static/dynamic" cells (both fractions of 1).
func (t *Transfer) OverlapTable() *stats.Table {
	cols := []string{"app"}
	cols = append(cols, t.Apps...)
	tb := stats.NewTable("Branch-footprint overlap (static Jaccard / dynamic histogram intersection)", cols...)
	for a, name := range t.Apps {
		cells := []string{name}
		for b := range t.Apps {
			cells = append(cells, fmt.Sprintf("%s/%s",
				stats.FormatFloat(t.StaticOverlap[a][b], 2),
				stats.FormatFloat(t.DynamicOverlap[a][b], 2)))
		}
		tb.AddRow(cells...)
	}
	return tb
}

// SummaryTable renders one row per (train, test) pair sorted by
// decreasing transfer quality: the reduction kept relative to
// self-training, next to the overlap that predicts it. Diagonal pairs
// are omitted (their ratio is 1 by construction).
func (t *Transfer) SummaryTable() *stats.Table {
	type pair struct {
		a, b int
		kept float64
	}
	var pairs []pair
	for a := range t.Apps {
		for b := range t.Apps {
			if a == b {
				continue
			}
			kept := 0.0
			if self := t.Reduction[b][b]; self != 0 {
				kept = t.Reduction[a][b] / self
			}
			pairs = append(pairs, pair{a: a, b: b, kept: kept})
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].kept > pairs[j].kept })
	tb := stats.NewTable("Hint transfer: cross-training summary (best to worst)",
		"train->test", "reduction", "self", "kept", "static-ovl", "dynamic-ovl")
	for _, p := range pairs {
		tb.AddRow(
			t.Apps[p.a]+"->"+t.Apps[p.b],
			pct(t.Reduction[p.a][p.b]),
			pct(t.Reduction[p.b][p.b]),
			stats.FormatFloat(p.kept, 2),
			stats.FormatFloat(t.StaticOverlap[p.a][p.b], 2),
			stats.FormatFloat(t.DynamicOverlap[p.a][p.b], 2),
		)
	}
	return tb
}
