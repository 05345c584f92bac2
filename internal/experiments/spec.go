package experiments

// Spec-driven drivers: simulate a declarative workload scenario
// (internal/spec) phase by phase, and the hint-staleness study — how
// much of Whisper's benefit survives when the hints were trained
// phases ago and the workload has drifted since (the question behind
// the paper's §V-C input-sensitivity results, extended to an explicit
// timeline).

import (
	"fmt"
	"sort"

	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/runner"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/spec"
	"github.com/whisper-sim/whisper/internal/stats"
)

// evalPhaseWith measures phase evalPhase with hints trained on phase
// trainPhase: a fresh Whisper runtime (the Runtime is stateful) over a
// fresh baseline predictor. Each training phase's profile/train/inject
// work sits behind the shared memos, keyed on the *Scenario identity
// plus the phase; the disk cache keys on the spec's content hash, so a
// warm cache survives re-parsing the same spec (or the same spec in a
// different format) in another process.
func (o Options) evalPhaseWith(u *runner.Unit, sc *spec.Scenario, trainPhase, evalPhase int) (pipeline.Result, *core.Runtime, error) {
	b, err := o.build(sim.PhaseWindow(sc, trainPhase), 64, core.DefaultParams())
	if err != nil {
		return pipeline.Result{}, nil, err
	}
	res, rt := measureBuild(u, b, sim.PhaseWindow(sc, evalPhase), 64)
	return res, rt, nil
}

// hintCoverage is the fraction of conditional executions served from
// the hint buffer.
func hintCoverage(res pipeline.Result, rt *core.Runtime) float64 {
	if res.CondExecs == 0 {
		return 0
	}
	return float64(rt.HintPredictions) / float64(res.CondExecs)
}

// --- spec summary ------------------------------------------------------

// SpecSummary renders the compiled scenario itself — the resolved
// timeline the simulation drivers will execute. It runs no simulation,
// which is what makes it the -validate rendering.
func SpecSummary(sc *spec.Scenario) *stats.Table {
	t := stats.NewTable(fmt.Sprintf("Spec %s: %d phases, %d records (hash %.12s)",
		sc.Name(), len(sc.Phases), sc.TotalRecords(), sc.Hash()),
		"phase", "start", "records", "mix", "arrival", "drift")
	for i := range sc.Phases {
		ph := &sc.Phases[i]
		t.AddRow(ph.Name,
			fmt.Sprintf("%d", ph.Start),
			fmt.Sprintf("%d", ph.Records),
			describeMix(sc, ph),
			describeArrival(&ph.Arrival),
			describeDrift(&ph.Drift))
	}
	return t
}

func describeMix(sc *spec.Scenario, ph *spec.ScenarioPhase) string {
	mix := ""
	for k, ai := range ph.AppIdx {
		if k > 0 {
			mix += ","
		}
		prev := 0.0
		if k > 0 {
			prev = ph.Cum[k-1]
		}
		mix += fmt.Sprintf("%s:%s", sc.Apps[ai].App.Name(), pct(ph.Cum[k]-prev))
	}
	return mix
}

func describeArrival(a *spec.Arrival) string {
	if a.Process == spec.ArrivalBursty {
		return fmt.Sprintf("%s(burst=%d,stick=%g)", a.Process, a.Burst, a.Stickiness)
	}
	return fmt.Sprintf("%s(burst=%d)", a.Process, a.Burst)
}

func describeDrift(d *spec.Drift) string {
	switch d.Kind {
	case spec.DriftRamp:
		return fmt.Sprintf("ramp %d->%d", d.From, d.To)
	case spec.DriftFlip:
		return fmt.Sprintf("flip %d->%d at %g", d.From, d.To, d.At)
	case spec.DriftDiurnal:
		return fmt.Sprintf("diurnal %d<->%d period %d", d.From, d.To, d.Period)
	default:
		return fmt.Sprintf("none (input %d)", d.From)
	}
}

// --- per-phase Whisper driver -----------------------------------------

// SpecPhasesResult measures each scenario phase under the 64KB
// TAGE-SC-L baseline and under Whisper trained on that same phase —
// the best case every staleness cadence is compared against.
type SpecPhasesResult struct {
	Name, Hash string
	Phases     []string
	Records    []int
	// BaseMPKI / WhisperMPKI are per-phase; Reduction is the fractional
	// misprediction reduction and Coverage the hint-served fraction of
	// conditional executions.
	BaseMPKI, WhisperMPKI []float64
	Reduction, Coverage   []float64
}

// SpecPhases runs the per-phase study. Phases are independent
// simulation units (PhaseStream is self-contained), so they fan out
// over -j workers with byte-identical results at any setting.
func SpecPhases(opt Options, sc *spec.Scenario) (*SpecPhasesResult, error) {
	type row struct {
		base, wh, red, cover float64
	}
	rows, err := runner.Map(opt.pool(), len(sc.Phases), func(i int, u *runner.Unit) (row, error) {
		u.Label = "spec/" + sc.Phases[i].Name
		base := baseline(u, sim.PhaseWindow(sc, i), 64)
		res, rt, err := opt.evalPhaseWith(u, sc, i, i)
		if err != nil {
			return row{}, err
		}
		return row{
			base:  base.MPKI(),
			wh:    res.MPKI(),
			red:   sim.MispReduction(base, res),
			cover: hintCoverage(res, rt),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	r := &SpecPhasesResult{Name: sc.Name(), Hash: sc.Hash()}
	for i := range sc.Phases {
		r.Phases = append(r.Phases, sc.Phases[i].Name)
		r.Records = append(r.Records, sc.Phases[i].Records)
		r.BaseMPKI = append(r.BaseMPKI, rows[i].base)
		r.WhisperMPKI = append(r.WhisperMPKI, rows[i].wh)
		r.Reduction = append(r.Reduction, rows[i].red)
		r.Coverage = append(r.Coverage, rows[i].cover)
	}
	return r, nil
}

// Table renders the per-phase comparison.
func (r *SpecPhasesResult) Table() *stats.Table {
	t := stats.NewTable(fmt.Sprintf("Spec %s: per-phase Whisper vs 64KB TAGE-SC-L", r.Name),
		"phase", "records", "TAGE MPKI", "Whisper MPKI", "reduction %", "coverage %")
	for i, ph := range r.Phases {
		t.AddRow(ph, fmt.Sprintf("%d", r.Records[i]),
			stats.FormatFloat(r.BaseMPKI[i], 3), stats.FormatFloat(r.WhisperMPKI[i], 3),
			pct(r.Reduction[i]), pct(r.Coverage[i]))
	}
	t.AddRow("Avg", "", stats.FormatFloat(stats.Mean(r.BaseMPKI), 3),
		stats.FormatFloat(stats.Mean(r.WhisperMPKI), 3),
		pct(stats.Mean(r.Reduction)), pct(stats.Mean(r.Coverage)))
	return t
}

// --- staleness driver --------------------------------------------------

// StalenessResult reports how Whisper's benefit degrades as hints age
// across a drifting scenario, and how much each retraining cadence
// recovers. For cadence c, the hints applied during phase p were
// trained at phase p-(p mod c); cadence 0 trains once at phase 0 and
// never again (maximally stale), cadence 1 retrains every phase
// (maximally fresh).
type StalenessResult struct {
	Name, Hash string
	Phases     []string
	// Cadences are the evaluated cadences, ascending; 0 and 1 are
	// always present (they anchor the recovery metric).
	Cadences []int
	// BaseMPKI is the per-phase 64KB TAGE-SC-L reference.
	BaseMPKI []float64
	// MPKI[c] and Coverage[c] are per-phase series for cadence c.
	MPKI, Coverage map[int][]float64
	// Recovery[c] is the mean fraction of the stale-to-fresh MPKI gap
	// that cadence c closes, over the phases where a gap exists:
	// (stale - c) / (stale - fresh). 0 = no better than never
	// retraining, 1 = as good as retraining every phase.
	Recovery map[int]float64
}

// Staleness runs the study. The (cadence, phase) evaluation grid fans
// out as independent units; each distinct training phase's
// profile/train/inject work is computed once behind the memos no
// matter how many cadences reuse it.
func Staleness(opt Options, sc *spec.Scenario) (*StalenessResult, error) {
	seen := map[int]bool{0: true, 1: true}
	for _, c := range sc.Spec.Staleness.Cadences {
		seen[c] = true
	}
	cads := make([]int, 0, len(seen))
	for c := range seen {
		cads = append(cads, c)
	}
	sort.Ints(cads)

	np := len(sc.Phases)
	type job struct {
		cad, phase int
		baseline   bool
	}
	var jobs []job
	for p := 0; p < np; p++ {
		jobs = append(jobs, job{phase: p, baseline: true})
	}
	for _, c := range cads {
		for p := 0; p < np; p++ {
			jobs = append(jobs, job{cad: c, phase: p})
		}
	}
	type cell struct {
		mpki, cover float64
	}
	cells, err := runner.Map(opt.pool(), len(jobs), func(i int, u *runner.Unit) (cell, error) {
		j := jobs[i]
		name := sc.Phases[j.phase].Name
		if j.baseline {
			u.Label = "staleness/base/" + name
			base := baseline(u, sim.PhaseWindow(sc, j.phase), 64)
			return cell{mpki: base.MPKI()}, nil
		}
		u.Label = fmt.Sprintf("staleness/c%d/%s", j.cad, name)
		res, rt, err := opt.evalPhaseWith(u, sc, trainPhaseFor(j.phase, j.cad), j.phase)
		if err != nil {
			return cell{}, err
		}
		return cell{mpki: res.MPKI(), cover: hintCoverage(res, rt)}, nil
	})
	if err != nil {
		return nil, err
	}

	r := &StalenessResult{
		Name: sc.Name(), Hash: sc.Hash(), Cadences: cads,
		MPKI: map[int][]float64{}, Coverage: map[int][]float64{}, Recovery: map[int]float64{},
	}
	for p := 0; p < np; p++ {
		r.Phases = append(r.Phases, sc.Phases[p].Name)
		r.BaseMPKI = append(r.BaseMPKI, cells[p].mpki)
	}
	for k, c := range cads {
		off := np * (1 + k)
		for p := 0; p < np; p++ {
			r.MPKI[c] = append(r.MPKI[c], cells[off+p].mpki)
			r.Coverage[c] = append(r.Coverage[c], cells[off+p].cover)
		}
	}
	for _, c := range cads {
		r.Recovery[c] = meanRecovery(r.MPKI[0], r.MPKI[1], r.MPKI[c])
	}
	return r, nil
}

// trainPhaseFor maps (phase, cadence) to the phase whose training pass
// produced the hints in effect: the most recent retraining boundary.
func trainPhaseFor(phase, cadence int) int {
	if cadence == 0 {
		return 0
	}
	return phase - phase%cadence
}

// meanRecovery averages the per-phase recovered fraction of the
// stale-to-fresh MPKI gap, counting only phases where a gap exists (on
// gapless phases every cadence is equivalent and the ratio is 0/0).
func meanRecovery(stale, fresh, at []float64) float64 {
	var sum float64
	var n int
	for p := range stale {
		gap := stale[p] - fresh[p]
		if gap <= 1e-9 {
			continue
		}
		sum += (stale[p] - at[p]) / gap
		n++
	}
	if n == 0 {
		return 1 // no degradation anywhere: every cadence is already fresh
	}
	return sum / float64(n)
}

// Table renders per-phase MPKI under every cadence plus the recovery
// summary row.
func (r *StalenessResult) Table() *stats.Table {
	cols := []string{"phase", "TAGE"}
	for _, c := range r.Cadences {
		switch c {
		case 0:
			cols = append(cols, "stale (c=0)")
		case 1:
			cols = append(cols, "fresh (c=1)")
		default:
			cols = append(cols, fmt.Sprintf("c=%d", c))
		}
	}
	t := stats.NewTable(fmt.Sprintf("Staleness %s: MPKI by retraining cadence (phases between retrains)", r.Name), cols...)
	for p, ph := range r.Phases {
		cells := []string{ph, stats.FormatFloat(r.BaseMPKI[p], 3)}
		for _, c := range r.Cadences {
			cells = append(cells, stats.FormatFloat(r.MPKI[c][p], 3))
		}
		t.AddRow(cells...)
	}
	avg := []string{"Avg", stats.FormatFloat(stats.Mean(r.BaseMPKI), 3)}
	for _, c := range r.Cadences {
		avg = append(avg, stats.FormatFloat(stats.Mean(r.MPKI[c]), 3))
	}
	t.AddRow(avg...)
	rec := []string{"recovery %", ""}
	for _, c := range r.Cadences {
		rec = append(rec, pct(r.Recovery[c]))
	}
	t.AddRow(rec...)
	cov := []string{"coverage %", ""}
	for _, c := range r.Cadences {
		cov = append(cov, pct(stats.Mean(r.Coverage[c])))
	}
	t.AddRow(cov...)
	return t
}
