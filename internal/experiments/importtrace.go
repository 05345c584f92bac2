package experiments

// The imported-trace driver: the standard Whisper-vs-baseline
// evaluation, but over an external branch trace (decoded by
// internal/traceio) instead of a synthetic workload. External traces
// carry one fixed window, so train and test share it — the result is
// the paper's profile-window upper-bound framing, the same one
// `whisper -trace-file` prints. Profiles and trained bundles persist in
// the disk cache keyed by the trace's content fingerprint, so a warm
// rerun does no profiling or training work.

import (
	"fmt"

	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/runner"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/stats"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/traceio"
)

// ImportedTrace holds the evaluation of one external trace window.
type ImportedTrace struct {
	// Name labels the trace (typically the file's base name).
	Name string
	// Fingerprint is the trace's canonical content hash
	// (traceio.Fingerprint), also the disk-cache key component.
	Fingerprint string
	// Records is the window length; Static counts distinct
	// conditional-branch PCs.
	Records, Static int
	// Hard, Hints and Placed describe the offline pipeline's output.
	Hard, Hints, Placed int
	// Base and Whisper are the two measured runs over the window.
	Base, Whisper pipeline.Result
}

// RunImportedTrace profiles, trains and evaluates Whisper over one
// decoded external trace. The evaluation is a single journaled unit on
// the engine; the profile is disk-cached under the trace fingerprint
// and the trained bundle under the profile's content fingerprint.
func RunImportedTrace(opt Options, name string, recs []trace.Record) (*ImportedTrace, error) {
	opt = opt.normalize()
	// Typed rejection (traceio.ErrEmptyTrace / ErrNoConditionals under
	// errors.Is): an unsimulatable window almost always means a broken
	// export, and the caller should say so actionably.
	if err := traceio.CheckRecords(name, recs); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	static := 0
	{
		pcs := make(map[uint64]struct{})
		for i := range recs {
			if recs[i].Kind == trace.CondBranch {
				pcs[recs[i].PC] = struct{}{}
			}
		}
		static = len(pcs)
	}
	fp := traceio.Fingerprint(recs)

	out, err := runner.Map(opt.pool(), 1, func(_ int, u *runner.Unit) (*ImportedTrace, error) {
		u.Label = "import/" + name
		prof, err := opt.traceProfile(name, fp, recs)
		if err != nil {
			return nil, err
		}
		tr, err := opt.trainCached(prof, opt.Params)
		if err != nil {
			return nil, fmt.Errorf("experiments: training trace %s: %w", name, err)
		}
		bopt := sim.DefaultBuildOptions()
		bopt.Records = len(recs)
		bopt.Params = opt.Params
		b := sim.AssembleTraceHints(recs, tr, prof.Instrs, bopt)

		popt := pipeline.Options{
			Config:        opt.Pipeline,
			WarmupRecords: uint64(float64(len(recs)) * opt.WarmupFrac),
			BlockSize:     opt.BlockSize,
		}
		base := sim.RunTrace(recs, sim.Tage64KB(), popt)
		res, _ := b.RunWhisperTrace(recs, sim.Tage64KB, popt)
		u.AddInstrs(base.Instrs + res.Instrs)
		u.AddRecords(base.Records + res.Records)
		return &ImportedTrace{
			Name:        name,
			Fingerprint: fp,
			Records:     len(recs),
			Static:      static,
			Hard:        len(prof.Hard),
			Hints:       len(tr.Hints),
			Placed:      b.Binary.Placed,
			Base:        base,
			Whisper:     res,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// traceProfile collects (or loads) the profile of an external trace
// window under the 64KB TAGE-SC-L, keyed on the trace's content
// fingerprint — two files with identical records share one cache entry
// regardless of format or name.
func (o Options) traceProfile(name, fp string, recs []trace.Record) (*profiler.Profile, error) {
	popt := profiler.DefaultOptions()
	diskKey := fmt.Sprintf("profile|v%d|trace=%s|tage=64KB|%s",
		store.FormatVersion, fp, profileOptKey(popt))
	if o.Cache != nil {
		if p, ok := o.Cache.LoadProfile(diskKey); ok {
			return p, nil
		}
	}
	bopt := sim.DefaultBuildOptions()
	bopt.Records = len(recs)
	bopt.Profiler = popt
	p, err := sim.ProfileTrace(recs, bopt)
	if err != nil {
		return nil, fmt.Errorf("experiments: profiling trace %s: %w", name, err)
	}
	if o.Cache != nil {
		_ = o.Cache.SaveProfile(diskKey,
			store.Meta{App: "trace:" + name, Records: len(recs)}, p)
	}
	return p, nil
}

// Table renders the imported-trace evaluation as a metric/value table.
func (t *ImportedTrace) Table() *stats.Table {
	tb := stats.NewTable(fmt.Sprintf("Imported trace %s: Whisper vs 64KB TAGE-SC-L on the profiled window", t.Name),
		"metric", "value")
	tb.AddRow("records", fmt.Sprintf("%d", t.Records))
	tb.AddRow("static cond branches", fmt.Sprintf("%d", t.Static))
	tb.AddRow("hard branches", fmt.Sprintf("%d", t.Hard))
	tb.AddRow("hints trained", fmt.Sprintf("%d", t.Hints))
	tb.AddRow("hints placed", fmt.Sprintf("%d", t.Placed))
	tb.AddRow("baseline MPKI", stats.FormatFloat(t.Base.MPKI(), 2))
	tb.AddRow("whisper MPKI", stats.FormatFloat(t.Whisper.MPKI(), 2))
	tb.AddRow("misprediction reduction", pct(sim.MispReduction(t.Base, t.Whisper))+"%")
	tb.AddRow("baseline IPC", stats.FormatFloat(t.Base.IPC(), 3))
	tb.AddRow("whisper IPC", stats.FormatFloat(t.Whisper.IPC(), 3))
	tb.AddRow("speedup", pct(sim.Speedup(t.Base, t.Whisper))+"%")
	tb.AddRow("trace fingerprint", t.Fingerprint[:12])
	return tb
}
