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

	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/runner"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/stats"
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
	// Typed rejection (traceio.ErrEmptyTrace / ErrNoConditionals under
	// errors.Is): an unsimulatable window almost always means a broken
	// export, and the caller should say so actionably.
	if err := traceio.CheckRecords(name, recs); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	fp := traceio.Fingerprint(recs)
	w := sim.TraceWindow(name, fp, recs)

	out, err := runner.Map(opt.pool(), 1, func(_ int, u *runner.Unit) (*ImportedTrace, error) {
		u.Label = "import/" + name
		b, err := opt.build(w, 64, core.DefaultParams())
		if err != nil {
			return nil, err
		}
		base := baseline(u, w, 64)
		res, _ := measureBuild(u, b, w, 64)
		return &ImportedTrace{
			Name:        name,
			Fingerprint: fp,
			Records:     len(recs),
			Static:      trace.CountCondPCs(recs),
			Hard:        len(b.Profile.Hard),
			Hints:       len(b.Train.Hints),
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
