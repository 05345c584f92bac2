package experiments

// The attribution study (cmd/experiments -attrib): for every configured
// application, run the offline flow plus an instrumented baseline and
// hinted evaluation, and build the canonical per-branch attribution
// report — the observability companion to the Fig 12/13 headline
// numbers. One unit per app fans out on the engine; the reports land in
// app order, so output is byte-identical at every -j (and at every
// pipeline-engine setting, since the attribution observation stream is
// engine-invariant by construction).

import (
	"github.com/whisper-sim/whisper/internal/attrib"
	"github.com/whisper-sim/whisper/internal/classify"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/runner"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/workload"
)

// AttribBaselineName labels the baseline run in attribution reports.
const AttribBaselineName = "tage-scl-64kb"

// AttribWhisperName labels the hinted run in attribution reports.
const AttribWhisperName = "whisper+tage-scl-64kb"

// AttribResult carries one attribution report per configured app, in
// app order.
type AttribResult struct {
	Reports []*attrib.Report
}

// RunAttrib runs the attribution study. topN bounds the per-app branch
// table and hint scoreboard (0 = the report default of 20).
func RunAttrib(opt Options, topN int) (*AttribResult, error) {
	o := opt.normalize()
	if err := o.checkApps(); err != nil {
		return nil, err
	}
	reports, err := mapApps(o, "attrib", func(_ int, app *workload.App, u *runner.Unit) (*attrib.Report, error) {
		b, err := o.buildWhisper(app)
		if err != nil {
			return nil, err
		}
		test := appWindow(app, o.TestInput, o.Records)
		popt := o.popt()
		baseC := attrib.NewCollector(0)
		popt.Attrib = baseC
		base := pipeline.Run(test.Open(), sim.Tage64KB(), popt)

		whisperC := attrib.NewCollector(0)
		popt.Attrib = whisperC
		_, _ = b.Run(test, sim.Tage64KB, popt)

		cl := classify.DefaultClassifier()
		cl.TrackBranches = attrib.DefaultCapacity
		counts := cl.Run(test.Open(), sim.Tage64KB())

		u.AddInstrs(3 * base.Instrs)
		u.AddRecords(3 * base.Records)
		return attrib.Build(attrib.Inputs{
			Workload:      app.Name(),
			Records:       base.Records,
			Instrs:        base.Instrs,
			WarmupRecords: base.WarmupRecords,
			BaselineName:  AttribBaselineName,
			WhisperName:   AttribWhisperName,
			Base:          baseC,
			Whisper:       whisperC,
			HintedPCs:     b.Binary.HintedPCs(),
			Trained:       len(b.Train.Hints),
			Placed:        b.Binary.Placed,
			Dropped:       b.Binary.Dropped,
			Classes:       counts.DominantLabels(),
			TopN:          topN,
			TopHints:      topN,
		}), nil
	})
	if err != nil {
		return nil, err
	}
	return &AttribResult{Reports: reports}, nil
}
