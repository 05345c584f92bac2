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
	"github.com/whisper-sim/whisper/internal/runner"
	"github.com/whisper-sim/whisper/internal/workload"
)

// AttribResult carries one attribution report per configured app, in
// app order.
type AttribResult struct {
	Reports []*attrib.Report
}

// RunAttrib runs the attribution study. topN bounds the per-app branch
// table and hint scoreboard (0 = the report default of 20).
func RunAttrib(opt Options, topN int) (*AttribResult, error) {
	reports, err := mapApps(opt, "attrib", func(_ int, app *workload.App, u *runner.Unit) (*attrib.Report, error) {
		b, err := opt.buildWhisper(app)
		if err != nil {
			return nil, err
		}
		test := appWindow(app, testInput, opt.Records)
		in := b.Attribute(test, measured(test), true)
		// Three passes over the window: baseline, hinted and classify.
		u.AddInstrs(3 * in.Instrs)
		u.AddRecords(3 * in.Records)
		in.Workload = app.Name()
		in.TopN, in.TopHints = topN, topN
		return attrib.Build(in), nil
	})
	if err != nil {
		return nil, err
	}
	return &AttribResult{Reports: reports}, nil
}
