package main

// whisper report: the attribution surface of the CLI. It runs the full
// offline flow (profile, train, inject) plus a baseline and a hinted
// evaluation of the same window, side by side, with per-branch
// attribution collectors attached, and explains where the MPKI goes:
// which static branches carry the baseline mispredictions, which of
// them the hint program covers, and what each placed hint bought at run
// time.
//
// The stdout report (header, ranked branch table, hint scoreboard) is
// canonical: byte-identical run to run, locked by golden tests and by
// the pipeline's differential tests against its reference loop. -json
// additionally writes the machine-readable attrib.Report document;
// -chrome-trace writes the run's phase spans in the Chrome trace-event
// format (load in about://tracing or Perfetto; see docs/attribution.md).

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/whisper-sim/whisper/internal/attrib"
	"github.com/whisper-sim/whisper/internal/cliflags"
	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/telemetry"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/traceio"
)

// cmdReport builds and prints the attribution report for one workload.
func cmdReport(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("whisper report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appFlag := fs.String("app", "mysql", "application name (see Table I)")
	recordsFlag := fs.Int("records", 400000, "records per window")
	inputFlag := fs.Int("input", 0, "training input")
	testFlag := fs.Int("test-input", 1, "evaluation input")
	exploreFlag := fs.Float64("explore", 0.05, "fraction of formulas explored (>=1 is exhaustive)")
	ti := cliflags.TraceInput(fs)
	warmFlag := fs.Float64("warmup", 0.3, "warm-up fraction of the measured window")
	topFlag := fs.Int("top", 20, "branches listed in the attribution table")
	topHintsFlag := fs.Int("top-hints", 20, "hints listed in the scoreboard")
	classesFlag := fs.Bool("classes", true, "attach each branch's dominant misprediction class (one extra classification pass)")
	jsonFlag := fs.String("json", "", "also write the canonical report JSON to this file")
	obs := cliflags.Common(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !exploreOK(stderr, fs.Name(), *exploreFlag) || !warmupOK(stderr, fs.Name(), *warmFlag) {
		return 2
	}
	// The session's tracer observes every span from here on (-journal
	// and -chrome-trace both consume them).
	sess, ok := obs.Start(telemetry.Manifest{Tool: "whisper report",
		Config: map[string]any{"app": *appFlag, "records": *recordsFlag, "trace_file": *ti.File}}, stderr)
	if !ok {
		return 2
	}
	defer func() { code = sess.CloseCode(code) }()

	tg, ok := windowSpec{app: *appFlag, input: *inputFlag, testInput: *testFlag, records: *recordsFlag,
		traceFile: *ti.File, traceFormat: *ti.Format}.resolve(stderr)
	if !ok {
		return 2
	}
	params := core.DefaultParams()
	params.ExploreFraction = *exploreFlag
	b, err := sim.Build(tg.train, sim.Tage64KB, params)
	if err != nil {
		fmt.Fprintf(stderr, "report: %v\n", err)
		return 1
	}
	popt := pipeline.Options{
		Config:        pipeline.DefaultConfig(),
		WarmupRecords: uint64(float64(tg.test.Records) * *warmFlag),
	}
	in := b.Attribute(tg.test, popt, *classesFlag)
	in.Workload = tg.train.Name
	in.Fingerprint = traceio.Fingerprint(trace.Collect(tg.test.Open(), 0))
	in.TopN, in.TopHints = *topFlag, *topHintsFlag
	rep := attrib.Build(in)

	fmt.Fprintf(stdout, "== %s: misprediction attribution ==\n", tg.train.Name)
	rep.SummaryLines(stdout)
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, rep.BranchTable().String())
	fmt.Fprintln(stdout, rep.HintTable().String())

	if *jsonFlag != "" {
		if err := writeReportJSON(*jsonFlag, rep); err != nil {
			fmt.Fprintf(stderr, "report: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote report JSON to %s\n", *jsonFlag)
	}
	return 0
}

// writeReportJSON writes the canonical attribution document to path.
func writeReportJSON(path string, rep *attrib.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
