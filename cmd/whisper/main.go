// Command whisper drives the paper's usage model (Fig 10) on one
// application, either fused or as separately persisted stages:
//
//	whisper [-app mysql] [-records 400000] [-input 0] [-test-input 1]
//	        [-explore 0.05] [-trace out.wspt] [-hints] [-v]
//	whisper profile -app mysql -o mysql.profile.wspa [-input 0] [-records N]
//	whisper train -profile mysql.profile.wspa -o mysql.hints.wspa [-explore F]
//	whisper apply -hints mysql.hints.wspa [-test-input 1] [-warmup 0.3] [-dump]
//	whisper convert -i trace.txt -o trace.wspt -to binary [-from auto]
//	whisper report [-app mysql] [-records N] [-top 20] [-json FILE]
//	               [-chrome-trace FILE] [-trace-file FILE]
//
// The default (no subcommand) runs the whole flow in one process. The
// profile/train/apply subcommands run the identical stages through
// versioned artifact files (package store), so the three-step pipeline
// reproduces the fused run bit for bit.
//
// Imported traces: -trace-file FILE (on the one-shot flow, profile,
// apply and report) drives the same pipeline from an external branch
// trace — perf-script/LBR-style text or the compact WSPT binary
// format — instead of a synthetic application;
// -trace-format overrides the auto-detection. The convert subcommand
// transcodes between the formats (see docs/traces.md).
//
// With -trace the tool additionally writes the profiled window's branch
// trace in the WSPT binary format (a stand-in for a decoded Intel PT
// file), which -trace-file replays. With -hints (or apply -dump) it
// dumps the trained brhint program.
//
// A window the workload cannot produce (an -input or -test-input the
// application lacks, -records <= 0) exits 2 with a one-line error, and
// so does a -warmup outside [0, 1).
//
// The report subcommand runs the whole flow and prints the attribution
// report instead of the evaluation summary: the ranked per-branch
// misprediction table and the per-hint effectiveness scoreboard, with
// optional canonical JSON (-json) and Chrome trace-event span export
// (-chrome-trace); see docs/attribution.md.
//
// Every subcommand accepts -debug-addr ADDR, which enables the process
// telemetry registry and serves /metrics (Prometheus text), /debug/vars
// (expvar) and /debug/pprof on that address for the duration of the run,
// and -journal FILE and -chrome-trace FILE; cmd/experiments starts and
// closes the same set through the same cliflags.Session. See
// docs/observability.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/whisper-sim/whisper/internal/cfg"
	"github.com/whisper-sim/whisper/internal/cliflags"
	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/hint"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/telemetry"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/traceio"
	"github.com/whisper-sim/whisper/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches the subcommands; no subcommand means the fused one-shot
// flow. It returns the process exit code so tests can drive the CLI
// in-process.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "profile":
			return cmdProfile(args[1:], stdout, stderr)
		case "train":
			return cmdTrain(args[1:], stdout, stderr)
		case "apply":
			return cmdApply(args[1:], stdout, stderr)
		case "convert":
			return cmdConvert(args[1:], stdout, stderr)
		case "report":
			return cmdReport(args[1:], stdout, stderr)
		case "serve":
			return cmdServe(args[1:], stdout, stderr)
		case "fleet":
			return cmdFleet(args[1:], stdout, stderr)
		}
	}
	return cmdOneShot(args, stdout, stderr)
}

// windowSpec is what a command's flags (or a hint artifact's metadata)
// say about the window the flow runs over: an imported trace file, or
// an application's training and evaluation inputs.
type windowSpec struct {
	app                       string
	input, testInput, records int
	traceFile, traceFormat    string
}

// target is a resolved windowSpec: the profiled window, the evaluation
// window, and the store.Meta key that identifies an imported trace's
// records ("" for an application).
type target struct {
	train, test sim.Window
	key         string
}

// resolve validates the spec once for every command. An imported trace
// carries one fixed window, so it is both the profiled and the
// evaluation window; it must decode and hold something to predict
// (traceio.CheckRecords — an empty or conditional-free window is a
// typed error, not an all-zero run). Failures are reported on stderr
// as one line.
func (ws windowSpec) resolve(stderr io.Writer) (target, bool) {
	if ws.traceFile != "" {
		f, err := traceio.ParseFormat(ws.traceFormat)
		if err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return target{}, false
		}
		recs, _, err := traceio.LoadFile(ws.traceFile, f)
		if err != nil {
			fmt.Fprintf(stderr, "reading trace: %v\n", err)
			return target{}, false
		}
		if err := traceio.CheckRecords(ws.traceFile, recs); err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return target{}, false
		}
		fp := traceio.Fingerprint(recs)
		w := sim.TraceWindow(filepath.Base(ws.traceFile), fp, recs)
		return target{train: w, test: w, key: sim.TracePrefix + fp}, true
	}
	app := workload.AppByName(ws.app)
	if app == nil {
		fmt.Fprintf(stderr, "unknown app %q (try -app list)\n", ws.app)
		return target{}, false
	}
	train, err := sim.AppWindow(app, ws.input, ws.records)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return target{}, false
	}
	test, err := sim.AppWindow(app, ws.testInput, ws.records)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return target{}, false
	}
	return target{train: train, test: test}, true
}

// isTrace reports whether w is an imported trace's window.
func isTrace(w sim.Window) bool { return strings.HasPrefix(w.Name, sim.TracePrefix) }

// cmdProfile collects a profile artifact (the in-production stage),
// from either a synthetic application or an imported trace file.
func cmdProfile(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("whisper profile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appFlag := fs.String("app", "", "application name (see Table I)")
	inputFlag := fs.Int("input", 0, "training input")
	recordsFlag := fs.Int("records", 400000, "records per window")
	ti := cliflags.TraceInput(fs)
	outFlag := fs.String("o", "", "output artifact file (required)")
	obs := cliflags.Common(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *outFlag == "" || (*appFlag == "") == (*ti.File == "") {
		fmt.Fprintln(stderr, "whisper profile: -o and exactly one of -app or -trace-file are required")
		return 2
	}
	sess, ok := obs.Start(telemetry.Manifest{Tool: "whisper profile",
		Config: map[string]any{"app": *appFlag, "records": *recordsFlag, "trace_file": *ti.File}}, stderr)
	if !ok {
		return 2
	}
	defer func() { code = sess.CloseCode(code) }()

	// Profiling evaluates nothing: the training input doubles as the
	// evaluation input.
	tg, ok := windowSpec{app: *appFlag, input: *inputFlag, testInput: *inputFlag, records: *recordsFlag,
		traceFile: *ti.File, traceFormat: *ti.Format}.resolve(stderr)
	if !ok {
		return 2
	}
	prof, err := sim.Profile(tg.train, sim.Tage64KB, profiler.DefaultOptions())
	if err != nil {
		fmt.Fprintf(stderr, "profile: %v\n", err)
		return 1
	}
	art := &store.Artifact{
		Meta:    store.Meta{App: tg.train.Name, Input: tg.train.Input, Records: tg.train.Records, Key: tg.key},
		Profile: prof,
	}
	if err := store.WriteFile(*outFlag, art); err != nil {
		fmt.Fprintf(stderr, "profile: %v\n", err)
		return 1
	}
	printProfiling(stdout, tg.train)
	printProfileLine(stdout, prof)
	fmt.Fprintf(stdout, "wrote profile artifact to %s\n", *outFlag)
	return 0
}

// cmdTrain runs formula search over a persisted profile (the offline
// stage) and writes the hint bundle.
func cmdTrain(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("whisper train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	profFlag := fs.String("profile", "", "input profile artifact (required)")
	outFlag := fs.String("o", "", "output hint artifact (required)")
	exploreFlag := fs.Float64("explore", 0.05, "fraction of formulas explored (>=1 is exhaustive)")
	obs := cliflags.Common(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *profFlag == "" || *outFlag == "" {
		fmt.Fprintln(stderr, "whisper train: -profile and -o are required")
		return 2
	}
	if !exploreOK(stderr, fs.Name(), *exploreFlag) {
		return 2
	}
	sess, ok := obs.Start(telemetry.Manifest{Tool: "whisper train",
		Config: map[string]any{"profile": *profFlag, "explore": *exploreFlag}}, stderr)
	if !ok {
		return 2
	}
	defer func() { code = sess.CloseCode(code) }()
	art, err := store.ReadFile(*profFlag)
	if err != nil {
		fmt.Fprintf(stderr, "train: reading %s: %v\n", *profFlag, err)
		return 1
	}
	if art.Profile == nil {
		fmt.Fprintf(stderr, "train: %s carries no profile section\n", *profFlag)
		return 1
	}
	params := core.DefaultParams()
	params.ExploreFraction = *exploreFlag
	tr, err := core.Train(art.Profile, params)
	if err != nil {
		fmt.Fprintf(stderr, "train: %v\n", err)
		return 1
	}
	// The artifact leaves the training time out (store.Bundle), so two
	// runs on one profile write identical bytes; the analysis line still
	// reports it.
	data, _, err := store.Bundle(art.Meta, tr, art.Profile.Instrs)
	if err == nil {
		err = store.WriteBytes(*outFlag, data)
	}
	if err != nil {
		fmt.Fprintf(stderr, "train: %v\n", err)
		return 1
	}
	printAnalysisLine(stdout, art.Profile, tr)
	fmt.Fprintf(stdout, "wrote hint artifact to %s\n", *outFlag)
	return 0
}

// cmdApply injects a persisted hint bundle into the binary and evaluates
// it (the link-time + deployment stage).
func cmdApply(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("whisper apply", flag.ContinueOnError)
	fs.SetOutput(stderr)
	hintsFlag := fs.String("hints", "", "input hint artifact (required)")
	testFlag := fs.Int("test-input", 1, "evaluation input")
	ti := cliflags.TraceInput(fs)
	warmFlag := fs.Float64("warmup", 0.3, "warm-up fraction of the measured window")
	dumpFlag := fs.Bool("dump", false, "dump the injected brhint program")
	obs := cliflags.Common(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *hintsFlag == "" {
		fmt.Fprintln(stderr, "whisper apply: -hints is required")
		return 2
	}
	if !warmupOK(stderr, fs.Name(), *warmFlag) {
		return 2
	}
	sess, ok := obs.Start(telemetry.Manifest{Tool: "whisper apply",
		Config: map[string]any{"hints": *hintsFlag, "trace_file": *ti.File}}, stderr)
	if !ok {
		return 2
	}
	defer func() { code = sess.CloseCode(code) }()
	art, err := store.ReadFile(*hintsFlag)
	if err != nil {
		fmt.Fprintf(stderr, "apply: reading %s: %v\n", *hintsFlag, err)
		return 1
	}
	if art.Train == nil {
		fmt.Fprintf(stderr, "apply: %s carries no hint section (run 'whisper train' first)\n", *hintsFlag)
		return 1
	}
	ws := windowSpec{app: art.Meta.App, input: art.Meta.Input, testInput: *testFlag, records: art.Meta.Records}
	if strings.HasPrefix(art.Meta.App, sim.TracePrefix) {
		if *ti.File == "" {
			fmt.Fprintf(stderr, "apply: %s was trained on an imported trace (%s); -trace-file is required\n",
				*hintsFlag, art.Meta.App)
			return 2
		}
		ws = windowSpec{traceFile: *ti.File, traceFormat: *ti.Format}
	}
	tg, ok := ws.resolve(stderr)
	if !ok {
		return 2
	}
	if tg.key != "" && tg.key != art.Meta.Key {
		fmt.Fprintf(stderr, "apply: %s does not match the trace the hints were trained on (fingerprint %s, artifact %s)\n",
			*ti.File, tg.key, art.Meta.Key)
		return 1
	}
	b := sim.Inject(tg.train, art.Train, cfg.Build(tg.train.Open()), art.WindowInstrs)
	printInjectionLine(stdout, b)
	if *dumpFlag {
		dumpHints(stdout, b)
	}
	printEvaluation(stdout, tg.test, b, *warmFlag)
	return 0
}

// cmdOneShot is the fused flow: profile, train, inject and evaluate in
// one process.
func cmdOneShot(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("whisper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appFlag := fs.String("app", "mysql", "application name (see Table I) or 'list'")
	recordsFlag := fs.Int("records", 400000, "records per window")
	inputFlag := fs.Int("input", 0, "training input")
	testFlag := fs.Int("test-input", 1, "evaluation input")
	exploreFlag := fs.Float64("explore", 0.05, "fraction of formulas explored (>=1 is exhaustive)")
	traceFlag := fs.String("trace", "", "write the profiled window's trace to this file (WSPT)")
	ti := cliflags.TraceInput(fs)
	hintsFlag := fs.Bool("hints", false, "dump the injected brhint program")
	warmFlag := fs.Float64("warmup", 0.3, "warm-up fraction of the measured window")
	obs := cliflags.Common(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !exploreOK(stderr, fs.Name(), *exploreFlag) || !warmupOK(stderr, fs.Name(), *warmFlag) {
		return 2
	}
	sess, ok := obs.Start(telemetry.Manifest{Tool: "whisper",
		Config: map[string]any{"app": *appFlag, "records": *recordsFlag, "trace_file": *ti.File}}, stderr)
	if !ok {
		return 2
	}
	defer func() { code = sess.CloseCode(code) }()

	if *appFlag == "list" {
		for _, spec := range workload.DataCenterSpecs() {
			fmt.Fprintf(stdout, "%-16s %s\n", spec.Config.Name, spec.Workload)
		}
		return 0
	}
	tg, ok := windowSpec{app: *appFlag, input: *inputFlag, testInput: *testFlag, records: *recordsFlag,
		traceFile: *ti.File, traceFormat: *ti.Format}.resolve(stderr)
	if !ok {
		return 2
	}

	if *traceFlag != "" {
		if err := exportTrace(tg.train, *traceFlag); err != nil {
			fmt.Fprintf(stderr, "trace export: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d records to %s\n", tg.train.Records, *traceFlag)
	}

	printProfiling(stdout, tg.train)
	params := core.DefaultParams()
	params.ExploreFraction = *exploreFlag
	b, err := sim.Build(tg.train, sim.Tage64KB, params)
	if err != nil {
		fmt.Fprintf(stderr, "build: %v\n", err)
		return 1
	}
	printProfileLine(stdout, b.Profile)
	printAnalysisLine(stdout, b.Profile, b.Train)
	printInjectionLine(stdout, b)

	if *hintsFlag {
		dumpHints(stdout, b)
	}

	printEvaluation(stdout, tg.test, b, *warmFlag)
	return 0
}

// exploreOK reports whether an -explore value is usable; otherwise it
// prints the one-line usage error and the caller exits 2.
func exploreOK(stderr io.Writer, cmd string, v float64) bool {
	if core.ValidExploreFraction(v) {
		return true
	}
	fmt.Fprintf(stderr, "%s: -explore %v: want a positive fraction (>= 1 is exhaustive)\n", cmd, v)
	return false
}

// warmupOK reports whether a -warmup value is usable; otherwise it
// prints the one-line usage error and the caller exits 2.
func warmupOK(stderr io.Writer, cmd string, v float64) bool {
	if sim.ValidWarmup(v) {
		return true
	}
	fmt.Fprintf(stderr, "%s: -warmup %v: want a fraction in [0, 1)\n", cmd, v)
	return false
}

// printProfiling announces the profiled window.
func printProfiling(w io.Writer, win sim.Window) {
	what := fmt.Sprintf("input #%d", win.Input)
	if isTrace(win) {
		what = "imported trace"
	}
	fmt.Fprintf(w, "== %s: profiling %s (%d records) ==\n", win.Name, what, win.Records)
}

// printProfileLine summarizes the collected profile.
func printProfileLine(w io.Writer, prof *profiler.Profile) {
	fmt.Fprintf(w, "profile: %d instructions, %d conditional executions, baseline MPKI %.2f\n",
		prof.Instrs, prof.CondExecs, prof.MPKI())
}

// printAnalysisLine summarizes the formula search.
func printAnalysisLine(w io.Writer, prof *profiler.Profile, tr *core.TrainResult) {
	fmt.Fprintf(w, "analysis: %d hard branches, %d hints trained in %v (%d formula scorings)\n",
		len(prof.Hard), len(tr.Hints), tr.Duration.Round(1e6), tr.FormulaEvals)
}

// printInjectionLine summarizes the link-time hint placement.
func printInjectionLine(w io.Writer, b *sim.WhisperBuild) {
	fmt.Fprintf(w, "injection: %d hints placed, %d dropped (12-bit pointer range), static +%.1f%%, dynamic +%.1f%%\n",
		b.Binary.Placed, b.Binary.Dropped,
		b.Binary.StaticOverhead()*100, b.Binary.DynamicOverhead()*100)
}

// printEvaluation measures baseline and Whisper side by side on the
// test window (sim.Evaluate); the fused flow and the apply subcommand
// share it so their outputs match bit for bit. An imported trace is its
// own test window, so its reduction is the paper's profile-window
// framing.
func printEvaluation(w io.Writer, test sim.Window, b *sim.WhisperBuild, warmFrac float64) {
	popt := pipeline.Options{
		Config:        pipeline.DefaultConfig(),
		WarmupRecords: uint64(float64(test.Records) * warmFrac),
	}
	base, res, rt := sim.Evaluate(b, test, sim.Tage64KB, popt, popt)

	on := fmt.Sprintf("input #%d", test.Input)
	if isTrace(test) {
		on = "the profiled window"
	}
	fmt.Fprintf(w, "\n== evaluation on %s ==\n", on)
	fmt.Fprintf(w, "baseline : IPC %.3f  MPKI %.2f  mispredictions %d\n",
		base.IPC(), base.MPKI(), base.CondMisp)
	fmt.Fprintf(w, "whisper  : IPC %.3f  MPKI %.2f  mispredictions %d\n",
		res.IPC(), res.MPKI(), res.CondMisp)
	fmt.Fprintf(w, "reduction %.1f%%  speedup %.2f%%  (hint buffer hit rate %.2f, %d hint executions)\n",
		sim.MispReduction(base, res)*100, sim.Speedup(base, res)*100,
		rt.Buffer().HitRate(), rt.HintExecutions)
}

// cmdConvert transcodes a trace file between the interchange formats.
func cmdConvert(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("whisper convert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	inFlag := fs.String("i", "", "input trace file (required)")
	outFlag := fs.String("o", "", "output trace file (required)")
	fromFlag := fs.String("from", "auto", "input format: auto, text or binary")
	toFlag := fs.String("to", "", "output format: text or binary (required)")
	obs := cliflags.Common(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *inFlag == "" || *outFlag == "" || *toFlag == "" {
		fmt.Fprintln(stderr, "whisper convert: -i, -o and -to are required")
		return 2
	}
	sess, ok := obs.Start(telemetry.Manifest{Tool: "whisper convert",
		Config: map[string]any{"in": *inFlag, "to": *toFlag}}, stderr)
	if !ok {
		return 2
	}
	defer func() { code = sess.CloseCode(code) }()
	from, err := traceio.ParseFormat(*fromFlag)
	if err != nil {
		fmt.Fprintf(stderr, "convert: %v\n", err)
		return 2
	}
	to, err := traceio.ParseFormat(*toFlag)
	if err != nil || to == traceio.FormatAuto {
		fmt.Fprintf(stderr, "convert: -to must be text or binary\n")
		return 2
	}
	in, err := os.Open(*inFlag)
	if err != nil {
		fmt.Fprintf(stderr, "convert: %v\n", err)
		return 1
	}
	defer in.Close()
	out, err := os.Create(*outFlag)
	if err != nil {
		fmt.Fprintf(stderr, "convert: %v\n", err)
		return 1
	}
	n, detected, err := traceio.Convert(out, in, from, to)
	if err != nil {
		out.Close()
		os.Remove(*outFlag)
		fmt.Fprintf(stderr, "convert: %v\n", err)
		return 1
	}
	if err := out.Close(); err != nil {
		fmt.Fprintf(stderr, "convert: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "converted %d records (%s -> %s) to %s\n", n, detected, to, *outFlag)
	return 0
}

// exportTrace writes the window's records in the WSPT binary format.
func exportTrace(win sim.Window, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := traceio.NewBinaryWriter(f)
	s := win.Open()
	var rec trace.Record
	for s.Next(&rec) {
		if err := enc.Write(&rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dumpHints prints the brhint program sorted by host PC.
func dumpHints(w io.Writer, b *sim.WhisperBuild) {
	type row struct {
		host uint64
		ph   core.PlacedHint
	}
	var rows []row
	for host, hs := range b.Binary.ByHost {
		for _, ph := range hs {
			rows = append(rows, row{host, ph})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].host < rows[j].host })
	fmt.Fprintln(w, "\nhost PC    -> branch PC   enc         hint")
	for _, r := range rows {
		enc, _ := r.ph.Encoded.Encode()
		desc := "formula " + r.ph.Hint.Formula.String()
		switch r.ph.Encoded.Bias {
		case hint.BiasTaken:
			desc = "always-taken"
		case hint.BiasNotTaken:
			desc = "never-taken"
		default:
			desc = fmt.Sprintf("L=%d %s", b.Train.Lengths[r.ph.Hint.LengthIdx], desc)
		}
		fmt.Fprintf(w, "%#08x -> %#08x  %#09x  %s\n", r.host, r.ph.Hint.PC, enc, desc)
	}
}
