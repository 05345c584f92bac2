// Command experiments regenerates every table and figure of the paper's
// evaluation at a configurable scale.
//
// Usage:
//
//	experiments [-scale tiny|small|full] [-records N] [-only fig13,fig12]
//	            [-apps mysql,kafka] [-j N] [-block N] [-progress] [-timing]
//	            [-csv] [-cache DIR] [-no-cache] [-journal FILE]
//	            [-debug-addr ADDR] [-trace-file FILE [-trace-format F]]
//
// Without -only it runs the complete suite in paper order. Results print
// as aligned text tables (or CSV with -csv); docs/experiments.md maps
// every id to its paper table or figure and records the paper-vs-measured
// comparison for a small-scale run.
//
// Two studies are outside the default suite. "-only transfer" runs the
// cross-workload hint-transfer matrix (train on every app, test on every
// app — quadratic in the app count, so opt-in; see docs/traces.md).
// -trace-file FILE replaces the suite entirely: it imports an external
// branch trace (text or WSPT binary, auto-detected or forced with
// -trace-format) and evaluates Whisper against the 64KB TAGE-SC-L
// baseline over the imported window.
//
// Independent (app, input, config) simulation units fan out over -j
// workers; the tables are byte-identical at every -j, so the flag is
// purely a wall-clock knob. -block selects the pipeline's record-block
// granularity (0 = batched default, -1 = scalar reference loop); like
// -j, output is byte-identical at every setting. -progress draws a live
// done/total/ETA line on stderr and -timing prints a per-unit
// accounting summary at the end.
//
// Profiles and trained hint bundles persist in an on-disk cache
// (default <user cache dir>/whisper-sim; override with -cache, disable
// with -no-cache), so reruns skip the profiling and formula-search work
// entirely. Cached artifacts are verified (CRC-checked sections, keyed
// by complete configuration); corrupt or stale entries are discarded
// and recomputed.
//
// -journal FILE writes a structured JSONL run journal (a manifest line,
// one event per completed simulation unit, and a final metrics snapshot;
// see docs/observability.md). -debug-addr ADDR serves /metrics
// (Prometheus text), /debug/vars (expvar) and /debug/pprof for the
// duration of the run. Neither flag changes stdout by a single byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/whisper-sim/whisper/internal/attrib"
	"github.com/whisper-sim/whisper/internal/cliflags"
	"github.com/whisper-sim/whisper/internal/experiments"
	"github.com/whisper-sim/whisper/internal/plot"
	"github.com/whisper-sim/whisper/internal/runner"
	"github.com/whisper-sim/whisper/internal/spec"
	"github.com/whisper-sim/whisper/internal/stats"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/telemetry"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/traceio"
	"github.com/whisper-sim/whisper/internal/workload"
)

// config is the parsed command line.
type config struct {
	opt       experiments.Options
	only      map[string]bool
	csv       bool
	plot      bool
	progress  bool
	timing    bool
	cacheDir  string
	noCache   bool
	scaleName string
	journal   string
	debugAddr string
	specPath  string
	validate  bool
	scenario  *spec.Scenario
	tracePath string
	traceRecs []trace.Record

	// attrib selects the standalone attribution study; attribJSON and
	// attribTop are its options. chromeTrace exports the run's spans.
	attrib      bool
	attribJSON  string
	attribTop   int
	chromeTrace string
}

// run reports whether the experiment id is selected (-only empty means
// everything runs).
func (c *config) run(id string) bool { return len(c.only) == 0 || c.only[id] }

// parseConfig turns CLI arguments into a validated config. Errors are
// returned, not fatal, so tests can drive every branch.
func parseConfig(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleFlag := fs.String("scale", "small", "workload scale: tiny, small, or full")
	recordsFlag := fs.Int("records", 0, "override per-app record count")
	onlyFlag := fs.String("only", "", "comma-separated experiment ids (e.g. fig13,table1)")
	appsFlag := fs.String("apps", "", "comma-separated app subset (default: all 12)")
	jFlag := fs.Int("j", 0, "parallel simulation units (0 = one per CPU)")
	blockFlag := fs.Int("block", 0, "pipeline record-block size (0 = batched default, <0 = scalar reference)")
	progressFlag := fs.Bool("progress", false, "draw a live progress/ETA line on stderr")
	timingFlag := fs.Bool("timing", false, "print per-unit timing and cache stats at the end")
	csvFlag := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	plotFlag := fs.Bool("plot", false, "render numeric columns as ASCII bar charts")
	cacheFlag := fs.String("cache", "", "profile/hint cache directory (default: <user cache dir>/whisper-sim)")
	noCacheFlag := fs.Bool("no-cache", false, "disable the on-disk profile/hint cache")
	specFlag := fs.String("spec", "", "run a declarative workload spec (YAML/JSON; see docs/specs.md) instead of the paper suite")
	validateFlag := fs.Bool("validate", false, "with -spec: parse, compile and summarize the spec without simulating")
	ti := cliflags.TraceInput(fs)
	attribFlag := fs.Bool("attrib", false, "run the per-branch attribution study (see docs/attribution.md) instead of the paper suite")
	attribJSONFlag := fs.String("attrib-json", "", "with -attrib: also write the canonical report documents (JSON array) to this file")
	attribTopFlag := fs.Int("attrib-top", 0, "with -attrib: branches/hints listed per app (0 = default 20)")
	obs := cliflags.Common(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	journalFlag, debugFlag, chromeFlag := obs.Journal, obs.DebugAddr, obs.ChromeTrace
	traceFlag, traceFormatFlag := ti.File, ti.Format

	c := &config{
		opt:         experiments.Default(),
		only:        map[string]bool{},
		csv:         *csvFlag,
		plot:        *plotFlag,
		progress:    *progressFlag,
		timing:      *timingFlag,
		cacheDir:    *cacheFlag,
		noCache:     *noCacheFlag,
		scaleName:   *scaleFlag,
		journal:     *journalFlag,
		debugAddr:   *debugFlag,
		attrib:      *attribFlag,
		attribJSON:  *attribJSONFlag,
		attribTop:   *attribTopFlag,
		chromeTrace: *chromeFlag,
	}
	switch *scaleFlag {
	case "tiny":
		c.opt.Scale = workload.ScaleTiny
	case "small":
		c.opt.Scale = workload.ScaleSmall
	case "full":
		c.opt.Scale = workload.ScaleFull
	default:
		return nil, fmt.Errorf("unknown scale %q", *scaleFlag)
	}
	if *recordsFlag > 0 {
		c.opt.Records = *recordsFlag
	}
	c.opt.Parallelism = *jFlag
	c.opt.BlockSize = *blockFlag

	// Instantiate the app set exactly once: the baseline memo keys on app
	// identity, so sharing instances across drivers is what lets one
	// 64KB TAGE-SC-L run serve Figs 1, 12/13, 14, 15 and the ablations.
	if *appsFlag != "" {
		var apps []*workload.App
		for _, name := range strings.Split(*appsFlag, ",") {
			app := workload.AppByName(strings.TrimSpace(name))
			if app == nil {
				return nil, fmt.Errorf("unknown app %q", name)
			}
			apps = append(apps, app)
		}
		c.opt.Apps = apps
	} else {
		c.opt.Apps = workload.DataCenterApps()
	}

	if *onlyFlag != "" {
		for _, id := range strings.Split(*onlyFlag, ",") {
			c.only[strings.ToLower(strings.TrimSpace(id))] = true
		}
	}

	if *validateFlag && *specFlag == "" {
		return nil, fmt.Errorf("-validate requires -spec")
	}
	if *specFlag != "" {
		if *appsFlag != "" {
			return nil, fmt.Errorf("-spec and -apps conflict: the spec's mix selects the applications")
		}
		if *traceFlag != "" {
			return nil, fmt.Errorf("-trace-file and -spec conflict: each replaces the paper suite")
		}
		s, err := spec.Load(*specFlag)
		if err != nil {
			return nil, err
		}
		sc, err := spec.Compile(s)
		if err != nil {
			return nil, err
		}
		c.specPath = *specFlag
		c.validate = *validateFlag
		c.scenario = sc
	}
	if *attribFlag {
		if *specFlag != "" {
			return nil, fmt.Errorf("-attrib and -spec conflict: each replaces the paper suite")
		}
		if *traceFlag != "" {
			return nil, fmt.Errorf("-attrib and -trace-file conflict: each replaces the paper suite")
		}
	} else if *attribJSONFlag != "" || *attribTopFlag != 0 {
		return nil, fmt.Errorf("-attrib-json and -attrib-top require -attrib")
	}
	if *traceFlag != "" {
		if *appsFlag != "" {
			return nil, fmt.Errorf("-trace-file and -apps conflict: the trace is the workload")
		}
		format, err := traceio.ParseFormat(*traceFormatFlag)
		if err != nil {
			return nil, err
		}
		recs, _, err := traceio.LoadFile(*traceFlag, format)
		if err != nil {
			return nil, err
		}
		// Reject unsimulatable windows at parse time with the typed
		// traceio errors (ErrEmptyTrace / ErrNoConditionals): an empty or
		// conditional-free export should fail before any simulation runs.
		if err := traceio.CheckRecords(*traceFlag, recs); err != nil {
			return nil, err
		}
		c.tracePath = *traceFlag
		c.traceRecs = recs
	} else if *traceFormatFlag != "auto" {
		return nil, fmt.Errorf("-trace-format requires -trace-file")
	}
	return c, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// exitCode carries a failure out of run's driver closures via panic, so
// the whole suite stays testable in-process (no os.Exit on error paths).
type exitCode int

// openCache resolves the cache directory and opens the on-disk store,
// honoring -no-cache and falling back to uncached operation on errors.
func openCache(c *config, stderr io.Writer) *store.Cache {
	if c.noCache {
		return nil
	}
	dir := c.cacheDir
	if dir == "" {
		base, err := os.UserCacheDir()
		if err != nil {
			fmt.Fprintf(stderr, "cache disabled: %v\n", err)
			return nil
		}
		dir = filepath.Join(base, "whisper-sim")
	}
	cache, err := store.OpenCache(dir)
	if err != nil {
		fmt.Fprintf(stderr, "cache disabled: %v\n", err)
		return nil
	}
	return cache
}

// manifest describes the run for the journal's first line.
func (c *config) manifest() telemetry.Manifest {
	apps := make([]string, 0, len(c.opt.Apps))
	for _, a := range c.opt.Apps {
		apps = append(apps, a.Name())
	}
	only := make([]string, 0, len(c.only))
	for id := range c.only {
		only = append(only, id)
	}
	sort.Strings(only)
	cfg := map[string]any{
		"scale":   c.scaleName,
		"records": c.opt.Records,
		"apps":    apps,
		"only":    only,
		"cache":   !c.noCache,
	}
	if c.scenario != nil {
		cfg["spec"] = c.scenario.Name()
		cfg["spec_hash"] = c.scenario.Hash()
		cfg["apps"] = appListNames(c.scenario)
	}
	if c.tracePath != "" {
		cfg["trace"] = filepath.Base(c.tracePath)
		cfg["trace_records"] = len(c.traceRecs)
	}
	if c.attrib {
		cfg["attrib"] = true
	}
	return telemetry.Manifest{
		Tool:       "experiments",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    c.opt.Parallelism,
		Config:     cfg,
	}
}

// appListNames lists the scenario's resolved application names.
func appListNames(sc *spec.Scenario) []string {
	var names []string
	for _, a := range sc.WorkloadApps() {
		names = append(names, a.Name())
	}
	return names
}

// run executes the selected suite and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	c, err := parseConfig(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	opt := c.opt
	opt.Cache = openCache(c, stderr)

	// A journal or debug endpoint needs the process-wide registry; a
	// fresh one per run makes the final snapshot cover exactly this run
	// (and keeps in-process test runs isolated). Everything below is
	// deferred so the error paths (which unwind via panic(exitCode))
	// still snapshot and detach cleanly.
	var journal *telemetry.Journal
	if c.journal != "" || c.debugAddr != "" {
		prev := telemetry.Default()
		telemetry.Install(telemetry.NewRegistry())
		defer telemetry.Install(prev)
	}
	// The span tracer collects phase events for the Chrome export;
	// installed before the journal so the journal's closing defer can
	// write the phase spans it gathered.
	var tracebuf *telemetry.TraceBuffer
	if c.chromeTrace != "" {
		tracebuf = telemetry.NewTraceBuffer()
		prev := telemetry.InstallTracer(tracebuf)
		defer telemetry.InstallTracer(prev)
		defer func() {
			f, err := os.Create(c.chromeTrace)
			if err == nil {
				err = tracebuf.WriteChromeTrace(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(stderr, "chrome trace: %v\n", err)
				if code == 0 {
					code = 1
				}
				return
			}
			fmt.Fprintf(stderr, "wrote Chrome trace to %s (load in about://tracing or Perfetto)\n", c.chromeTrace)
		}()
	}
	if c.debugAddr != "" {
		srv, err := telemetry.ServeDebug(c.debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "debug endpoint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "debug endpoint: http://%s/metrics\n", srv.Addr())
		defer srv.Close()
	}
	if c.journal != "" {
		f, err := os.Create(c.journal)
		if err != nil {
			fmt.Fprintf(stderr, "journal: %v\n", err)
			return 2
		}
		journal = telemetry.NewJournal(f)
		journal.WriteManifest(c.manifest())
		defer func() {
			journal.WriteTraceSpans(tracebuf)
			journal.WriteSnapshot(telemetry.Default())
			if err := journal.Err(); err != nil {
				fmt.Fprintf(stderr, "journal: %v\n", err)
				if code == 0 {
					code = 1
				}
			}
			if err := f.Close(); err != nil && code == 0 {
				fmt.Fprintf(stderr, "journal: %v\n", err)
				code = 1
			}
		}()
	}

	var mon *runner.Monitor
	if c.progress {
		mon = runner.NewMonitor(stderr)
	} else if c.timing || journal != nil || c.debugAddr != "" {
		// Silent monitor: no progress line, but unit accounting still
		// feeds the journal and the whisper_runner_* series on /metrics.
		mon = runner.NewMonitor(nil)
	}
	if journal != nil && mon != nil {
		mon.AttachJournal(journal)
	}
	opt.Monitor = mon

	defer func() {
		if r := recover(); r != nil {
			ec, ok := r.(exitCode)
			if !ok {
				panic(r)
			}
			code = int(ec)
		}
	}()

	emit := func(t *stats.Table) {
		if mon != nil {
			mon.Done() // clear the progress line before table output
		}
		switch {
		case c.csv:
			fmt.Fprint(stdout, t.Title+"\n"+t.CSV()+"\n")
		case c.plot:
			fmt.Fprintln(stdout, plot.Render(t, 48))
		default:
			fmt.Fprintln(stdout, t.String())
		}
	}
	fail := func(id string, err error) {
		if mon != nil {
			mon.Done()
		}
		fmt.Fprintf(stderr, "%s failed: %v\n", id, err)
		panic(exitCode(1))
	}
	timed := func(id string, f func() (*stats.Table, error)) {
		if !c.run(id) {
			return
		}
		start := time.Now()
		t, err := f()
		if err != nil {
			fail(id, err)
		}
		emit(t)
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	// -attrib replaces the paper suite with the attribution study: one
	// per-branch misprediction report per configured app, plus optional
	// canonical JSON (-attrib-json) and journal attrib lines.
	if c.attrib {
		start := time.Now()
		ar, err := experiments.RunAttrib(opt, c.attribTop)
		if err != nil {
			fail("attrib", err)
		}
		if mon != nil {
			mon.Done()
		}
		for _, r := range ar.Reports {
			fmt.Fprintf(stdout, "== %s: misprediction attribution ==\n", r.Workload)
			r.SummaryLines(stdout)
			fmt.Fprintln(stdout)
			emit(r.BranchTable())
			emit(r.HintTable())
			journal.WriteAttrib(r.Workload, r.Map())
		}
		fmt.Fprintf(stdout, "[attrib completed in %v]\n\n", time.Since(start).Round(time.Millisecond))
		if c.attribJSON != "" {
			f, err := os.Create(c.attribJSON)
			if err == nil {
				err = attrib.WriteJSONList(f, ar.Reports)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(stderr, "attrib json: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "wrote attribution reports to %s\n", c.attribJSON)
		}
		if c.timing && mon != nil {
			fmt.Fprintln(stderr, mon.Summary())
		}
		return 0
	}

	// -trace-file replaces the paper suite with the imported-trace
	// evaluation: one Whisper-vs-baseline table over the external window.
	if c.tracePath != "" {
		timed("import", func() (*stats.Table, error) {
			r, err := experiments.RunImportedTrace(opt, filepath.Base(c.tracePath), c.traceRecs)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		})
		if mon != nil {
			mon.Done()
		}
		if c.timing {
			if mon != nil {
				fmt.Fprintln(stderr, mon.Summary())
			}
			if opt.Cache != nil {
				s := opt.Cache.Stats()
				fmt.Fprintf(stderr, "disk cache (%s): profiles %d hits / %d misses, trains %d hits / %d misses, %d rejected\n",
					opt.Cache.Dir(), s.ProfileHits, s.ProfileMisses, s.TrainHits, s.TrainMisses, s.Rejected)
			}
		}
		return 0
	}

	// -spec replaces the paper suite with the scenario drivers: a
	// summary of the compiled timeline, the per-phase Whisper/TAGE
	// comparison, and the hint-staleness study. -validate stops after
	// the summary (no simulation), which is what CI runs over every
	// example spec.
	if sc := c.scenario; sc != nil {
		timed("spec", func() (*stats.Table, error) { return experiments.SpecSummary(sc), nil })
		if !c.validate {
			timed("phases", func() (*stats.Table, error) {
				r, err := experiments.SpecPhases(opt, sc)
				if err != nil {
					return nil, err
				}
				return r.Table(), nil
			})
			timed("staleness", func() (*stats.Table, error) {
				r, err := experiments.Staleness(opt, sc)
				if err != nil {
					return nil, err
				}
				return r.Table(), nil
			})
		}
		if mon != nil {
			mon.Done()
		}
		if c.timing {
			if mon != nil {
				fmt.Fprintln(stderr, mon.Summary())
			}
			if opt.Cache != nil {
				s := opt.Cache.Stats()
				fmt.Fprintf(stderr, "disk cache (%s): profiles %d hits / %d misses, trains %d hits / %d misses, %d rejected\n",
					opt.Cache.Dir(), s.ProfileHits, s.ProfileMisses, s.TrainHits, s.TrainMisses, s.Rejected)
			}
		}
		return 0
	}

	timed("table1", func() (*stats.Table, error) { return experiments.TableI(), nil })
	timed("table2", func() (*stats.Table, error) { return experiments.TableII(opt), nil })
	timed("table3", func() (*stats.Table, error) { return experiments.TableIII(opt), nil })

	timed("fig1", func() (*stats.Table, error) {
		r, err := experiments.Fig1(opt)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	})
	timed("fig2", func() (*stats.Table, error) {
		r, err := experiments.Fig2(opt)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	})
	timed("fig3", func() (*stats.Table, error) {
		r, err := experiments.Fig3(opt)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	})
	timed("fig4", func() (*stats.Table, error) {
		c, err := experiments.Fig4(opt)
		if err != nil {
			return nil, err
		}
		return c.ReductionTable("Fig 4: misprediction reduction of prior profile-guided techniques (%)"), nil
	})
	timed("fig5", func() (*stats.Table, error) {
		r, err := experiments.Fig5(opt)
		if err != nil {
			return nil, err
		}
		t := r.Table()
		t.Title = "Fig 5b: " + t.Title
		return t, nil
	})
	timed("fig5spec", func() (*stats.Table, error) {
		sopt := opt
		sopt.Apps = workload.SpecApps()
		r, err := experiments.Fig5(sopt)
		if err != nil {
			return nil, err
		}
		t := r.Table()
		t.Title = "Fig 5a: " + t.Title
		return t, nil
	})
	timed("fig6", func() (*stats.Table, error) {
		r, err := experiments.Fig6(opt)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	})
	timed("fig7", func() (*stats.Table, error) {
		r, err := experiments.Fig7(opt)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	})

	// Figures 12, 13 and 16 share one comparison run.
	if c.run("fig12") || c.run("fig13") || c.run("fig16") {
		start := time.Now()
		cmp, err := experiments.Fig12and13(opt)
		if err != nil {
			fail("fig12/13/16", err)
		}
		if c.run("fig12") {
			emit(cmp.SpeedupTable("Fig 12: speedup over 64KB TAGE-SC-L (%)"))
		}
		if c.run("fig13") {
			emit(cmp.ReductionTable("Fig 13: misprediction reduction over 64KB TAGE-SC-L (%)"))
		}
		if c.run("fig16") {
			emit(cmp.TrainTimeTable())
		}
		fmt.Fprintf(stdout, "[fig12/13/16 completed in %v]\n\n", time.Since(start).Round(time.Millisecond))
	}

	timed("fig14", func() (*stats.Table, error) {
		r, err := experiments.Fig14(opt)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	})
	timed("fig15", func() (*stats.Table, error) {
		r, err := experiments.Fig15(opt, nil)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	})
	timed("fig17", func() (*stats.Table, error) {
		r, err := experiments.Fig17(opt, nil)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	})
	timed("fig18", func() (*stats.Table, error) {
		r, err := experiments.Fig18(opt, 5)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	})
	timed("fig19", func() (*stats.Table, error) {
		r, err := experiments.Fig19(opt)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	})
	timed("fig20", func() (*stats.Table, error) {
		r, err := experiments.Fig20(opt)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	})
	timed("fig21", func() (*stats.Table, error) {
		r, err := experiments.Fig21(opt, nil)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	})
	timed("fig22", func() (*stats.Table, error) {
		r, err := experiments.Fig22(opt, nil)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	})
	timed("fig23", func() (*stats.Table, error) {
		r, err := experiments.Fig23(opt, nil)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	})
	timed("buffersweep", func() (*stats.Table, error) {
		r, err := experiments.BufferSweep(opt, nil)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	})
	timed("ablations", func() (*stats.Table, error) {
		r, err := experiments.Ablations(opt)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	})

	// The cross-workload transfer study is quadratic in the app count,
	// so it only runs when selected explicitly with -only transfer.
	if c.only["transfer"] {
		start := time.Now()
		tr, err := experiments.RunTransfer(opt)
		if err != nil {
			fail("transfer", err)
		}
		emit(tr.ReductionTable())
		emit(tr.OverlapTable())
		emit(tr.SummaryTable())
		fmt.Fprintf(stdout, "[transfer completed in %v]\n\n", time.Since(start).Round(time.Millisecond))
	}

	if mon != nil {
		mon.Done()
	}
	// The cache stats are not monitor state: print them for every
	// -timing run, whether or not a monitor/progress writer is attached.
	if c.timing {
		if mon != nil {
			fmt.Fprintln(stderr, mon.Summary())
		}
		hits, misses := experiments.BaselineCacheStats()
		fmt.Fprintf(stderr, "baseline cache: %d hits, %d misses\n", hits, misses)
		if opt.Cache != nil {
			s := opt.Cache.Stats()
			fmt.Fprintf(stderr, "disk cache (%s): profiles %d hits / %d misses, trains %d hits / %d misses, %d rejected\n",
				opt.Cache.Dir(), s.ProfileHits, s.ProfileMisses, s.TrainHits, s.TrainMisses, s.Rejected)
		}
	}
	return 0
}
