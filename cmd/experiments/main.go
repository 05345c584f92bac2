// Command experiments regenerates every table and figure of the paper's
// evaluation at a configurable scale.
//
// Usage:
//
//	experiments [-scale tiny|small|full] [-records N] [-only fig13,fig12]
//	            [-apps mysql,kafka] [-j N] [-progress] [-timing]
//	            [-csv] [-cache DIR] [-no-cache] [-journal FILE]
//	            [-debug-addr ADDR] [-trace-file FILE [-trace-format F]]
//
// Without -only it runs the complete suite in paper order. Results print
// as aligned text tables (or CSV with -csv); docs/experiments.md maps
// every id to its paper table or figure and records the paper-vs-measured
// comparison for a small-scale run. -only rejects an id the selected
// mode cannot print (exit 2, naming the valid ids).
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
// purely a wall-clock knob. -progress draws a live done/total/ETA line
// on stderr and -timing prints a per-unit accounting summary at the end.
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
	obs       cliflags.Obs
	validate  bool
	scenario  *spec.Scenario
	tracePath string
	traceRecs []trace.Record

	// attrib selects the standalone attribution study; attribJSON and
	// attribTop are its options.
	attrib     bool
	attribJSON string
	attribTop  int
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
	traceFlag, traceFormatFlag := ti.File, ti.Format

	c := &config{
		opt:        experiments.Default(),
		only:       map[string]bool{},
		csv:        *csvFlag,
		plot:       *plotFlag,
		progress:   *progressFlag,
		timing:     *timingFlag,
		cacheDir:   *cacheFlag,
		noCache:    *noCacheFlag,
		scaleName:  *scaleFlag,
		obs:        obs,
		attrib:     *attribFlag,
		attribJSON: *attribJSONFlag,
		attribTop:  *attribTopFlag,
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
		if *onlyFlag != "" {
			return nil, fmt.Errorf("-attrib and -only conflict: the study prints one report per app")
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

	if *onlyFlag != "" {
		valid := map[string]bool{}
		var ids []string
		for _, e := range c.table() {
			for _, id := range e.onlyIDs() {
				valid[id] = true
				ids = append(ids, id)
			}
		}
		for _, id := range strings.Split(*onlyFlag, ",") {
			id = strings.ToLower(strings.TrimSpace(id))
			if !valid[id] {
				return nil, fmt.Errorf("unknown -only id %q (valid: %s)", id, strings.Join(ids, ", "))
			}
			c.only[id] = true
		}
	}
	return c, nil
}

// experiment is one row of a run table: a driver and the tables it
// prints.
type experiment struct {
	// label names the row in its "[label completed in …]" footer and,
	// without ids, is the -only id of all its tables.
	label string
	// ids, when set, are the -only ids of the tables run returns, one
	// per table: the row runs when -only selects any of them and prints
	// the tables it selects.
	ids []string
	// optIn rows run only when -only names them.
	optIn bool
	run   func(experiments.Options) ([]*stats.Table, error)
}

// onlyIDs lists the -only ids that select e.
func (e experiment) onlyIDs() []string {
	if e.ids != nil {
		return e.ids
	}
	return []string{e.label}
}

// tabled renders a driver result that prints as one table.
func tabled[R interface{ Table() *stats.Table }](r R, err error) ([]*stats.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*stats.Table{r.Table()}, nil
}

// fig5 renders Fig 5 over o's apps with the panel's title prefix.
func fig5(prefix string, o experiments.Options) ([]*stats.Table, error) {
	r, err := experiments.Fig5(o)
	if err != nil {
		return nil, err
	}
	t := r.Table()
	t.Title = prefix + t.Title
	return []*stats.Table{t}, nil
}

// paperSuite is the default run table, in paper order.
var paperSuite = []experiment{
	{label: "table1", run: func(experiments.Options) ([]*stats.Table, error) {
		return []*stats.Table{experiments.TableI()}, nil
	}},
	{label: "table2", run: func(o experiments.Options) ([]*stats.Table, error) {
		return []*stats.Table{experiments.TableII(o)}, nil
	}},
	{label: "table3", run: func(o experiments.Options) ([]*stats.Table, error) {
		return []*stats.Table{experiments.TableIII(o)}, nil
	}},
	{label: "fig1", run: func(o experiments.Options) ([]*stats.Table, error) { return tabled(experiments.Fig1(o)) }},
	{label: "fig2", run: func(o experiments.Options) ([]*stats.Table, error) { return tabled(experiments.Fig2(o)) }},
	{label: "fig3", run: func(o experiments.Options) ([]*stats.Table, error) { return tabled(experiments.Fig3(o)) }},
	{label: "fig4", run: func(o experiments.Options) ([]*stats.Table, error) {
		c, err := experiments.Fig4(o)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{c.ReductionTable("Fig 4: misprediction reduction of prior profile-guided techniques (%)")}, nil
	}},
	{label: "fig5", run: func(o experiments.Options) ([]*stats.Table, error) { return fig5("Fig 5b: ", o) }},
	{label: "fig5spec", run: func(o experiments.Options) ([]*stats.Table, error) {
		o.Apps = workload.SpecApps()
		return fig5("Fig 5a: ", o)
	}},
	{label: "fig6", run: func(o experiments.Options) ([]*stats.Table, error) { return tabled(experiments.Fig6(o)) }},
	{label: "fig7", run: func(o experiments.Options) ([]*stats.Table, error) { return tabled(experiments.Fig7(o)) }},
	// Figures 12, 13 and 16 share one comparison run.
	{label: "fig12/13/16", ids: []string{"fig12", "fig13", "fig16"}, run: func(o experiments.Options) ([]*stats.Table, error) {
		c, err := experiments.Fig12and13(o)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{
			c.SpeedupTable("Fig 12: speedup over 64KB TAGE-SC-L (%)"),
			c.ReductionTable("Fig 13: misprediction reduction over 64KB TAGE-SC-L (%)"),
			c.TrainTimeTable(),
		}, nil
	}},
	{label: "fig14", run: func(o experiments.Options) ([]*stats.Table, error) { return tabled(experiments.Fig14(o)) }},
	{label: "fig15", run: func(o experiments.Options) ([]*stats.Table, error) { return tabled(experiments.Fig15(o, nil)) }},
	{label: "fig17", run: func(o experiments.Options) ([]*stats.Table, error) { return tabled(experiments.Fig17(o, nil)) }},
	{label: "fig18", run: func(o experiments.Options) ([]*stats.Table, error) { return tabled(experiments.Fig18(o, 5)) }},
	{label: "fig19", run: func(o experiments.Options) ([]*stats.Table, error) { return tabled(experiments.Fig19(o)) }},
	{label: "fig20", run: func(o experiments.Options) ([]*stats.Table, error) { return tabled(experiments.Fig20(o)) }},
	{label: "fig21", run: func(o experiments.Options) ([]*stats.Table, error) { return tabled(experiments.Fig21(o, nil)) }},
	{label: "fig22", run: func(o experiments.Options) ([]*stats.Table, error) { return tabled(experiments.Fig22(o, nil)) }},
	{label: "fig23", run: func(o experiments.Options) ([]*stats.Table, error) { return tabled(experiments.Fig23(o, nil)) }},
	{label: "buffersweep", run: func(o experiments.Options) ([]*stats.Table, error) {
		return tabled(experiments.BufferSweep(o, nil))
	}},
	{label: "ablations", run: func(o experiments.Options) ([]*stats.Table, error) { return tabled(experiments.Ablations(o)) }},
	// The cross-workload transfer study is quadratic in the app count,
	// so it only runs when selected explicitly with -only transfer.
	{label: "transfer", optIn: true, run: func(o experiments.Options) ([]*stats.Table, error) {
		tr, err := experiments.RunTransfer(o)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{tr.ReductionTable(), tr.OverlapTable(), tr.SummaryTable()}, nil
	}},
}

// table returns the selected mode's run table. -spec replaces the paper
// suite with the scenario drivers: a summary of the compiled timeline,
// the per-phase Whisper/TAGE comparison, and the hint-staleness study;
// -validate stops after the summary (no simulation), which is what CI
// runs over every example spec. -trace-file replaces it with one
// Whisper-vs-baseline table over the imported window. The -attrib study
// prints no tables of its own and has no rows.
func (c *config) table() []experiment {
	switch {
	case c.attrib:
		return nil
	case c.scenario != nil:
		sc := c.scenario
		rows := []experiment{{label: "spec", run: func(experiments.Options) ([]*stats.Table, error) {
			return []*stats.Table{experiments.SpecSummary(sc)}, nil
		}}}
		if c.validate {
			return rows
		}
		return append(rows,
			experiment{label: "phases", run: func(o experiments.Options) ([]*stats.Table, error) {
				return tabled(experiments.SpecPhases(o, sc))
			}},
			experiment{label: "staleness", run: func(o experiments.Options) ([]*stats.Table, error) {
				return tabled(experiments.Staleness(o, sc))
			}})
	case c.tracePath != "":
		name, recs := filepath.Base(c.tracePath), c.traceRecs
		return []experiment{{label: "import", run: func(o experiments.Options) ([]*stats.Table, error) {
			return tabled(experiments.RunImportedTrace(o, name, recs))
		}}}
	}
	return paperSuite
}

// selects reports whether row e runs: -only names one of its ids, or
// -only is empty and e is not opt-in.
func (c *config) selects(e experiment) bool {
	if len(c.only) == 0 {
		return !e.optIn
	}
	for _, id := range e.onlyIDs() {
		if c.only[id] {
			return true
		}
	}
	return false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

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
	return telemetry.Manifest{Tool: "experiments", Workers: c.opt.Parallelism, Config: cfg}
}

// appListNames lists the scenario's resolved application names.
func appListNames(sc *spec.Scenario) []string {
	var names []string
	for _, a := range sc.WorkloadApps() {
		names = append(names, a.Name())
	}
	return names
}

// run executes the selected mode and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	c, err := parseConfig(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	opt := c.opt
	opt.Cache = openCache(c, stderr)
	sess, ok := c.obs.Start(c.manifest(), stderr)
	if !ok {
		return 2
	}
	defer func() { code = sess.CloseCode(code) }()

	var mon *runner.Monitor
	if c.progress {
		mon = runner.NewMonitor(stderr)
	} else if c.timing || sess.Journal != nil || *c.obs.DebugAddr != "" {
		// Silent monitor: no progress line, but unit accounting still
		// feeds the journal and the whisper_runner_* series on /metrics.
		mon = runner.NewMonitor(nil)
	}
	if sess.Journal != nil && mon != nil {
		mon.AttachJournal(sess.Journal)
	}
	opt.Monitor = mon
	// done clears the progress line before output.
	done := func() {
		if mon != nil {
			mon.Done()
		}
	}
	emit := func(t *stats.Table) {
		done()
		switch {
		case c.csv:
			fmt.Fprint(stdout, t.Title+"\n"+t.CSV()+"\n")
		case c.plot:
			fmt.Fprintln(stdout, plot.Render(t, 48))
		default:
			fmt.Fprintln(stdout, t.String())
		}
	}
	footer := func(label string, start time.Time) {
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", label, time.Since(start).Round(time.Millisecond))
	}

	// -attrib replaces the paper suite with the attribution study: one
	// per-branch misprediction report per configured app, plus optional
	// canonical JSON (-attrib-json) and journal attrib lines.
	if c.attrib {
		start := time.Now()
		ar, err := experiments.RunAttrib(opt, c.attribTop)
		done()
		if err != nil {
			fmt.Fprintf(stderr, "attrib failed: %v\n", err)
			return 1
		}
		for _, r := range ar.Reports {
			fmt.Fprintf(stdout, "== %s: misprediction attribution ==\n", r.Workload)
			r.SummaryLines(stdout)
			fmt.Fprintln(stdout)
			emit(r.BranchTable())
			emit(r.HintTable())
			sess.Journal.WriteAttrib(r.Workload, r.Map())
		}
		footer("attrib", start)
		if c.attribJSON != "" {
			if err := writeAttribJSON(c.attribJSON, ar.Reports); err != nil {
				fmt.Fprintf(stderr, "attrib json: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "wrote attribution reports to %s\n", c.attribJSON)
		}
	}

	for _, e := range c.table() {
		if !c.selects(e) {
			continue
		}
		start := time.Now()
		tables, err := e.run(opt)
		if err != nil {
			done()
			fmt.Fprintf(stderr, "%s failed: %v\n", e.label, err)
			return 1
		}
		for i, t := range tables {
			if e.ids == nil || c.run(e.ids[i]) {
				emit(t)
			}
		}
		footer(e.label, start)
	}

	done()
	// The cache stats are not monitor state: print them for every
	// -timing run (which always has a monitor).
	if c.timing {
		fmt.Fprintln(stderr, mon.Summary())
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

// writeAttribJSON writes the canonical attribution documents to path.
func writeAttribJSON(path string, reports []*attrib.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := attrib.WriteJSONList(f, reports); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
