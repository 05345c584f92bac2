// Command benchmark is the repository's end-to-end benchmark. It drives
// the Whisper reproduction from outside only: the public whisper API
// in-process, and the built `whisper serve` and `experiments` binaries
// as child processes. The traced run (-trace 1) additionally calls the
// layer packages workload, profiler, core, cfg, pipeline, store and
// traceio directly, to break each workload's time down by layer.
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// It prints one "name value unit" line per metric (informational extras
// start with "#"), then, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// of the untraced run, or the per-layer metrics of the traced run. The
// exit code is 0 when every output check passed, 1 when one failed, and
// 2 on a usage error. README.md defines the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run of every workload. Each workload defines them for its
// own operations (see README.md); none is ever 0. Times are normalized
// to a reference host speed (see env.measure).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"result_s", "s"},
	{"request_p50_ms", "ms"},
	{"slo_frac", "ratio"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. Every workload measures every
// one: the layer probe runs the Fig 10 flow one layer package at a time
// on the workload's own inputs, and the remaining metrics come from the
// workload's own traced execution. Server and runner metrics read 0 on
// workloads that do not run a server or the experiments runner.
var perLayer = []metricDef{
	{"workload.synth_ns_per_rec", "ns/rec"},
	{"profiler.collect_s", "s"},
	{"core.train_s", "s"},
	{"core.formula_evals", "count"},
	{"core.hard_branches", "count"},
	{"core.hints", "count"},
	{"core.evals_per_hint", "ratio"},
	{"cfg.build_s", "s"},
	{"core.inject_s", "s"},
	{"core.hints_placed", "count"},
	{"core.hints_dropped", "count"},
	{"pipeline.eval_base_s", "s"},
	{"pipeline.eval_whisper_s", "s"},
	{"pipeline.batched_ns_per_rec", "ns/rec"},
	{"pipeline.phase_a_ns_per_rec", "ns/rec"},
	{"pipeline.phase_b_ns_per_rec", "ns/rec"},
	{"pipeline.phase_b_share", "ratio"},
	{"pipeline.reconcile_ratio", "ratio"},
	{"core.hint_buffer_hit_rate", "ratio"},
	{"store.encode_ms", "ms"},
	{"store.decode_ms", "ms"},
	{"store.bundle_kb", "KB"},
	{"traceio.encode_ns_per_rec", "ns/rec"},
	{"traceio.decode_ns_per_rec", "ns/rec"},
	{"phase.profile_s", "s"},
	{"phase.train_s", "s"},
	{"layers.reconcile_ratio", "ratio"},
	{"req.count", "count"},
	{"req.tail_ms", "ms"},
	{"req.tail_pct", "%"},
	{"go.alloc_mb", "MB"},
	{"gc.cpu_frac", "ratio"},
	{"gc.cycles", "count"},
	{"proc.cpu_frac", "ratio"},
	{"host.ref_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"server.posts", "count"},
	{"server.gets", "count"},
	{"server.retrains", "count"},
	{"server.not_modified_ratio", "ratio"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.get_in_retrain_ratio", "ratio"},
	{"gen.late_frac", "ratio"},
	{"runner.units", "count"},
	{"runner.concurrency", "ratio"},
	{"experiments.baseline_hit_ratio", "ratio"},
}

// workload is one benchmark workload: a named input set and the code
// that drives the program with it.
type workload struct {
	name string
	run  func(*env) error
}

// workloads are the registered workloads at their benchmark sizes;
// README.md records why each was chosen.
func workloads() []workload {
	return []workload{
		{"oneshot-train", defaultOneshotTrain().run},
		{"oneshot-sim", defaultOneshotSim().run},
		{"suite-tiny", defaultSuite().run},
		{"serve-drift", defaultServe().run},
	}
}

// errUsage marks a configuration error (unknown workload or app): the
// benchmark exits 2 without a result.
var errUsage = errors.New("usage")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	all := workloads()
	var names []string
	for _, w := range all {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 25, "length of the measured part of the run, in seconds")
	traced := fs.Int("trace", 0, "0 reports the end-to-end metrics; 1 runs traced and reports the per-layer metrics")
	out := fs.String("out", ".bench_build", "build directory: bin/ holds the whisper and experiments binaries; scratch files and the Chrome trace go under it")
	jsonPath := fs.String("json", "", "also write the result, with host details, to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var w *workload
	for i := range all {
		if all[i].name == *name {
			w = &all[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(ctx, *out, w.name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	err = e.measure(w.run)
	if errors.Is(err, errUsage) {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if err != nil {
		e.fail("%s: %v", w.name, err)
	}
	if e.spans != nil {
		path := filepath.Join(e.work, "trace.json")
		if err := e.spans.writeChrome(path); err != nil {
			e.fail("writing Chrome trace: %v", err)
		} else {
			fmt.Fprintf(stderr, "benchmark: wrote Chrome trace to %s (load in Perfetto)\n", path)
		}
	}

	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	res := e.result(defs)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%s %v %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	for _, k := range sortedKeys(e.info) {
		fmt.Fprintf(stdout, "# %s %v\n", k, e.info[k])
	}
	fmt.Fprintf(stdout, "# gomaxprocs %d\n", runtime.GOMAXPROCS(0))
	for _, p := range e.problems {
		fmt.Fprintf(stderr, "benchmark: check failed: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: encoding result: %v\n", err)
		return 1
	}
	if *jsonPath != "" {
		if err := writeJSONFile(*jsonPath, w.name, *seed, *seconds, e, res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// outcome is the result object: the last line of stdout.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is one benchmark run's shared state: its settings, the metrics and
// checks the workload records, and (traced runs only) the span recorder.
type env struct {
	ctx     context.Context
	seed    int64
	seconds time.Duration
	traced  bool
	// bin holds the whisper and experiments binaries; work is this
	// run's scratch directory.
	bin, work string
	log       io.Writer
	spans     *recorder

	metrics map[string]float64
	info    map[string]float64
	// refs are the run's host reference kernel times (see sampleHost).
	refs []float64
	// seen holds every reference key the run computed (see expect).
	seen map[string]string

	attempted, failed int
	problems          []string
}

func newEnv(ctx context.Context, out, name string, seed int64, seconds time.Duration, traced bool, log io.Writer) (*env, error) {
	mode := "e2e"
	if traced {
		mode = "traced"
	}
	work := filepath.Join(out, "work", fmt.Sprintf("%s-seed%d-%s", name, seed, mode))
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(out)
	if err != nil {
		return nil, err
	}
	e := &env{
		ctx:     ctx,
		seed:    seed,
		seconds: seconds,
		traced:  traced,
		bin:     filepath.Join(abs, "bin"),
		work:    work,
		log:     log,
		metrics: map[string]float64{},
		info:    map[string]float64{},
		seen:    map[string]string{},
	}
	if traced {
		e.spans = newRecorder()
	}
	return e, nil
}

// refNominalMS is about the host reference kernel's time (see hostRef)
// on an unloaded 2-vCPU virtual machine: the speed end-to-end times are
// normalized to.
const refNominalMS = 25

// sampleHost times the host reference kernel three times. Workloads call
// it between their timed operations, so host.ref_ms samples the host
// throughout the run; the serve workload also samples during its open
// loop.
func (e *env) sampleHost() {
	for i := 0; i < 3; i++ {
		e.refs = append(e.refs, hostRef())
	}
}

// measure runs a workload, sampling the host reference kernel before,
// after and (through sampleHost) during it; host.ref_ms is the median
// sample. The untraced run then scales its end-to-end times by
// refNominalMS ÷ host.ref_ms: the time the run would have taken on a host
// running the kernel in refNominalMS. On a shared host, wall times drift
// by up to 40% over minutes, and this removes part of that drift while
// keeping every change in the program's own speed; the measured times
// are printed as "<metric>_raw" lines.
func (e *env) measure(run func(*env) error) error {
	e.sampleHost()
	err := run(e)
	e.sampleHost()
	ref := median(e.refs)
	e.set("host.ref_ms", ref)
	if !e.traced {
		e.note("host_ref_ms", ref)
		for _, d := range endToEnd {
			if v, ok := e.metrics[d.Name]; ok && (d.Unit == "s" || d.Unit == "ms") {
				e.note(d.Name+"_raw", v)
				e.set(d.Name, v*refNominalMS/ref)
			}
		}
	}
	return err
}

func (e *env) set(name string, v float64)  { e.metrics[name] = v }
func (e *env) note(name string, v float64) { e.info[name] = v }

// op counts one attempted operation and whether it failed.
func (e *env) op(ok bool) {
	e.attempted++
	if !ok {
		e.failed++
	}
}

// fail records a failed output check; the run is then not correct.
func (e *env) fail(format string, args ...any) {
	e.problems = append(e.problems, fmt.Sprintf(format, args...))
}

// expect records a computed output digest under key and compares it with
// the committed reference, when one exists for that key, and with what
// the run computed for the key before.
func (e *env) expect(key, got string) {
	if want, ok := references[key]; ok && want != got {
		e.fail("%s: got %s, reference %s", key, got, want)
	}
	if prev, ok := e.seen[key]; ok && prev != got {
		e.fail("%s: got %s, earlier in this run %s", key, got, prev)
	}
	e.seen[key] = got
}

// result assembles the outcome over defs. A metric the workload did not
// set, or set to a non-finite value, is a benchmark bug and fails the run.
func (e *env) result(defs []metricDef) outcome {
	res := outcome{Attempted: e.attempted, Failed: e.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := e.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			e.fail("metric %s not measured (%v)", d.Name, v)
			v = 0
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if res.Attempted == 0 {
		e.fail("no operation attempted")
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = len(e.problems) == 0 && res.Failed == 0
	return res
}

// writeJSONFile writes the -json document: the outcome plus the
// informational values and the host details a baseline needs.
func writeJSONFile(path, name string, seed int64, seconds int, e *env, res outcome) error {
	doc := map[string]any{
		"workload":    name,
		"seed":        seed,
		"seconds":     seconds,
		"traced":      e.traced,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"host_ref_ms": e.metrics["host.ref_ms"],
		"result":      res,
		"info":        e.info,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
