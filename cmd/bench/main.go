// Command bench measures the pipeline's scalar reference loop against
// the batched record-block engine over a pinned workload/predictor
// matrix and writes a BENCH_<name>.json report in the benchio schema.
//
// Usage:
//
//	bench [-name N] [-o FILE] [-records N] [-reps N] [-block N]
//	      [-apps mysql,kafka] [-predictors tage-sc-l-64KB,...]
//	      [-smoke] [-check]
//
// Each matrix cell replays one pre-collected record stream through both
// engines with a fresh predictor per repetition. An untimed warmup
// repetition per engine precedes measurement, and scalar/batched timed
// repetitions are interleaved so machine noise (frequency steps, noisy
// neighbours) hits both engines alike; the report carries the medians.
// Every repetition's pipeline.Result is also compared against the
// scalar reference — the benchmark refuses to time two engines that
// disagree on a single counter.
//
// -smoke shrinks the matrix and scale for CI; -check exits nonzero if
// any cell's batched engine is slower than the scalar one.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/whisper-sim/whisper/internal/benchio"
	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/mtage"
	"github.com/whisper-sim/whisper/internal/perceptron"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
)

// predictorFactories is the pinned predictor menu. Keys are the names
// used in reports and on the -predictors flag.
var predictorFactories = map[string]func() bpu.Predictor{
	"tage-sc-l-64KB":  func() bpu.Predictor { return tage.New(tage.DefaultConfig()) },
	"tage-sc-l-8KB":   func() bpu.Predictor { return tage.New(tage.Config{SizeKB: 8}) },
	"mtage-sc":        func() bpu.Predictor { return mtage.New() },
	"perceptron-64KB": func() bpu.Predictor { return perceptron.New(perceptron.DefaultConfig()) },
	"bimodal":         func() bpu.Predictor { return bpu.NewBimodal(14) },
}

// defaultMatrix is the pinned full-run matrix; smokeMatrix the CI one.
var (
	defaultApps       = []string{"mysql", "kafka"}
	defaultPredictors = []string{"tage-sc-l-64KB", "tage-sc-l-8KB", "mtage-sc", "perceptron-64KB", "bimodal"}
	// The smoke matrix pins predictors with native batch fast paths:
	// those are the cells -check gates on, and the ones whose regression
	// would mean the batching machinery broke. bimodal rides through the
	// scalar-adapter fallback, so its batched cost legitimately hovers
	// around 1.0x and belongs in full runs only.
	smokeApps       = []string{"mysql"}
	smokePredictors = []string{"tage-sc-l-64KB", "tage-sc-l-8KB", "mtage-sc"}
)

type config struct {
	name       string
	out        string
	records    int
	reps       int
	block      int
	apps       []string
	predictors []string
	smoke      bool
	check      bool
	validate   string
}

func parseConfig(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nameFlag := fs.String("name", "batched_core", "report name (file defaults to BENCH_<name>.json)")
	outFlag := fs.String("o", "", "output path (default BENCH_<name>.json; \"-\" suppresses the file)")
	recordsFlag := fs.Int("records", 200000, "records per measured repetition")
	repsFlag := fs.Int("reps", 5, "timed repetitions per engine (medians are reported)")
	blockFlag := fs.Int("block", 0, "batched engine block size (0 = default)")
	appsFlag := fs.String("apps", "", "comma-separated app subset (default mysql,kafka)")
	predFlag := fs.String("predictors", "", "comma-separated predictor subset")
	smokeFlag := fs.Bool("smoke", false, "CI smoke run: tiny matrix and scale")
	checkFlag := fs.Bool("check", false, "exit nonzero if any batched cell is slower than scalar")
	validateFlag := fs.String("validate", "", "validate an existing report FILE and exit (no benchmarking)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	c := &config{
		name:       *nameFlag,
		out:        *outFlag,
		records:    *recordsFlag,
		reps:       *repsFlag,
		block:      *blockFlag,
		apps:       defaultApps,
		predictors: defaultPredictors,
		smoke:      *smokeFlag,
		check:      *checkFlag,
		validate:   *validateFlag,
	}
	if c.validate != "" {
		return c, nil // validation mode ignores the matrix flags
	}
	if c.smoke {
		c.apps, c.predictors = smokeApps, smokePredictors
		if !flagSet(fs, "records") {
			c.records = 20000
		}
		if !flagSet(fs, "reps") {
			c.reps = 2
		}
	}
	if *appsFlag != "" {
		c.apps = splitList(*appsFlag)
	}
	if *predFlag != "" {
		c.predictors = splitList(*predFlag)
	}
	if c.records < 1 || c.reps < 1 {
		return nil, fmt.Errorf("bench: -records and -reps must be positive")
	}
	for _, p := range c.predictors {
		if predictorFactories[p] == nil {
			return nil, fmt.Errorf("bench: unknown predictor %q (have %s)",
				p, strings.Join(knownPredictors(), ", "))
		}
	}
	if c.out == "" {
		c.out = "BENCH_" + c.name + ".json"
	}
	return c, nil
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func knownPredictors() []string {
	names := make([]string, 0, len(predictorFactories))
	for name := range predictorFactories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// measure times one engine pass over recs with a fresh predictor.
// block < 0 selects the scalar reference loop.
func measure(recs []trace.Record, mk func() bpu.Predictor, block int) (time.Duration, pipeline.Result) {
	opt := pipeline.Options{Config: pipeline.DefaultConfig(), BlockSize: block}
	p := mk()
	start := time.Now()
	res := pipeline.Run(trace.NewSliceStream(recs), p, opt)
	return time.Since(start), res
}

// median of a small sample, destructive on order.
func median(d []time.Duration) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// benchCell measures one (app, predictor) cell: an untimed warmup pass
// per engine, then interleaved timed repetitions.
func benchCell(c *config, recs []trace.Record, appName, predName string) (benchio.Result, error) {
	mk := predictorFactories[predName]
	_, want := measure(recs, mk, -1) // scalar warmup doubles as the reference result
	if _, got := measure(recs, mk, c.block); got != want {
		return benchio.Result{}, fmt.Errorf("%s/%s: batched result diverges from scalar:\nbatched %+v\nscalar  %+v",
			appName, predName, got, want)
	}
	scalar := make([]time.Duration, c.reps)
	batched := make([]time.Duration, c.reps)
	for r := 0; r < c.reps; r++ {
		var res pipeline.Result
		scalar[r], res = measure(recs, mk, -1)
		if res != want {
			return benchio.Result{}, fmt.Errorf("%s/%s: scalar rep %d nondeterministic", appName, predName, r)
		}
		batched[r], res = measure(recs, mk, c.block)
		if res != want {
			return benchio.Result{}, fmt.Errorf("%s/%s: batched rep %d diverges from scalar", appName, predName, r)
		}
	}
	sNS := float64(median(scalar)) / float64(len(recs))
	bNS := float64(median(batched)) / float64(len(recs))
	return benchio.Result{
		App:                  appName,
		Predictor:            predName,
		Records:              len(recs),
		Reps:                 c.reps,
		BlockSize:            c.block,
		ScalarNSPerRecord:    sNS,
		BatchedNSPerRecord:   bNS,
		ScalarRecordsPerSec:  1e9 / sNS,
		BatchedRecordsPerSec: 1e9 / bNS,
		Speedup:              sNS / bNS,
	}, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	c, err := parseConfig(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if c.validate != "" {
		r, err := benchio.Read(c.validate)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: valid (schema %d, %d results)\n", c.validate, r.Schema, len(r.Results))
		return 0
	}
	report := &benchio.Report{
		Schema:     benchio.Schema,
		Name:       c.name,
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Smoke:      c.smoke,
	}
	fmt.Fprintf(stdout, "bench %s: %d records x %d reps per engine (interleaved, medians reported)\n",
		c.name, c.records, c.reps)
	fmt.Fprintf(stdout, "%-8s %-16s %14s %14s %12s %8s\n",
		"app", "predictor", "scalar ns/rec", "batched ns/rec", "batched rec/s", "speedup")
	slower := 0
	for _, appName := range c.apps {
		app := workload.AppByName(appName)
		if app == nil {
			fmt.Fprintf(stderr, "bench: unknown app %q\n", appName)
			return 2
		}
		// One stream collection serves every predictor and repetition:
		// the engines replay identical slices, so timing differences are
		// pure engine cost.
		recs := trace.Collect(app.Stream(0, c.records), c.records+1)
		for _, predName := range c.predictors {
			cell, err := benchCell(c, recs, appName, predName)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			if cell.Speedup < 1 {
				slower++
			}
			fmt.Fprintf(stdout, "%-8s %-16s %14.1f %14.1f %12.0f %7.2fx\n",
				cell.App, cell.Predictor, cell.ScalarNSPerRecord, cell.BatchedNSPerRecord,
				cell.BatchedRecordsPerSec, cell.Speedup)
			report.Results = append(report.Results, cell)
		}
	}
	if c.out != "-" {
		if err := benchio.Write(c.out, report); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "report: %s\n", c.out)
	} else if err := benchio.Validate(report); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if c.check && slower > 0 {
		fmt.Fprintf(stderr, "bench: %d cell(s) slower batched than scalar\n", slower)
		return 1
	}
	return 0
}
