// Command benchdiff compares benchmark results and fails on
// regressions. It reads two kinds of input, told apart by content:
//
//	benchdiff [-ns-threshold 10] [-speedup-threshold 10] BASE.json NEW.json
//	benchdiff BASE NEW
//
// The first form compares two cmd/bench reports (BENCH_<name>.json, see
// internal/benchio). Results are matched by (app, predictor) cell. A
// cell regresses when a per-record cost grew by more than -ns-threshold
// percent (scalar and batched ns/record each checked with the same
// threshold) or when the batched-engine speedup ratio dropped by more
// than -speedup-threshold percent. Cells present in the base but
// missing from the new report count as regressions too (lost coverage);
// new cells are reported but never fail.
//
// The second form gates runs of the repository benchmark
// (benchmark/run.sh, `-json` output). Each argument is a directory of
// run files, a single run file, or a run set: a committed
// BENCH_<topic>.json holding "parent" and "change" run lists, which
// contributes its parent runs as BASE and its change runs as NEW (so
// `benchdiff F F` gates the change F records). Per workload and
// end-to-end metric, the new median may be worse than the base median by
// at most the metric's bound in BENCHMARK.json (found in the current
// directory or above), in the direction its "better" field gives. Any
// run with correct false or failed > 0 fails the gate. Per-layer
// medians of traced runs are printed side by side for information.
//
// The exit code is the contract: 0 when everything is within bounds, 1
// on any regression, incorrect run or unreadable input, 2 on usage
// errors (including mixing a report with benchmark runs). CI runs it in
// the bench-smoke job so a committed baseline cannot silently drift;
// absolute nanoseconds are machine-specific, so cross-machine
// comparisons should raise the thresholds or stick to the speedup
// ratios.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/whisper-sim/whisper/internal/benchio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// cell keys one benchmark matrix entry.
type cell struct{ app, predictor string }

// metric is one compared quantity of a matched cell.
type metric struct {
	// name labels the metric in output ("batched ns/record").
	name string
	// baseV and newV are the two reports' values, positive by
	// benchio.Validate.
	baseV, newV float64
	// lowerIsBetter: ns/record regresses upward, speedups downward.
	lowerIsBetter bool
	// threshold is the allowed relative change, as a fraction.
	threshold float64
}

// deltaPct is the signed relative change in percent.
func (m *metric) deltaPct() float64 { return (m.newV - m.baseV) / m.baseV * 100 }

// regressed reports whether the change exceeds the metric's threshold
// in the bad direction.
func (m *metric) regressed() bool {
	if m.lowerIsBetter {
		return m.newV > m.baseV*(1+m.threshold)
	}
	return m.newV < m.baseV*(1-m.threshold)
}

// run executes the diff; separated from main so tests drive it
// in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nsThr := fs.Float64("ns-threshold", 10, "allowed per-record cost growth in percent")
	spThr := fs.Float64("speedup-threshold", 10, "allowed engine-speedup drop in percent")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-ns-threshold PCT] [-speedup-threshold PCT] BASE NEW")
		return 2
	}
	if *nsThr < 0 || *spThr < 0 {
		fmt.Fprintln(stderr, "benchdiff: thresholds must be non-negative")
		return 2
	}
	base, err := load(fs.Arg(0), true)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 1
	}
	next, err := load(fs.Arg(1), false)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 1
	}
	switch {
	case base.report != nil && next.report != nil:
		return diffReports(fs.Arg(0), fs.Arg(1), base.report, next.report, *nsThr/100, *spThr/100, stdout, stderr)
	case base.report == nil && next.report == nil:
		return diffRuns(base.runs, next.runs, stdout, stderr)
	}
	fmt.Fprintln(stderr, "benchdiff: cannot compare a cmd/bench report with benchmark runs")
	return 2
}

// diffReports compares two cmd/bench reports cell by cell.
func diffReports(basePath, newPath string, base, next *benchio.Report, nsThr, spThr float64, stdout, stderr io.Writer) int {
	if base.Smoke != next.Smoke {
		fmt.Fprintf(stderr, "benchdiff: warning: comparing a smoke report against a full report; absolute numbers are not comparable\n")
	}

	baseCells := index(base)
	newCells := index(next)
	keys := make([]cell, 0, len(baseCells))
	for k := range baseCells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].app != keys[j].app {
			return keys[i].app < keys[j].app
		}
		return keys[i].predictor < keys[j].predictor
	})

	fmt.Fprintf(stdout, "benchdiff: %s (%s) vs %s (%s)\n", basePath, base.Name, newPath, next.Name)
	regressions := 0
	for _, k := range keys {
		b := baseCells[k]
		n, ok := newCells[k]
		if !ok {
			fmt.Fprintf(stdout, "MISSING  %s/%s: present in base, absent in new\n", k.app, k.predictor)
			regressions++
			continue
		}
		for _, m := range cellMetrics(b, n, nsThr, spThr) {
			status := "ok      "
			if m.regressed() {
				status = "REGRESS "
				regressions++
			}
			fmt.Fprintf(stdout, "%s %s/%s %s: %.1f -> %.1f (%+.1f%%)\n",
				status, k.app, k.predictor, m.name, m.baseV, m.newV, m.deltaPct())
		}
	}
	for k := range newCells {
		if _, ok := baseCells[k]; !ok {
			fmt.Fprintf(stdout, "new      %s/%s: not in base\n", k.app, k.predictor)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d regression(s) beyond thresholds (ns %+.0f%%, speedup -%.0f%%)\n",
			regressions, nsThr*100, spThr*100)
		return 1
	}
	fmt.Fprintf(stdout, "benchdiff: %d cell(s) within thresholds\n", len(keys))
	return 0
}

// index maps a report's results by cell; duplicate cells keep the last,
// matching how readers of the JSON would overwrite.
func index(r *benchio.Report) map[cell]*benchio.Result {
	out := make(map[cell]*benchio.Result, len(r.Results))
	for i := range r.Results {
		res := &r.Results[i]
		out[cell{res.App, res.Predictor}] = res
	}
	return out
}

// cellMetrics builds the compared metrics of one matched cell.
func cellMetrics(b, n *benchio.Result, nsThr, spThr float64) []metric {
	return []metric{
		{"scalar ns/record", b.ScalarNSPerRecord, n.ScalarNSPerRecord, true, nsThr},
		{"batched ns/record", b.BatchedNSPerRecord, n.BatchedNSPerRecord, true, nsThr},
		{"batched speedup", b.Speedup, n.Speedup, false, spThr},
	}
}
