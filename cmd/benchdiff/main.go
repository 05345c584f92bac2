// Command benchdiff compares two cmd/bench reports (BENCH_<name>.json,
// see internal/benchio) and fails on throughput regressions:
//
//	benchdiff [-ns-threshold 10] [-speedup-threshold 10] BASE.json NEW.json
//
// Results are matched by (app, predictor) cell. A cell regresses when a
// per-record cost grew by more than -ns-threshold percent (scalar and
// batched ns/record each checked with the same threshold) or when the
// batched-engine speedup ratio dropped by more than -speedup-threshold
// percent. Cells present in the base but missing from the new report
// count as regressions too (lost coverage); new cells are reported but
// never fail.
//
// The exit code is the contract: 0 when every matched cell is within
// thresholds, 1 on any regression (or unreadable report), 2 on usage
// errors. CI runs it in the bench-smoke job so a committed baseline
// cannot silently drift; absolute nanoseconds are machine-specific, so
// cross-machine comparisons should raise the thresholds or stick to the
// speedup ratios.
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
		fmt.Fprintln(stderr, "usage: benchdiff [-ns-threshold PCT] [-speedup-threshold PCT] BASE.json NEW.json")
		return 2
	}
	if *nsThr < 0 || *spThr < 0 {
		fmt.Fprintln(stderr, "benchdiff: thresholds must be non-negative")
		return 2
	}
	base, err := benchio.Read(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 1
	}
	next, err := benchio.Read(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 1
	}
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

	fmt.Fprintf(stdout, "benchdiff: %s (%s) vs %s (%s)\n", fs.Arg(0), base.Name, fs.Arg(1), next.Name)
	regressions := 0
	for _, k := range keys {
		b := baseCells[k]
		n, ok := newCells[k]
		if !ok {
			fmt.Fprintf(stdout, "MISSING  %s/%s: present in base, absent in new\n", k.app, k.predictor)
			regressions++
			continue
		}
		for _, m := range cellMetrics(b, n, *nsThr/100, *spThr/100) {
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
			regressions, *nsThr, *spThr)
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
