// Command benchdiff gates runs of the repository benchmark
// (benchmark/run.sh, `-json` output) and fails on regressions:
//
//	benchdiff BASE NEW
//
// Each argument is a directory of run files, a single run file, or a
// run set: a committed BENCH_<topic>.json holding "parent" and "change"
// run lists, which contributes its parent runs as BASE and its change
// runs as NEW (so `benchdiff F F` gates the change F records). Per
// workload and end-to-end metric, the new median may be worse than the
// base median by at most the metric's bound in BENCHMARK.json (found in
// the current directory or above), in the direction its "better" field
// gives. Any run with correct false or failed > 0 fails the gate.
// Per-layer medians of traced runs are printed side by side for
// information.
//
// The exit code is the contract: 0 when at least one end-to-end metric
// was compared and every one is within its bound, 1 on any regression,
// incorrect run or unreadable input, and when nothing was compared (a
// side holding no untraced run), 2 on usage errors. Every committed run
// set self-diffs clean in the tests (TestCommittedBaselinesSelfDiff).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the diff; separated from main so tests drive it
// in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff BASE NEW")
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
	return diffRuns(base, next, stdout, stderr)
}
