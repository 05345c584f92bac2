package main

import (
	"bytes"
	"flag"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// completedRe matches the wall-clock suffix of the per-experiment
// footer, the only nondeterministic part of the output.
var completedRe = regexp.MustCompile(`completed in [^\]]+\]`)

// TestGoldenTinyTables locks the rendered table output of a tiny
// deterministic subset of the suite. Any formatting or numeric drift —
// an accidental change to the simulator, the table renderer, or a
// driver — shows up as a readable diff against the committed fixture.
// Refresh intentionally with: go test ./cmd/experiments -run Golden -update
func TestGoldenTinyTables(t *testing.T) {
	goldenRun(t, "golden-tiny.txt",
		"-scale", "tiny", "-records", "4000", "-apps", "mysql,kafka",
		"-only", "table1,fig1,fig6,fig19", "-j", "2", "-no-cache")
}

// TestGoldenSuiteTiny locks every table and figure of the paper suite,
// Whisper's own figures included, at the arguments of the repository
// benchmark's suite-tiny workload. The fixture is that workload's
// masked reference (benchmark/testdata/suite-tiny.txt) byte for byte.
func TestGoldenSuiteTiny(t *testing.T) {
	got := cliStdout(t, "-scale", "tiny", "-apps", "mysql,kafka", "-records", "10000",
		"-j", "2", "-no-cache")
	goldenCompare(t, "golden-suite-tiny.txt", maskSuite(got))
}

// completedLine matches a whole per-experiment wall-clock line.
var completedLine = regexp.MustCompile(`^\[.* completed in .*\]$`)

// maskSuite removes what differs between otherwise identical suite runs,
// exactly as the repository benchmark masks its suite-tiny reference:
// the "[... completed in ...]" lines go, and the wall-clock last column
// of the data rows of Fig 15 (average training time) and Fig 16
// (training seconds) becomes "*".
func maskSuite(out string) string {
	const (
		plain   = iota
		heading // in a timed table, before its dashed rule
		rows    // in a timed table's data rows
	)
	var b strings.Builder
	state := plain
	for _, line := range strings.SplitAfter(out, "\n") {
		body := strings.TrimRight(line, "\n")
		switch {
		case completedLine.MatchString(body):
			continue
		case strings.HasPrefix(body, "Fig 15:"), strings.HasPrefix(body, "Fig 16:"):
			state = heading
		case body == "":
			state = plain
		case state == heading && strings.HasPrefix(body, "---"):
			state = rows
		case state == rows:
			if i := strings.LastIndexByte(body, ' '); i >= 0 {
				line = body[:i+1] + "*" + line[len(body):]
			}
		}
		b.WriteString(line)
	}
	return b.String()
}

// TestGoldenBlockSizeInvariance locks the full CLI's stdout across
// worker counts: byte-identical at -j 1, 2 and 4, with the sequential
// run as the reference. (Run's equality with the per-record reference
// loop is locked by internal/pipeline's differential tests.)
func TestGoldenBlockSizeInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker CLI comparison is not a -short test")
	}
	runWith := func(j string) string {
		var stdout, stderr bytes.Buffer
		args := []string{
			"-scale", "tiny", "-records", "3000", "-apps", "mysql,kafka",
			"-only", "table1,fig6", "-no-cache", "-j", j,
		}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-j %s: exit %d: %s", j, code, stderr.String())
		}
		return completedRe.ReplaceAllString(stdout.String(), "completed in X]")
	}
	want := runWith("1")
	for _, j := range []string{"2", "4"} {
		if got := runWith(j); got != want {
			t.Errorf("-j %s: stdout differs from -j 1:\n--- got\n%s\n--- want\n%s", j, got, want)
		}
	}
}
