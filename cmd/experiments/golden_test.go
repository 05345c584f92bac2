package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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

// diskCacheRe matches the -timing report's disk cache line.
var diskCacheRe = regexp.MustCompile(`disk cache \(.*\): profiles (\d+) hits / (\d+) misses, trains (\d+) hits / (\d+) misses`)

// TestGoldenSuiteTinyThroughCache runs the suite of TestGoldenSuiteTiny
// through a disk cache instead of none, cold and then warm in one
// directory: both runs must print the golden, the warm run must compute
// no profile and no training, and the cold run must compute each
// profile once at -j 2, one miss per profile file it wrote.
func TestGoldenSuiteTinyThroughCache(t *testing.T) {
	dir := t.TempDir()
	misses := func(stderr string) (profiles, trains int) {
		t.Helper()
		m := diskCacheRe.FindStringSubmatch(stderr)
		if m == nil {
			t.Fatalf("no disk cache line in -timing output: %s", stderr)
		}
		profiles, _ = strconv.Atoi(m[2])
		trains, _ = strconv.Atoi(m[4])
		return profiles, trains
	}
	args := []string{"-scale", "tiny", "-apps", "mysql,kafka", "-records", "10000",
		"-j", "2", "-cache", dir, "-timing"}

	stdout, stderr := cliOutput(t, args...)
	goldenCompare(t, "golden-suite-tiny.txt", maskSuite(stdout))
	profileMisses, _ := misses(stderr)
	files, err := filepath.Glob(filepath.Join(dir, "profile-*.wspa"))
	if err != nil {
		t.Fatal(err)
	}
	if profileMisses == 0 || profileMisses != len(files) {
		t.Fatalf("cold run: %d profile misses, %d profile files", profileMisses, len(files))
	}

	stdout, stderr = cliOutput(t, args...)
	goldenCompare(t, "golden-suite-tiny.txt", maskSuite(stdout))
	if p, tr := misses(stderr); p != 0 || tr != 0 {
		t.Fatalf("warm run: %d profile and %d train misses, want none", p, tr)
	}
}

// TestGoldenSuite400k locks the whole default suite (every app at the
// default 400k-record scale, the scale EXPERIMENTS.md reports) against
// golden-suite-400k.txt, masked as TestGoldenSuiteTiny masks its run.
// It takes minutes, so it runs only with WHISPER_GOLDEN_400K=1. Its
// -timing report and run journal land in go test's -outputdir when one
// is given, so a CI run can keep them:
//
//	WHISPER_GOLDEN_400K=1 go test -run GoldenSuite400k -timeout 30m -outputdir DIR ./cmd/experiments
func TestGoldenSuite400k(t *testing.T) {
	if os.Getenv("WHISPER_GOLDEN_400K") != "1" {
		t.Skip("set WHISPER_GOLDEN_400K=1 to run the default 400k suite")
	}
	dir := t.TempDir()
	if f := flag.Lookup("test.outputdir"); f != nil && f.Value.String() != "" {
		dir = f.Value.String()
	}
	stdout, stderr := cliOutput(t, "-j", "4", "-no-cache", "-timing",
		"-journal", filepath.Join(dir, "golden-400k-journal.jsonl"))
	if err := os.WriteFile(filepath.Join(dir, "golden-400k-timing.txt"), []byte(stderr), 0o644); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden-suite-400k.txt", maskSuite(stdout))
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

// TestGoldenWorkerInvariance locks the full CLI's stdout across
// worker counts: byte-identical at -j 1, 2 and 4, with the sequential
// run as the reference. (Run's equality with the per-record reference
// loop is locked by internal/pipeline's differential tests.)
func TestGoldenWorkerInvariance(t *testing.T) {
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
