package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
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
	var stdout, stderr bytes.Buffer
	args := []string{
		"-scale", "tiny", "-records", "4000", "-apps", "mysql,kafka",
		"-only", "table1,fig1,fig6,fig19", "-j", "2", "-no-cache",
	}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Fatalf("unexpected stderr: %s", stderr.String())
	}
	got := completedRe.ReplaceAllString(stdout.String(), "completed in X]")

	golden := filepath.Join("testdata", "golden-tiny.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (rerun with -update if intended):\n--- got\n%s\n--- want\n%s",
			golden, got, want)
	}
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
