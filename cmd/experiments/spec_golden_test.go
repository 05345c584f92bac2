package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/whisper-sim/whisper/internal/telemetry"
)

// specRun drives the CLI against a spec file and returns normalized
// stdout (wall-clock footers replaced).
func specRun(t *testing.T, extra ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := append([]string{"-spec", filepath.Join("..", "..", "examples", "specs", "steady.yaml"), "-no-cache"}, extra...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Fatalf("unexpected stderr: %s", stderr.String())
	}
	return completedRe.ReplaceAllString(stdout.String(), "completed in X]")
}

// TestGoldenSpecSteady locks the full -spec output — the scenario
// summary, the per-phase comparison, and the staleness table — for the
// committed steady.yaml example. Any change to the spec compiler, the
// seed derivation, the interleaver, or the drivers shows up as a
// readable diff. Refresh intentionally with:
// go test ./cmd/experiments -run GoldenSpec -update
func TestGoldenSpecSteady(t *testing.T) {
	got := specRun(t, "-j", "2")

	golden := filepath.Join("testdata", "golden-spec-steady.txt")
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

// TestSpecParallelismInvariance is the replay contract at the CLI
// boundary: -spec output is byte-identical at -j 1 and -j 8, and across
// repeated runs of the same process.
func TestSpecParallelismInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run CLI comparison is not a -short test")
	}
	j1 := specRun(t, "-j", "1")
	j8 := specRun(t, "-j", "8")
	if j1 != j8 {
		t.Fatalf("-j 1 and -j 8 outputs differ:\n--- j1\n%s\n--- j8\n%s", j1, j8)
	}
	if again := specRun(t, "-j", "8"); again != j8 {
		t.Fatal("repeated -j 8 run produced different output")
	}
}

// TestSpecValidateExamples keeps every committed example spec loadable
// and compilable — the same check CI runs via -validate.
func TestSpecValidateExamples(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example specs found: %v", err)
	}
	for _, f := range files {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-spec", f, "-validate", "-no-cache"}, &stdout, &stderr); code != 0 {
			t.Errorf("%s: exit %d: %s", f, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "Spec ") {
			t.Errorf("%s: -validate printed no summary:\n%s", f, stdout.String())
		}
	}
}

// TestSpecFlagErrors covers the flag contract: -spec conflicts with
// -apps (the spec's mix selects the applications), -validate requires
// -spec, -only accepts only the ids the spec mode prints, and a broken
// spec file fails with a parse error before any simulation starts.
func TestSpecFlagErrors(t *testing.T) {
	steady := filepath.Join("..", "..", "examples", "specs", "steady.yaml")
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"spec with apps", []string{"-spec", "x.yaml", "-apps", "mysql"}, "conflict"},
		{"validate without spec", []string{"-validate"}, "requires -spec"},
		{"missing file", []string{"-spec", filepath.Join(t.TempDir(), "nope.yaml")}, "no such file"},
		{"paper id under spec", []string{"-spec", steady, "-only", "fig1"}, `unknown -only id "fig1" (valid: spec, phases, staleness)`},
		{"simulating id under validate", []string{"-spec", steady, "-validate", "-only", "phases"}, `unknown -only id "phases" (valid: spec)`},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: stderr %q does not mention %q", tc.name, stderr.String(), tc.want)
		}
	}

	bad := filepath.Join(t.TempDir(), "bad.yaml")
	if err := os.WriteFile(bad, []byte("name: x\nrecords: 10\nmix: []\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-spec", bad}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad spec: exit %d, want 2: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "mix must not be empty") {
		t.Fatalf("bad spec: unhelpful error: %s", stderr.String())
	}
}

// TestSpecJournal runs a spec sweep with -journal and validates the
// journal with the same checker CI uses (manifest first, labelled unit
// events, one final snapshot), plus the spec-specific manifest fields.
func TestSpecJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	var stdout, stderr bytes.Buffer
	args := []string{
		"-spec", filepath.Join("..", "..", "examples", "specs", "steady.yaml"),
		"-no-cache", "-j", "2", "-journal", path,
	}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	units, err := telemetry.ValidateJournal(f)
	if err != nil {
		t.Fatalf("journal invalid: %v", err)
	}
	if units == 0 {
		t.Fatal("journal recorded no unit events")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"spec":"steady"`, `"spec_hash":"`, "staleness/"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("journal missing %q", want)
		}
	}
}
