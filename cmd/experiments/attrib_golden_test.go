package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/whisper-sim/whisper/internal/attrib"
	"github.com/whisper-sim/whisper/internal/telemetry"
)

// attribArgs is the fixed tiny attribution study the golden and
// invariance tests run.
var attribArgs = []string{
	"-scale", "tiny", "-records", "6000", "-apps", "mysql,kafka",
	"-attrib", "-no-cache",
}

// TestGoldenAttrib locks the attribution study's stdout byte for byte.
// Refresh intentionally with: go test ./cmd/experiments -run GoldenAttrib -update
func TestGoldenAttrib(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(append(append([]string{}, attribArgs...), "-j", "2"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	got := completedRe.ReplaceAllString(stdout.String(), "completed in X]")

	golden := filepath.Join("testdata", "golden-attrib.txt")
	if *update {
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

// TestAttribEngineAndWorkerInvariance: the attribution tables are
// byte-identical at every -j — the CLI-level lock on the attribution
// determinism contract. (The collector's equality with the per-record
// reference loop's is locked in internal/pipeline.)
func TestAttribEngineAndWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker CLI comparison is not a -short test")
	}
	runWith := func(extra ...string) string {
		var stdout, stderr bytes.Buffer
		args := append(append([]string{}, attribArgs...), extra...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", extra, code, stderr.String())
		}
		return completedRe.ReplaceAllString(stdout.String(), "completed in X]")
	}
	want := runWith("-j", "1") // sequential reference
	for _, extra := range [][]string{{"-j", "2"}, {"-j", "4"}} {
		if got := runWith(extra...); got != want {
			t.Errorf("%v: attribution output differs from -j 1:\n--- got\n%s\n--- want\n%s",
				extra, got, want)
		}
	}
}

// TestAttribJSONAndJournal: -attrib-json writes a decodable canonical
// report array, and -journal gains one attrib line per app that
// validates under the schema.
func TestAttribJSONAndJournal(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "reports.json")
	journalPath := filepath.Join(dir, "run.jsonl")

	var stdout, stderr bytes.Buffer
	args := append(append([]string{}, attribArgs...),
		"-attrib-json", jsonPath, "-journal", journalPath)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var reports []json.RawMessage
	if err := json.Unmarshal(data, &reports); err != nil {
		t.Fatalf("attrib json not an array: %v", err)
	}
	if len(reports) != 2 {
		t.Fatalf("%d reports, want 2", len(reports))
	}
	for i, raw := range reports {
		rep, err := attrib.DecodeReport(raw)
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if rep.Records == 0 || rep.Baseline.CondExecs == 0 {
			t.Fatalf("report %d implausible: %+v", i, rep)
		}
	}

	jf, err := os.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	if _, err := telemetry.ValidateJournal(jf); err != nil {
		t.Fatalf("journal invalid: %v", err)
	}
	jdata, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(jdata), `"type":"attrib"`); n != 2 {
		t.Fatalf("%d attrib journal lines, want 2", n)
	}
}

// TestAttribChromeTraceExport: -chrome-trace writes a loadable Chrome
// trace-event document covering the pipeline phases.
func TestAttribChromeTraceExport(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	args := append(append([]string{}, attribArgs...), "-chrome-trace", tracePath)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q ph = %q, want X", ev.Name, ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"profile", "train", "simulate"} {
		if !names[want] {
			t.Fatalf("chrome trace missing %q span (got %v)", want, names)
		}
	}
}

// TestAttribFlagConflicts: the attrib options require -attrib, and the
// study refuses to combine with the other standalone modes and -only.
func TestAttribFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-attrib-json", "x.json"},
		{"-attrib-top", "5"},
		{"-attrib", "-spec", "spec.yaml"},
		{"-attrib", "-trace-file", "t.wspt"},
		{"-attrib", "-only", "fig1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}
