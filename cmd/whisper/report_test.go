package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/whisper-sim/whisper/internal/attrib"
	"github.com/whisper-sim/whisper/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// reportArgs is the fixed configuration every report test runs; small
// enough for CI, large enough that hints place and the tables fill.
var reportArgs = []string{"report", "-app", "mysql", "-records", "20000"}

// TestReportGolden locks the report's canonical stdout byte for byte.
// Refresh intentionally with: go test ./cmd/whisper -run ReportGolden -update
func TestReportGolden(t *testing.T) {
	code, out, errOut := runCLI(t, reportArgs...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	golden := filepath.Join("testdata", "golden-report.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if out != string(want) {
		t.Fatalf("report output differs from %s (rerun with -update if intended):\n--- got\n%s\n--- want\n%s",
			golden, out, want)
	}
}

// TestReportEngineInvariance: the attribution report's stdout is
// byte-identical whichever pipeline engine resolves the branches —
// scalar reference, degenerate blocks, a prime block size, or the
// batched default. This is the CLI-level lock on the attribution
// determinism contract.
func TestReportEngineInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine CLI comparison is not a -short test")
	}
	runWith := func(extra ...string) string {
		code, out, errOut := runCLI(t, append(append([]string{}, reportArgs...), extra...)...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", extra, code, errOut)
		}
		return out
	}
	want := runWith("-block", "-1") // scalar reference
	for _, extra := range [][]string{
		{"-block", "1"},
		{"-block", "7"},
		{"-block", "0"},
		{"-block", "613"},
	} {
		if got := runWith(extra...); got != want {
			t.Errorf("%v: report differs from scalar reference:\n--- got\n%s\n--- want\n%s", extra, got, want)
		}
	}
}

// TestReportJSONAndChromeTrace drives -json and -chrome-trace: the JSON
// round-trips through DecodeReport and is byte-identical across engines;
// the trace file is valid Chrome trace-event JSON with complete events.
func TestReportJSONAndChromeTrace(t *testing.T) {
	dir := t.TempDir()
	jsonA := filepath.Join(dir, "a.json")
	jsonB := filepath.Join(dir, "b.json")
	tracePath := filepath.Join(dir, "trace.json")

	code, _, errOut := runCLI(t, append(append([]string{}, reportArgs...),
		"-json", jsonA, "-chrome-trace", tracePath)...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	code, _, errOut = runCLI(t, append(append([]string{}, reportArgs...),
		"-json", jsonB, "-block", "-1")...)
	if code != 0 {
		t.Fatalf("scalar run exit %d: %s", code, errOut)
	}

	a, err := os.ReadFile(jsonA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(jsonB)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("report JSON differs across engines:\n--- batched\n%s\n--- scalar\n%s", a, b)
	}
	rep, err := attrib.DecodeReport(a)
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if rep.Workload != "mysql" || rep.Records == 0 || len(rep.Branches) == 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
	for _, br := range rep.Branches {
		if !strings.HasPrefix(br.PC, "0x") {
			t.Fatalf("branch PC not hex: %q", br.PC)
		}
	}

	// The Chrome export must load as the trace-event object format with
	// complete "X" events covering the pipeline phases.
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	names := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		for _, field := range []string{"name", "cat", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, ev)
			}
		}
		names[ev["name"].(string)] = true
	}
	for _, want := range []string{"profile", "train", "simulate"} {
		if !names[want] {
			t.Fatalf("chrome trace missing %q span (got %v)", want, names)
		}
	}
}

// TestReportTraceFile: the report runs over an imported trace file, and
// the workload label and fingerprint identify the window.
func TestReportTraceFile(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "win.wspt")
	jsonPath := filepath.Join(dir, "rep.json")

	// Export a window first, then attribute it.
	code, _, errOut := runCLI(t, "-app", "kafka", "-records", "8000", "-trace", tracePath)
	if code != 0 {
		t.Fatalf("export exit %d: %s", code, errOut)
	}
	code, out, errOut := runCLI(t, "report", "-trace-file", tracePath, "-json", jsonPath)
	if code != 0 {
		t.Fatalf("report exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "trace:win.wspt") {
		t.Fatalf("missing trace workload label:\n%s", out)
	}
	if !strings.Contains(out, "trace fingerprint ") {
		t.Fatalf("missing fingerprint line:\n%s", out)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := attrib.DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "trace:win.wspt" || rep.Fingerprint == "" {
		t.Fatalf("report identity wrong: %+v", rep)
	}
}

// TestReportRejectsBadTrace: a conditional-free trace is an error, not
// an empty report.
func TestReportRejectsBadTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jumps.wspt")
	writeTrace(t, path, []trace.Record{
		{PC: 0x400000, Target: 0x400100, Kind: trace.UncondDirect, Taken: true, Instrs: 4},
	})
	code, _, errOut := runCLI(t, "report", "-trace-file", path)
	if code == 0 {
		t.Fatal("conditional-free trace accepted")
	}
	if !strings.Contains(errOut, "no conditional branches") {
		t.Fatalf("unhelpful error: %q", errOut)
	}
}
