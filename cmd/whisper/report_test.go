package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
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

// TestReportJSONAndChromeTrace drives -json and -chrome-trace: the JSON
// round-trips through DecodeReport and is byte-identical on a repeat
// run; the trace file is valid Chrome trace-event JSON with complete
// events.
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
		"-json", jsonB)...)
	if code != 0 {
		t.Fatalf("repeat run exit %d: %s", code, errOut)
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
		t.Fatalf("report JSON differs between runs:\n--- first\n%s\n--- repeat\n%s", a, b)
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
	for _, want := range []string{"profile", "cfg.build", "train", "inject", "simulate"} {
		if !names[want] {
			t.Fatalf("chrome trace missing %q span (got %v)", want, names)
		}
	}
}

// TestReportWithoutClasses: -classes=false skips the classification
// pass. Every class cell reads "-" and the JSON carries no class key;
// everything else, the branch table and the hint scoreboard included,
// equals the default run's.
func TestReportWithoutClasses(t *testing.T) {
	dir := t.TempDir()
	report := func(name string, flags ...string) (string, *attrib.Report, string) {
		t.Helper()
		path := filepath.Join(dir, name+".json")
		args := append(append(append([]string{}, reportArgs...), flags...), "-json", path)
		code, out, errOut := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", flags, code, errOut)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := attrib.DecodeReport(data)
		if err != nil {
			t.Fatal(err)
		}
		return out, rep, string(data)
	}
	withOut, withRep, _ := report("with")
	out, rep, doc := report("without", "-classes=false")

	if strings.Contains(doc, `"class"`) {
		t.Fatalf("-classes=false JSON carries class keys:\n%s", doc)
	}
	classified := 0
	for i := range withRep.Branches {
		if withRep.Branches[i].Class != "" {
			classified++
		}
		withRep.Branches[i].Class = ""
	}
	if classified == 0 {
		t.Fatal("the default run classified no branch")
	}
	if !reflect.DeepEqual(rep, withRep) {
		t.Fatalf("-classes=false report differs from the default's beyond its classes:\n%+v\n%+v", rep, withRep)
	}

	// The text differs only in the branch table's class column, which
	// narrows to its header once every cell is "-".
	lines, withLines := strings.Split(out, "\n"), strings.Split(withOut, "\n")
	if len(lines) != len(withLines) {
		t.Fatalf("-classes=false prints %d lines, the default %d", len(lines), len(withLines))
	}
	rows := 0
	inTable := false
	for i, line := range lines {
		fields, withFields := strings.Fields(line), strings.Fields(withLines[i])
		switch {
		case strings.HasPrefix(line, "Attribution: top"):
			inTable = true
		case inTable && line == "":
			inTable = false
		case inTable && strings.HasPrefix(line, "branch "), inTable && strings.HasPrefix(line, "---"):
			// The header and the rule only change width.
		case inTable:
			rows++
			if len(fields) != 9 || fields[7] != "-" {
				t.Fatalf("branch row %q: want the class cell (8th) to read -", line)
			}
			fields[7], withFields[7] = "", ""
			if !reflect.DeepEqual(fields, withFields) {
				t.Fatalf("branch row %q differs from the default's %q beyond its class", line, withLines[i])
			}
		case line != withLines[i]:
			t.Fatalf("line %d: %q, the default prints %q", i+1, line, withLines[i])
		}
	}
	if rows == 0 || rows != len(rep.Branches) {
		t.Fatalf("checked %d branch rows, the report has %d", rows, len(rep.Branches))
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
