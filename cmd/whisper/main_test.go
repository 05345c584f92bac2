package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/traceio"
)

const testRecords = "20000"

// runCLI drives the CLI in-process and returns (exit code, stdout,
// stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// evaluationBlock cuts everything from the "== evaluation" banner on.
func evaluationBlock(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "== evaluation")
	if i < 0 {
		t.Fatalf("no evaluation block in output:\n%s", out)
	}
	return out[i:]
}

// TestStagedMatchesOneShot runs profile → train → apply through artifact
// files and requires the evaluation block to be byte-identical to the
// fused one-shot run's.
func TestStagedMatchesOneShot(t *testing.T) {
	dir := t.TempDir()
	profPath := filepath.Join(dir, "mysql.profile.wspa")
	hintPath := filepath.Join(dir, "mysql.hints.wspa")

	code, oneShot, errOut := runCLI(t, "-app", "mysql", "-records", testRecords)
	if code != 0 {
		t.Fatalf("one-shot exit %d: %s", code, errOut)
	}

	code, _, errOut = runCLI(t, "profile", "-app", "mysql", "-records", testRecords, "-o", profPath)
	if code != 0 {
		t.Fatalf("profile exit %d: %s", code, errOut)
	}
	code, _, errOut = runCLI(t, "train", "-profile", profPath, "-o", hintPath)
	if code != 0 {
		t.Fatalf("train exit %d: %s", code, errOut)
	}
	code, applyOut, errOut := runCLI(t, "apply", "-hints", hintPath)
	if code != 0 {
		t.Fatalf("apply exit %d: %s", code, errOut)
	}

	want := evaluationBlock(t, oneShot)
	got := evaluationBlock(t, applyOut)
	if got != want {
		t.Fatalf("staged evaluation differs from one-shot:\n--- one-shot\n%s\n--- staged\n%s", want, got)
	}
}

// writeTrace writes records in the WSPT binary trace format.
func writeTrace(t *testing.T, path string, recs []trace.Record) {
	t.Helper()
	var buf bytes.Buffer
	if err := traceio.WriteAll(&buf, traceio.FormatBinary, recs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFromTraceEmpty: replaying a record-free trace must be a clear
// error, not an all-zero result table.
func TestFromTraceEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.wspt")
	writeTrace(t, path, nil)
	code, _, errOut := runCLI(t, "-trace-file", path)
	if code == 0 {
		t.Fatal("empty trace accepted")
	}
	if !strings.Contains(errOut, "no records") {
		t.Fatalf("unhelpful error: %q", errOut)
	}
}

// TestFromTraceNoConditionals: a trace without conditional branches has
// nothing to predict and must also error.
func TestFromTraceNoConditionals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jumps.wspt")
	writeTrace(t, path, []trace.Record{
		{PC: 0x400000, Target: 0x400100, Kind: trace.UncondDirect, Taken: true, Instrs: 4},
		{PC: 0x400100, Target: 0x400000, Kind: trace.Call, Taken: true, Instrs: 7},
	})
	code, _, errOut := runCLI(t, "-trace-file", path)
	if code == 0 {
		t.Fatal("conditional-free trace accepted")
	}
	if !strings.Contains(errOut, "no conditional branches") {
		t.Fatalf("unhelpful error: %q", errOut)
	}
}

// TestBadWindowsExitTwo: a window the workload cannot produce is a
// usage error on every command that resolves one — exit 2 with a
// single stderr line — never a workload panic or a run over a window
// other than the one announced.
func TestBadWindowsExitTwo(t *testing.T) {
	dir := t.TempDir()
	hints := filepath.Join(dir, "h.wspa")
	prof := filepath.Join(dir, "p.wspa")
	if code, _, errOut := runCLI(t, "profile", "-app", "kafka", "-records", "4000", "-o", prof); code != 0 {
		t.Fatalf("profile exit %d: %s", code, errOut)
	}
	if code, _, errOut := runCLI(t, "train", "-profile", prof, "-o", hints); code != 0 {
		t.Fatalf("train exit %d: %s", code, errOut)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-app", "kafka", "-input", "99"}, "input 99 out of range"},
		{[]string{"-app", "kafka", "-test-input", "-1"}, "input -1 out of range"},
		{[]string{"-app", "kafka", "-records", "0"}, "records must be positive"},
		{[]string{"profile", "-app", "kafka", "-input", "6", "-o", filepath.Join(dir, "x.wspa")}, "input 6 out of range"},
		{[]string{"report", "-app", "kafka", "-records", "4000", "-test-input", "6"}, "input 6 out of range"},
		{[]string{"apply", "-hints", hints, "-test-input", "7"}, "input 7 out of range"},
		{[]string{"-trace-file", sampleTrace, "-trace-format", "wbt"}, `unknown trace format "wbt"`},
	} {
		code, out, errOut := runCLI(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stdout %q)", tc.args, code, out)
		}
		if strings.Count(errOut, "\n") != 1 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: stderr %q, want one line containing %q", tc.args, errOut, tc.want)
		}
		if out != "" {
			t.Errorf("%v: ran anyway:\n%s", tc.args, out)
		}
	}
}

// TestApplyRejectsCorrupt: a corrupted artifact must fail apply with a
// store error, never load partially.
func TestApplyRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	profPath := filepath.Join(dir, "p.wspa")
	hintPath := filepath.Join(dir, "h.wspa")
	if code, _, errOut := runCLI(t, "profile", "-app", "kafka", "-records", "4000", "-o", profPath); code != 0 {
		t.Fatalf("profile exit %d: %s", code, errOut)
	}
	if code, _, errOut := runCLI(t, "train", "-profile", profPath, "-o", hintPath); code != 0 {
		t.Fatalf("train exit %d: %s", code, errOut)
	}
	data, err := os.ReadFile(hintPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(hintPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runCLI(t, "apply", "-hints", hintPath)
	if code != 1 {
		t.Fatalf("corrupt artifact exit %d (want 1): %s", code, errOut)
	}
	if !strings.Contains(errOut, "apply: reading") {
		t.Fatalf("unhelpful error: %q", errOut)
	}
}

// TestTrainRequiresProfileSection: feeding a hint bundle back into train
// is a clear error.
func TestTrainRequiresProfileSection(t *testing.T) {
	dir := t.TempDir()
	profPath := filepath.Join(dir, "p.wspa")
	hintPath := filepath.Join(dir, "h.wspa")
	if code, _, errOut := runCLI(t, "profile", "-app", "kafka", "-records", "4000", "-o", profPath); code != 0 {
		t.Fatalf("profile exit %d: %s", code, errOut)
	}
	if code, _, errOut := runCLI(t, "train", "-profile", profPath, "-o", hintPath); code != 0 {
		t.Fatalf("train exit %d: %s", code, errOut)
	}
	code, _, errOut := runCLI(t, "train", "-profile", hintPath, "-o", filepath.Join(dir, "x.wspa"))
	if code != 1 || !strings.Contains(errOut, "no profile section") {
		t.Fatalf("exit %d, err %q", code, errOut)
	}
}
