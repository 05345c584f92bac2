package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
// other than the one announced. So is a bad -explore, and a -warmup
// outside [0, 1), which would measure the whole window, cold start
// included.
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
		{[]string{"-app", "kafka", "-records", "4000", "-explore", "NaN"}, "-explore NaN: want a positive fraction"},
		{[]string{"train", "-profile", prof, "-o", filepath.Join(dir, "y.wspa"), "-explore", "0"}, "-explore 0: want a positive fraction"},
		{[]string{"report", "-app", "kafka", "-records", "4000", "-explore", "-1"}, "-explore -1: want a positive fraction"},
		{[]string{"-app", "kafka", "-records", "4000", "-warmup", "NaN"}, "-warmup NaN: want a fraction in [0, 1)"},
		{[]string{"-app", "kafka", "-records", "4000", "-warmup", "1"}, "-warmup 1: want a fraction in [0, 1)"},
		{[]string{"apply", "-hints", hints, "-warmup", "-1"}, "-warmup -1: want a fraction in [0, 1)"},
		{[]string{"report", "-app", "kafka", "-records", "4000", "-warmup", "1.5"}, "-warmup 1.5: want a fraction in [0, 1)"},
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
	// A warm-up of 0 measures the whole window and is no error.
	if code, _, errOut := runCLI(t, "apply", "-hints", hints, "-warmup", "0"); code != 0 {
		t.Errorf("apply -warmup 0: exit %d (%s), want 0", code, errOut)
	}
	// The pipeline has no block-size setting, so -block is an undefined
	// flag: the flag package names it on the first stderr line, then
	// prints the usage.
	code, out, errOut := runCLI(t, "report", "-app", "kafka", "-records", "4000", "-block", "7")
	if first, _, _ := strings.Cut(errOut, "\n"); code != 2 || out != "" || first != "flag provided but not defined: -block" {
		t.Errorf("report -block 7: exit %d, stdout %q, stderr first line %q; want 2, nothing, and the undefined flag", code, out, first)
	}
}

// serveRejects runs `whisper serve` with a bad flag and requires it to
// exit 2 with no stdout and one stderr line containing want, before it
// starts listening.
func serveRejects(t *testing.T, want string, flags ...string) {
	t.Helper()
	type result struct {
		code        int
		out, errOut string
	}
	done := make(chan result, 1)
	go func() {
		var stdout, stderr bytes.Buffer
		args := append([]string{"serve", "-addr", "127.0.0.1:0", "-dir", t.TempDir()}, flags...)
		code := run(args, &stdout, &stderr)
		done <- result{code, stdout.String(), stderr.String()}
	}()
	select {
	case r := <-done:
		if r.code != 2 || r.out != "" {
			t.Fatalf("serve %v: exit %d, stdout %q; want 2 and no output", flags, r.code, r.out)
		}
		if strings.Count(r.errOut, "\n") != 1 || !strings.Contains(r.errOut, want) {
			t.Fatalf("serve %v: stderr %q, want one line containing %q", flags, r.errOut, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("serve %v started instead of exiting", flags)
	}
}

// TestServeRejectsBadExplore: the daemon refuses a bad -explore before
// it starts listening (exit 2, one stderr line), rather than accepting
// shards and failing its first retrain.
func TestServeRejectsBadExplore(t *testing.T) {
	serveRejects(t, "-explore NaN: want a positive fraction", "-explore", "NaN")
}

// TestServeRejectsNegativeLimits: a negative limit stops the daemon
// from starting (exit 2) instead of breaking every request it serves.
func TestServeRejectsNegativeLimits(t *testing.T) {
	for _, tc := range []struct{ flag, field string }{
		{"-max-inflight", "MaxInflight"},
		{"-max-tenants", "MaxTenants"},
		{"-max-body-bytes", "MaxBodyBytes"},
		{"-min-retrain-records", "MinRetrainRecords"},
	} {
		serveRejects(t, tc.field+" -1 is negative", tc.flag, "-1")
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
