package main

import (
	"bytes"
	"path/filepath"
	"testing"
)

// diff drives the CLI in-process.
func diff(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestUsageAndReadErrors: bad invocations exit 2, unreadable or
// unrecognized inputs 1.
func TestUsageAndReadErrors(t *testing.T) {
	if code, _, _ := diff(t); code != 2 {
		t.Fatal("no-arg invocation accepted")
	}
	if code, _, _ := diff(t, "one.json"); code != 2 {
		t.Fatal("single-arg invocation accepted")
	}
	if code, _, _ := diff(t, "-ns-threshold", "-1", "a.json", "b.json"); code != 2 {
		t.Fatal("undefined flag accepted")
	}
	dir := t.TempDir()
	ok := writeJSON(t, filepath.Join(dir, "run.json"), fixtureRun("oneshot-sim", 1, 0.5, 1))
	if code, _, errOut := diff(t, filepath.Join(dir, "absent.json"), ok); code != 1 || errOut == "" {
		t.Fatalf("unreadable base exit %d", code)
	}
	other := writeJSON(t, filepath.Join(dir, "other.json"), map[string]any{"schema": 1, "results": []any{}})
	if code, _, errOut := diff(t, other, ok); code != 1 || errOut == "" {
		t.Fatalf("unrecognized base exit %d", code)
	}
}

// TestCommittedBaselinesSelfDiff runs the exact CI gate: every
// committed BENCH_*.json must self-diff clean.
func TestCommittedBaselinesSelfDiff(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Skip("no committed baselines")
	}
	for _, path := range matches {
		if code, out, errOut := diff(t, path, path); code != 0 {
			t.Errorf("%s: self-diff exit %d:\n%s%s", path, code, out, errOut)
		}
	}
}
