package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenRun executes the CLI and compares (or rewrites with -update)
// the normalized stdout against a committed fixture.
func goldenRun(t *testing.T, golden string, args ...string) {
	t.Helper()
	goldenCompare(t, golden, completedRe.ReplaceAllString(cliStdout(t, args...), "completed in X]"))
}

// cliStdout executes the CLI, requiring exit 0 and an empty stderr, and
// returns its stdout.
func cliStdout(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Fatalf("unexpected stderr: %s", stderr.String())
	}
	return stdout.String()
}

// goldenCompare compares got with testdata/golden, or rewrites the
// fixture under -update.
func goldenCompare(t *testing.T, golden, got string) {
	t.Helper()
	path := filepath.Join("testdata", golden)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (rerun with -update if intended):\n--- got\n%s\n--- want\n%s",
			path, got, want)
	}
}

// TestGoldenTransferTables locks the cross-workload transfer study's
// three tables — the reduction matrix, the overlap matrix, and the
// sorted pair summary — over a mixed catalog/family app set.
func TestGoldenTransferTables(t *testing.T) {
	goldenRun(t, "golden-transfer.txt",
		"-scale", "tiny", "-records", "20000", "-apps", "python,interp-dispatch,gc-mark",
		"-only", "transfer", "-j", "2", "-no-cache")
}

// TestGoldenImportedTrace locks the imported-trace evaluation over the
// committed example fixture, in both text and binary form (the two
// files decode to identical records, so they must print identical
// tables up to the trace name).
func TestGoldenImportedTrace(t *testing.T) {
	goldenRun(t, "golden-import.txt",
		"-trace-file", "../../examples/traces/sample.txt", "-no-cache")

	var text, bin bytes.Buffer
	var stderr bytes.Buffer
	if code := run([]string{"-trace-file", "../../examples/traces/sample.txt", "-no-cache"}, &text, &stderr); code != 0 {
		t.Fatalf("text: exit %d: %s", code, stderr.String())
	}
	if code := run([]string{"-trace-file", "../../examples/traces/sample.wspt", "-trace-format", "binary", "-no-cache"}, &bin, &stderr); code != 0 {
		t.Fatalf("binary: exit %d: %s", code, stderr.String())
	}
	norm := func(b *bytes.Buffer, name string) string {
		return completedRe.ReplaceAllString(
			string(bytes.ReplaceAll(b.Bytes(), []byte(name), []byte("sample"))),
			"completed in X]")
	}
	if norm(&text, "sample.txt") != norm(&bin, "sample.wspt") {
		t.Fatalf("text and binary forms of the same trace diverge:\n--- text\n%s\n--- binary\n%s",
			text.String(), bin.String())
	}
}

// TestTraceFlagConflicts drives every rejected -trace-file combination
// through the real flag parser.
func TestTraceFlagConflicts(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"with -spec", []string{"-trace-file", "../../examples/traces/sample.txt", "-spec", "x.yaml"}},
		{"with -apps", []string{"-trace-file", "../../examples/traces/sample.txt", "-apps", "mysql"}},
		{"format without file", []string{"-trace-format", "binary"}},
		{"unknown format", []string{"-trace-file", "../../examples/traces/sample.txt", "-trace-format", "nope"}},
		{"retired wbt format", []string{"-trace-file", "../../examples/traces/sample.txt", "-trace-format", "wbt"}},
		{"missing file", []string{"-trace-file", "no-such-trace.txt"}},
		{"paper id", []string{"-trace-file", "../../examples/traces/sample.txt", "-only", "fig1"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr %q)", tc.name, code, stderr.String())
		}
	}
}

// TestGoldenFamilyDeterminism sweeps the three workload families added
// with the importer layer across worker counts: the CLI's stdout must
// be byte-identical at -j 1 and -j 4. Run under -race in CI, this
// doubles as the families' scheduler-stress test.
func TestGoldenFamilyDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the family drivers twice")
	}
	runWith := func(j string) string {
		var stdout, stderr bytes.Buffer
		args := []string{
			"-scale", "tiny", "-records", "3000",
			"-apps", "interp-dispatch,gc-mark,rpc-chain",
			"-only", "fig1,fig6", "-no-cache", "-j", j,
		}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-j %s: exit %d: %s", j, code, stderr.String())
		}
		return completedRe.ReplaceAllString(stdout.String(), "completed in X]")
	}
	want := runWith("1")
	if got := runWith("4"); got != want {
		t.Errorf("-j 4: stdout differs from -j 1:\n--- got\n%s\n--- want\n%s", got, want)
	}
}
