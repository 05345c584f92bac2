package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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
	stdout, stderr := cliOutput(t, args...)
	if stderr != "" {
		t.Fatalf("unexpected stderr: %s", stderr)
	}
	return stdout
}

// cliOutput executes the CLI, requiring exit 0, and returns its stdout
// and stderr.
func cliOutput(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	return out.String(), errOut.String()
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
		t.Fatalf("output differs from %s (rerun with -update if intended): %s\n--- got\n%s\n--- want\n%s",
			path, firstDiff(got, string(want)), got, want)
	}
}

// firstDiff names the first line where got and want differ, with both
// texts quoted (newline included, so a missing final newline shows),
// and both line counts.
func firstDiff(got, want string) string {
	g, w := goldenLines(got), goldenLines(want)
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	text := func(ls []string) string {
		if i < len(ls) {
			return strconv.Quote(ls[i])
		}
		return "(no such line)"
	}
	return fmt.Sprintf("first difference at line %d of %d (got) and %d (want):\n  got:  %s\n  want: %s",
		i+1, len(g), len(w), text(g), text(w))
}

// goldenLines splits s after each newline; a last line without one is
// a line too.
func goldenLines(s string) []string {
	ls := strings.SplitAfter(s, "\n")
	if ls[len(ls)-1] == "" {
		ls = ls[:len(ls)-1]
	}
	return ls
}

// TestFirstDiffNamesLine: the golden failure message leads with the
// first differing line, whichever way the outputs differ.
func TestFirstDiffNamesLine(t *testing.T) {
	for _, tc := range []struct{ got, want, msg string }{
		{"a\nb\nc\n", "a\nX\nc\n", `line 2 of 3 (got) and 3 (want):
  got:  "b\n"
  want: "X\n"`},
		{"a\n", "a\nb\n", `line 2 of 1 (got) and 2 (want):
  got:  (no such line)
  want: "b\n"`},
		{"a\nb", "a\nb\n", `line 2 of 2 (got) and 2 (want):
  got:  "b"
  want: "b\n"`},
		{"", "a\n", `line 1 of 0 (got) and 1 (want):
  got:  (no such line)
  want: "a\n"`},
	} {
		if msg := firstDiff(tc.got, tc.want); msg != "first difference at "+tc.msg {
			t.Errorf("firstDiff(%q, %q) = %q, want %q", tc.got, tc.want, msg, "first difference at "+tc.msg)
		}
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
