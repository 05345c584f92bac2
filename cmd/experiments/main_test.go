package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"github.com/whisper-sim/whisper/internal/workload"
)

func TestParseConfigDefaults(t *testing.T) {
	c, err := parseConfig(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if want := workload.ScaleSmall.Records(); c.opt.Records != want {
		t.Fatalf("default records %d, want the small scale's %d", c.opt.Records, want)
	}
	if len(c.opt.Apps) != 12 {
		t.Fatalf("default app count %d", len(c.opt.Apps))
	}
	if c.opt.Parallelism != 0 {
		t.Fatalf("default parallelism %d (want 0 = one per CPU)", c.opt.Parallelism)
	}
	if c.csv || c.plot || c.progress || c.timing {
		t.Fatal("output flags should default off")
	}
	for _, id := range []string{"fig13", "table1", "anything"} {
		if !c.run(id) {
			t.Fatalf("empty -only must select %q", id)
		}
	}
}

func TestParseConfigFlags(t *testing.T) {
	c, err := parseConfig([]string{
		"-scale", "tiny", "-records", "5000", "-j", "4",
		"-progress", "-timing", "-csv",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.opt.Records != 5000 {
		t.Fatalf("records %d", c.opt.Records)
	}
	if c.opt.Parallelism != 4 {
		t.Fatalf("parallelism %d", c.opt.Parallelism)
	}
	if !c.progress || !c.timing || !c.csv {
		t.Fatal("boolean flags not captured")
	}
}

// TestParseConfigRecordBudget: -scale picks the record budget and a
// positive -records overrides it; 0 keeps the scale's.
func TestParseConfigRecordBudget(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-scale", "tiny"}, workload.ScaleTiny.Records()},
		{[]string{"-scale", "full"}, workload.ScaleFull.Records()},
		{[]string{"-scale", "tiny", "-records", "0"}, workload.ScaleTiny.Records()},
		{[]string{"-scale", "full", "-records", "7000"}, 7000},
	} {
		c, err := parseConfig(tc.args, io.Discard)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if c.opt.Records != tc.want {
			t.Errorf("%v: records %d, want %d", tc.args, c.opt.Records, tc.want)
		}
	}
}

// TestRunRejectsNegativeCounts: a negative -records or -j is a usage
// error (exit 2, one stderr line), not the scale's budget or one worker
// per CPU.
func TestRunRejectsNegativeCounts(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-records", "-5"}, "-records -5: want a positive record count (0 = the scale's)"},
		{[]string{"-j", "-3"}, "-j -3: want a positive worker count (0 = one per CPU)"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-scale", "tiny", "-apps", "mysql", "-only", "fig2", "-no-cache"}, tc.args...)
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if got := stderr.String(); got != tc.want+"\n" {
			t.Errorf("%v: stderr %q, want the one line %q", tc.args, got, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran despite the error:\n%s", tc.args, stdout.String())
		}
	}
}

func TestParseConfigUnknownScale(t *testing.T) {
	_, err := parseConfig([]string{"-scale", "huge"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown scale "huge"`) {
		t.Fatalf("got %v", err)
	}
}

func TestParseConfigUnknownApp(t *testing.T) {
	_, err := parseConfig([]string{"-apps", "mysql,notanapp"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown app "notanapp"`) {
		t.Fatalf("got %v", err)
	}
}

func TestParseConfigAppSubset(t *testing.T) {
	c, err := parseConfig([]string{"-apps", "mysql, kafka"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.opt.Apps) != 2 {
		t.Fatalf("app count %d", len(c.opt.Apps))
	}
	if n := c.opt.Apps[1].Name(); n != "kafka" {
		t.Fatalf("apps[1] = %q (whitespace not trimmed?)", n)
	}
}

func TestParseConfigOnlyFilter(t *testing.T) {
	c, err := parseConfig([]string{"-only", "Fig13, table1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Ids are matched case-insensitively with whitespace trimmed.
	if !c.run("fig13") || !c.run("table1") {
		t.Fatal("selected ids must run")
	}
	if c.run("fig12") {
		t.Fatal("unselected id must not run")
	}
	// The suite's ids include the opt-in transfer study; a typo is
	// rejected with the valid ids rather than silently running nothing.
	if _, err := parseConfig([]string{"-only", "fig13,transfer"}, io.Discard); err != nil {
		t.Fatalf("-only fig13,transfer: %v", err)
	}
	_, err = parseConfig([]string{"-only", "fig13, FGI13"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown -only id "fgi13" (valid: table1,`) ||
		!strings.Contains(err.Error(), "fig16, fig14") || !strings.HasSuffix(err.Error(), "transfer)") {
		t.Fatalf("-only typo: got %v", err)
	}
}

// TestOnlySelectsTablesOfSharedRow: ids that share one driver run (Figs
// 12, 13 and 16 come from one comparison) print exactly the selected
// tables, in paper order, under the row's single footer.
func TestOnlySelectsTablesOfSharedRow(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-scale", "tiny", "-records", "2000", "-apps", "mysql", "-only", "fig16,fig13", "-no-cache"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	i13 := strings.Index(out, "Fig 13: misprediction reduction over 64KB TAGE-SC-L (%)")
	i16 := strings.Index(out, "Fig 16: offline training time")
	footer := strings.Index(out, "[fig12/13/16 completed in ")
	if i13 < 0 || i16 < i13 || footer < i16 {
		t.Fatalf("want the Fig 13 table, then Fig 16, then the row footer:\n%s", out)
	}
	if strings.Contains(out, "Fig 12") || strings.Count(out, "completed in") != 1 {
		t.Fatalf("want no Fig 12 table and one footer:\n%s", out)
	}
}

func TestParseConfigBadFlag(t *testing.T) {
	if _, err := parseConfig([]string{"-nope"}, io.Discard); err == nil {
		t.Fatal("undefined flag must error, not exit")
	}
}

func TestParseConfigCacheFlags(t *testing.T) {
	c, err := parseConfig(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.cacheDir != "" || c.noCache {
		t.Fatalf("cache defaults: dir=%q noCache=%v", c.cacheDir, c.noCache)
	}
	c, err = parseConfig([]string{"-cache", "/tmp/whisper-cache", "-no-cache"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.cacheDir != "/tmp/whisper-cache" || !c.noCache {
		t.Fatalf("cache flags not captured: dir=%q noCache=%v", c.cacheDir, c.noCache)
	}
	if openCache(c, io.Discard) != nil {
		t.Fatal("-no-cache must win over -cache")
	}
}

func TestOpenCacheExplicitDir(t *testing.T) {
	dir := t.TempDir()
	c := &config{cacheDir: dir}
	cache := openCache(c, io.Discard)
	if cache == nil {
		t.Fatal("explicit dir should open")
	}
	if cache.Dir() != dir {
		t.Fatalf("cache dir %q, want %q", cache.Dir(), dir)
	}
}
