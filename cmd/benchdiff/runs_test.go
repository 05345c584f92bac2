package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureRun is one untraced `benchmark -json` run with the end-to-end
// metrics every workload reports.
func fixtureRun(workload string, seed int, resultS, slo float64) map[string]any {
	metric := func(v float64, unit string) map[string]any { return map[string]any{"value": v, "unit": unit} }
	return map[string]any{
		"workload": workload, "seed": seed, "seconds": 25, "traced": false,
		"gomaxprocs": 2, "go": "go1.24.0", "host_ref_ms": 30.0,
		"result": map[string]any{
			"correct": true, "attempted": 10, "failed": 0,
			"metrics": map[string]any{
				"setup_s":        metric(0.5, "s"),
				"result_s":       metric(resultS, "s"),
				"request_p50_ms": metric(resultS*1000, "ms"),
				"slo_frac":       metric(slo, "ratio"),
				"max_rss_mb":     metric(100, "MB"),
			},
		},
		"info": map[string]any{},
	}
}

// fixtureRuns returns n runs of each of two workloads, result_s scaled
// by factor and slo_frac set to slo.
func fixtureRuns(n int, factor, slo float64) []map[string]any {
	var out []map[string]any
	for i := 0; i < n; i++ {
		out = append(out, fixtureRun("oneshot-train", i+1, (3+0.1*float64(i%3))*factor, slo))
		out = append(out, fixtureRun("serve-drift", i+1, (0.1+0.01*float64(i%3))*factor, slo))
	}
	return out
}

func writeJSON(t *testing.T, path string, v any) string {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeRunSet writes a BENCH_<topic>.json run set.
func writeRunSet(t *testing.T, dir string, parent, change []map[string]any) string {
	t.Helper()
	return writeJSON(t, filepath.Join(dir, "BENCH_topic.json"),
		map[string]any{"name": "topic", "parent": parent, "change": change})
}

// TestRunSetGatesChange: a run set self-diffs to its parent-vs-change
// comparison: a 2x faster change passes, a change 40% slower on
// result_s (bound 25%) fails naming workload and metric.
func TestRunSetGatesChange(t *testing.T) {
	dir := t.TempDir()
	faster := writeRunSet(t, dir, fixtureRuns(5, 1, 0.9), fixtureRuns(5, 0.5, 0.9))
	code, out, errOut := diff(t, faster, faster)
	if code != 0 {
		t.Fatalf("faster change exit %d:\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "ok       oneshot-train result_s") || !strings.Contains(out, "-50.0%") {
		t.Fatalf("missing per-metric line:\n%s", out)
	}

	slower := writeRunSet(t, dir, fixtureRuns(5, 1, 0.9), fixtureRuns(5, 1.4, 0.9))
	code, out, _ = diff(t, slower, slower)
	if code != 1 || !strings.Contains(out, "REGRESS  oneshot-train result_s") {
		t.Fatalf("slower change exit %d:\n%s", code, out)
	}
}

// TestRunSetHigherIsBetter: slo_frac is "higher is better" with bound
// 0.2: 0.9 -> 0.75 passes, 0.9 -> 0.6 fails.
func TestRunSetHigherIsBetter(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		slo  float64
		code int
	}{{0.75, 0}, {0.6, 1}} {
		path := writeRunSet(t, dir, fixtureRuns(3, 1, 0.9), fixtureRuns(3, 1, tc.slo))
		code, out, _ := diff(t, path, path)
		if code != tc.code {
			t.Fatalf("slo_frac 0.9 -> %v: exit %d, want %d:\n%s", tc.slo, code, tc.code, out)
		}
	}
}

// TestRunSetIncorrectFails: a run reporting correct false, or failed
// operations, fails the gate whatever its timings.
func TestRunSetIncorrectFails(t *testing.T) {
	dir := t.TempDir()
	for _, mutate := range []func(r map[string]any){
		func(r map[string]any) { r["result"].(map[string]any)["correct"] = false },
		func(r map[string]any) { r["result"].(map[string]any)["failed"] = 1 },
	} {
		change := fixtureRuns(3, 0.5, 0.9)
		mutate(change[2])
		path := writeRunSet(t, dir, fixtureRuns(3, 1, 0.9), change)
		code, out, _ := diff(t, path, path)
		if code != 1 || !strings.Contains(out, "INCORRECT new") {
			t.Fatalf("incorrect run exit %d:\n%s", code, out)
		}
	}
}

// TestRunDirectories: two directories of run files compare like a run
// set; a workload missing from the new side fails, one only in the new
// side is reported.
func TestRunDirectories(t *testing.T) {
	root := t.TempDir()
	write := func(sub string, runs []map[string]any) string {
		dir := filepath.Join(root, sub)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, r := range runs {
			writeJSON(t, filepath.Join(dir, fmt.Sprintf("run%02d.json", i)), r)
		}
		return dir
	}
	base := write("parent", fixtureRuns(4, 1, 0.9))
	next := write("change", fixtureRuns(4, 0.9, 0.9))
	if code, out, errOut := diff(t, base, next); code != 0 {
		t.Fatalf("directories exit %d:\n%s%s", code, out, errOut)
	}
	var onlyTrain []map[string]any
	for _, r := range fixtureRuns(4, 1, 0.9) {
		if r["workload"] == "oneshot-train" {
			onlyTrain = append(onlyTrain, r)
		}
	}
	partial := write("partial", append(onlyTrain, fixtureRun("made-up", 1, 1, 1)))
	code, out, _ := diff(t, base, partial)
	if code != 1 || !strings.Contains(out, "MISSING  serve-drift") || !strings.Contains(out, "new      made-up") {
		t.Fatalf("missing workload exit %d:\n%s", code, out)
	}
}

// TestNothingComparedFails: a diff that compared no (workload,
// end-to-end metric) pair shows nothing, so it fails, naming the side
// without untraced runs, however the other side's metrics read.
func TestNothingComparedFails(t *testing.T) {
	dir := t.TempDir()
	slow := fixtureRun("oneshot-sim", 1, 10, 0.1)
	traced := fixtureRun("oneshot-sim", 1, 1, 1)
	traced["traced"] = true
	for _, tc := range []struct {
		name string
		set  map[string]any
	}{
		{"empty parent", map[string]any{"parent": []any{}, "change": []any{slow}}},
		{"no parent key", map[string]any{"change": []any{slow}}},
		{"traced parent only", map[string]any{"parent": []any{traced}, "change": []any{slow}}},
	} {
		path := writeJSON(t, filepath.Join(dir, "BENCH_topic.json"), tc.set)
		code, out, errOut := diff(t, path, path)
		if code != 1 || !strings.Contains(errOut, "no end-to-end metric compared: base holds no untraced run") {
			t.Errorf("%s: exit %d, stderr %q:\n%s", tc.name, code, errOut, out)
		}
	}
}
