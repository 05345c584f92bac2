package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runDoc is one run of the repository benchmark as `benchmark -json`
// writes it (see benchmark/README.md). Fields benchdiff does not read
// are ignored.
type runDoc struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Traced     bool    `json:"traced"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	HostRefMS  float64 `json:"host_ref_ms"`
	Result     struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// runSet is a committed BENCH_<topic>.json of the repository benchmark:
// the parent's and the change's runs. Given as BASE it contributes its parent runs, given as NEW its change
// runs, so diffing the file against itself gates the change it records.
type runSet struct {
	Parent []runDoc `json:"parent"`
	Change []runDoc `json:"change"`
}

// load reads one argument. A directory is a set of `benchmark -json`
// run files (*.json). A file is told apart by its content: a run set
// (parent/change lists; its parent list when base, else its change
// list) or a single run file (workload/result).
func load(path string, base bool) ([]runDoc, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		files, err := filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("%s: no *.json run files", path)
		}
		var runs []runDoc
		for _, f := range files {
			var r runDoc
			if err := readJSON(f, &r); err != nil {
				return nil, err
			}
			if r.Workload == "" {
				return nil, fmt.Errorf("%s: not a benchmark run file", f)
			}
			runs = append(runs, r)
		}
		return runs, nil
	}
	var probe map[string]json.RawMessage
	if err := readJSON(path, &probe); err != nil {
		return nil, err
	}
	switch {
	case probe["parent"] != nil || probe["change"] != nil:
		var set runSet
		if err := readJSON(path, &set); err != nil {
			return nil, err
		}
		if base {
			return set.Parent, nil
		}
		return set.Change, nil
	case probe["workload"] != nil && probe["result"] != nil:
		var r runDoc
		if err := readJSON(path, &r); err != nil {
			return nil, err
		}
		return []runDoc{r}, nil
	}
	return nil, fmt.Errorf("%s: neither a benchmark run file nor a run set", path)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json benchdiff reads: the workload
// order and each metric's direction and allowed relative worsening.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// findSpec reads the BENCHMARK.json of the current directory or its
// nearest ancestor that has one (the repository root).
func findSpec() (*benchSpec, string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, "", err
	}
	for {
		path := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(path); err == nil {
			var spec benchSpec
			if err := readJSON(path, &spec); err != nil {
				return nil, "", err
			}
			for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
				if m.Better != "lower" && m.Better != "higher" {
					return nil, "", fmt.Errorf("%s: metric %s: better is %q, want lower or higher", path, m.Name, m.Better)
				}
			}
			return &spec, path, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, "", errors.New("no BENCHMARK.json in the current directory or above it")
		}
		dir = parent
	}
}

// diffRuns gates the change's benchmark runs against the parent's: per
// workload and end-to-end metric, the change's median may be worse than
// the parent's by at most the metric's BENCHMARK.json bound, and every
// run must be correct with no failed operation. A diff that compared no
// (workload, end-to-end metric) pair fails too: it shows nothing.
// Per-layer medians of traced runs are printed for information.
func diffRuns(base, next []runDoc, stdout, stderr io.Writer) int {
	spec, specPath, err := findSpec()
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "benchdiff: %s; base %s, new %s\n", specPath, describe(base), describe(next))
	if b, n := procs(base), procs(next); b != n {
		fmt.Fprintf(stderr, "benchdiff: warning: base ran at GOMAXPROCS %s, new at %s\n", b, n)
	}

	bad, compared := 0, 0
	for _, s := range []struct {
		name string
		runs []runDoc
	}{{"base", base}, {"new", next}} {
		for _, r := range s.runs {
			if !r.Result.Correct || r.Result.Failed > 0 {
				fmt.Fprintf(stdout, "INCORRECT %s %s seed %d traced=%v: correct %v, failed %d\n",
					s.name, r.Workload, r.Seed, r.Traced, r.Result.Correct, r.Result.Failed)
				bad++
			}
		}
	}

	for _, w := range workloadOrder(spec, base, next) {
		b, n := pick(base, w, false), pick(next, w, false)
		switch {
		case len(b) == 0 && len(n) == 0:
			continue
		case len(n) == 0:
			fmt.Fprintf(stdout, "MISSING  %s: end-to-end runs in base, none in new\n", w)
			bad++
			continue
		case len(b) == 0:
			fmt.Fprintf(stdout, "new      %s: not in base\n", w)
			continue
		}
		for _, m := range spec.EndToEnd {
			bv, nv := values(b, m.Name), values(n, m.Name)
			if len(bv) == 0 && len(nv) == 0 {
				continue
			}
			if len(bv) == 0 || len(nv) == 0 {
				fmt.Fprintf(stdout, "MISSING  %s %s: reported by only one side\n", w, m.Name)
				bad++
				continue
			}
			compared++
			bm, nm := quantile(bv, 0.5), quantile(nv, 0.5)
			status := "ok      "
			if worse(m, bm, nm) {
				status = "REGRESS "
				bad++
			}
			fmt.Fprintf(stdout, "%s %s %s: %s -> %s %s (%s; bound %.0f%%, %s is better; %d vs %d runs)\n",
				status, w, m.Name, spread(bv), spread(nv), m.Unit, pct(bm, nm), m.Bound*100, m.Better, len(bv), len(nv))
		}
		bt, nt := pick(base, w, true), pick(next, w, true)
		if len(bt) == 0 || len(nt) == 0 {
			continue
		}
		for _, m := range spec.PerLayer {
			bv, nv := values(bt, m.Name), values(nt, m.Name)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			bm, nm := quantile(bv, 0.5), quantile(nv, 0.5)
			fmt.Fprintf(stdout, "info     %s %s: %.4g -> %.4g %s (%s)\n", w, m.Name, bm, nm, m.Unit, pct(bm, nm))
		}
	}
	if compared == 0 {
		fmt.Fprintf(stderr, "benchdiff: no end-to-end metric compared: %s\n", emptySide(base, next))
		return 1
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d end-to-end regression(s) or incorrect run(s)\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "benchdiff: every end-to-end metric within its bound, every run correct")
	return 0
}

// emptySide names the side, or sides, holding no untraced run: the
// reason a diff compared nothing.
func emptySide(base, next []runDoc) string {
	var empty []string
	for _, s := range []struct {
		name string
		runs []runDoc
	}{{"base", base}, {"new", next}} {
		untraced := 0
		for _, r := range s.runs {
			if !r.Traced {
				untraced++
			}
		}
		if untraced == 0 {
			empty = append(empty, s.name)
		}
	}
	if len(empty) == 0 {
		return "base and new share no workload reporting an end-to-end metric"
	}
	return strings.Join(empty, " and ") + " holds no untraced run"
}

// worse reports whether the change's median nm is worse than the
// parent's bm by more than the metric's relative bound.
func worse(m metricSpec, bm, nm float64) bool {
	if m.Better == "lower" {
		return nm > bm*(1+m.Bound)
	}
	return nm < bm*(1-m.Bound)
}

// workloadOrder lists BENCHMARK.json's workloads, then any others the
// runs name, sorted.
func workloadOrder(spec *benchSpec, sets ...[]runDoc) []string {
	seen := map[string]bool{}
	var out, extra []string
	for _, w := range spec.Workloads {
		seen[w.Name] = true
		out = append(out, w.Name)
	}
	for _, runs := range sets {
		for _, r := range runs {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				extra = append(extra, r.Workload)
			}
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// pick returns the runs of workload w with the given traced flag.
func pick(runs []runDoc, w string, traced bool) []runDoc {
	var out []runDoc
	for _, r := range runs {
		if r.Workload == w && r.Traced == traced {
			out = append(out, r)
		}
	}
	return out
}

// values collects metric name over runs, skipping runs without it.
func values(runs []runDoc, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Result.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// quantile is the linearly interpolated q-quantile of vs.
func quantile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// spread renders the median with the interquartile range.
func spread(vs []float64) string {
	return fmt.Sprintf("%.4g [%.4g–%.4g]", quantile(vs, 0.5), quantile(vs, 0.25), quantile(vs, 0.75))
}

func pct(b, n float64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (n-b)/b*100)
}

// describe summarizes a run set for the header line.
func describe(runs []runDoc) string {
	var refs []float64
	for _, r := range runs {
		refs = append(refs, r.HostRefMS)
	}
	if len(refs) == 0 {
		return "0 runs"
	}
	return fmt.Sprintf("%d runs at GOMAXPROCS %s, host_ref_ms median %.1f", len(runs), procs(runs), quantile(refs, 0.5))
}

// procs lists the distinct GOMAXPROCS values of runs.
func procs(runs []runDoc) string {
	seen := map[int]bool{}
	var ps []string
	for _, r := range runs {
		if !seen[r.GOMAXPROCS] {
			seen[r.GOMAXPROCS] = true
			ps = append(ps, fmt.Sprint(r.GOMAXPROCS))
		}
	}
	sort.Strings(ps)
	return strings.Join(ps, ",")
}
