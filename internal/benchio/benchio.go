// Package benchio defines the stable JSON schema of cmd/bench reports
// (BENCH_<name>.json): a versioned report header plus one result per
// (app, predictor) matrix cell, with scalar-vs-batched throughput in the
// units the runner's -timing summary also reports (records/sec and
// ns/record). Write/Read/Validate keep producers and consumers — the
// CLI, CI's bench-smoke job, and committed reference reports — on one
// schema.
package benchio

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Schema is the report schema version; readers reject files written by
// a newer tool.
const Schema = 1

// Result is one benchmark matrix cell: a (workload, predictor) pair
// measured under both pipeline engines. Times are medians across the
// report's repetitions; scalar and batched repetitions are interleaved
// by the producer so machine noise hits both engines alike.
type Result struct {
	// App and Predictor name the cell ("kafka", "tage-sc-l-64KB").
	App       string `json:"app"`
	Predictor string `json:"predictor"`
	// Records is the measured stream length; Reps the number of timed
	// repetitions per engine; BlockSize the batched engine's block
	// granularity (0 = default).
	Records   int `json:"records"`
	Reps      int `json:"reps"`
	BlockSize int `json:"block_size,omitempty"`

	// Median per-record cost of each engine, in nanoseconds.
	ScalarNSPerRecord  float64 `json:"scalar_ns_per_record"`
	BatchedNSPerRecord float64 `json:"batched_ns_per_record"`
	// The same medians as throughput, comparable to the runner's
	// records/sec accounting.
	ScalarRecordsPerSec  float64 `json:"scalar_records_per_sec"`
	BatchedRecordsPerSec float64 `json:"batched_records_per_sec"`
	// Speedup is scalar/batched per-record cost (> 1 means the batched
	// engine wins).
	Speedup float64 `json:"speedup"`
}

// Report is one cmd/bench run: a schema-versioned header and the full
// result matrix.
type Report struct {
	Schema int `json:"schema"`
	// Name is the report's identity ("batched_core"); the conventional
	// file name is BENCH_<name>.json.
	Name string `json:"name"`
	// Go and GOMAXPROCS describe the producing process.
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Smoke marks reduced-scale CI runs whose absolute numbers are not
	// comparable to full reports.
	Smoke   bool     `json:"smoke,omitempty"`
	Results []Result `json:"results"`
}

// Validate checks the report against the schema: a supported version, a
// name, at least one result, and per-result positive measurements whose
// derived fields (records/sec, speedup) are consistent with the
// ns/record medians they were computed from.
func Validate(r *Report) error {
	if r == nil {
		return fmt.Errorf("benchio: nil report")
	}
	if r.Schema <= 0 || r.Schema > Schema {
		return fmt.Errorf("benchio: schema %d, reader supports <= %d", r.Schema, Schema)
	}
	if r.Name == "" {
		return fmt.Errorf("benchio: report without name")
	}
	if len(r.Results) == 0 {
		return fmt.Errorf("benchio: report %q has no results", r.Name)
	}
	for i := range r.Results {
		if err := validateResult(&r.Results[i]); err != nil {
			return fmt.Errorf("benchio: result %d: %w", i, err)
		}
	}
	return nil
}

func validateResult(c *Result) error {
	if c.App == "" || c.Predictor == "" {
		return fmt.Errorf("missing app/predictor name")
	}
	if c.Records <= 0 || c.Reps <= 0 {
		return fmt.Errorf("%s/%s: non-positive records/reps", c.App, c.Predictor)
	}
	if c.ScalarNSPerRecord <= 0 || c.BatchedNSPerRecord <= 0 {
		return fmt.Errorf("%s/%s: non-positive ns/record", c.App, c.Predictor)
	}
	if !consistent(c.ScalarRecordsPerSec, 1e9/c.ScalarNSPerRecord) ||
		!consistent(c.BatchedRecordsPerSec, 1e9/c.BatchedNSPerRecord) {
		return fmt.Errorf("%s/%s: records/sec inconsistent with ns/record", c.App, c.Predictor)
	}
	if !consistent(c.Speedup, c.ScalarNSPerRecord/c.BatchedNSPerRecord) {
		return fmt.Errorf("%s/%s: speedup inconsistent with ns/record medians", c.App, c.Predictor)
	}
	return nil
}

// consistent tolerates the rounding Write applies to derived fields.
func consistent(got, want float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/math.Abs(want) < 1e-2
}

// Write validates the report and writes it as indented JSON.
func Write(path string, r *Report) error {
	if err := Validate(r); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Read loads and validates a report.
func Read(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchio: %s: %w", path, err)
	}
	if err := Validate(&r); err != nil {
		return nil, fmt.Errorf("benchio: %s: %w", path, err)
	}
	return &r, nil
}
