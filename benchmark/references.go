package main

import (
	_ "embed"
	"encoding/json"
	"regexp"
	"strings"
)

// references maps an output key to the digest the program produced for
// it when the benchmark was defined: oneshot flows by app, window and
// inputs, and the serve workload's per-tenant (version, ETag) sequence by
// seed. Keys without a reference are checked for consistency within the
// run only. Regenerate with `go test -run TestUpdateReferences -update`.
var references = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(referencesJSON, &m); err != nil {
		panic("benchmark: testdata/references.json: " + err.Error())
	}
	return m
}()

//go:embed testdata/references.json
var referencesJSON []byte

// suiteReference is the suite-tiny workload's masked stdout.
//
//go:embed testdata/suite-tiny.txt
var suiteReference string

// completedLine matches the suite's per-experiment wall-clock lines.
var completedLine = regexp.MustCompile(`^\[.* completed in .*\]$`)

// maskSuite removes what differs between otherwise identical suite runs:
// the "[... completed in ...]" lines, and the wall-clock last column of
// the data rows of Fig 15 (average training time) and Fig 16 (training
// seconds).
func maskSuite(out string) string {
	const (
		plain   = iota
		heading // in a timed table, before its dashed rule
		rows    // in a timed table's data rows
	)
	var b strings.Builder
	state := plain
	for _, line := range strings.SplitAfter(out, "\n") {
		body := strings.TrimRight(line, "\n")
		switch {
		case completedLine.MatchString(body):
			continue
		case strings.HasPrefix(body, "Fig 15:"), strings.HasPrefix(body, "Fig 16:"):
			state = heading
		case body == "":
			state = plain
		case state == heading && strings.HasPrefix(body, "---"):
			state = rows
		case state == rows:
			if i := strings.LastIndexByte(body, ' '); i >= 0 {
				line = body[:i+1] + "*" + line[len(body):]
			}
		}
		b.WriteString(line)
	}
	return b.String()
}
