package cliflags

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/whisper-sim/whisper/internal/telemetry"
)

// parseObs registers the shared set on a fresh flag set and parses args.
func parseObs(t *testing.T, args ...string) Obs {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := Common(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestSessionLifecycle starts a session with every observability flag
// set, then closes it: the journal validates and carries the caller's
// manifest, the Chrome export parses, the debug endpoint serves
// /metrics while the session is live, and Close restores the previous
// process-wide registry and tracer.
func TestSessionLifecycle(t *testing.T) {
	dir := t.TempDir()
	journal, chrome := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "trace.json")
	o := parseObs(t, "-journal", journal, "-chrome-trace", chrome, "-debug-addr", "127.0.0.1:0")
	prevReg, prevTracer := telemetry.Default(), telemetry.Tracer()

	var stderr bytes.Buffer
	s, ok := o.Start(telemetry.Manifest{Tool: "cliflags test", Workers: 3, Config: map[string]any{"k": "v"}}, &stderr)
	if !ok {
		t.Fatalf("Start failed: %s", stderr.String())
	}
	if telemetry.Default() == prevReg || telemetry.Tracer() == prevTracer {
		t.Fatal("a live session must install its own registry and tracer")
	}
	m := regexp.MustCompile(`debug endpoint: (http://\S+/metrics)`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no debug endpoint announced: %q", stderr.String())
	}
	resp, err := http.Get(m[1])
	if err != nil {
		t.Fatalf("GET %s: %v", m[1], err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", m[1], resp.Status)
	}
	telemetry.StartSpan("profile").End()

	if code := s.Close(); code != 0 {
		t.Fatalf("Close = %d: %s", code, stderr.String())
	}
	if telemetry.Default() != prevReg || telemetry.Tracer() != prevTracer {
		t.Fatal("Close did not restore the previous registry and tracer")
	}
	for _, want := range []string{"wrote journal to " + journal, "wrote Chrome trace to " + chrome} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q lacks %q", stderr.String(), want)
		}
	}

	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateJournal(bytes.NewReader(data)); err != nil {
		t.Fatalf("journal invalid: %v", err)
	}
	var manifest struct {
		Manifest telemetry.Manifest `json:"manifest"`
	}
	first, _, _ := bytes.Cut(data, []byte("\n"))
	if err := json.Unmarshal(first, &manifest); err != nil {
		t.Fatal(err)
	}
	if got := manifest.Manifest; got.Tool != "cliflags test" || got.Workers != 3 || got.Go == "" || got.GOMAXPROCS == 0 {
		t.Fatalf("manifest %+v: want the caller's tool and workers plus Go and GOMAXPROCS", got)
	}

	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	chromeData, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(chromeData, &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 1 || doc.TraceEvents[0].Name != "profile" {
		t.Fatalf("chrome trace events %+v, want the one profile span", doc.TraceEvents)
	}
}

// TestSessionStartFailureUnwinds: a journal that cannot be created
// fails Start, and the registry and tracer it had already installed
// are restored before it returns.
func TestSessionStartFailureUnwinds(t *testing.T) {
	dir := t.TempDir()
	o := parseObs(t, "-journal", filepath.Join(dir, "no-such-dir", "run.jsonl"),
		"-chrome-trace", filepath.Join(dir, "trace.json"))
	prevReg, prevTracer := telemetry.Default(), telemetry.Tracer()

	var stderr bytes.Buffer
	if s, ok := o.Start(telemetry.Manifest{Tool: "cliflags test"}, &stderr); ok || s != nil {
		t.Fatalf("Start = %v, %v; want nil, false", s, ok)
	}
	if !strings.HasPrefix(stderr.String(), "journal: ") {
		t.Fatalf("stderr %q: want the journal error", stderr.String())
	}
	if telemetry.Default() != prevReg || telemetry.Tracer() != prevTracer {
		t.Fatal("failed Start left its registry or tracer installed")
	}
}
