package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// writeValidJournal produces a well-formed journal with n unit events.
func writeValidJournal(n int) string {
	var b strings.Builder
	j := NewJournal(&b)
	j.WriteManifest(Manifest{Tool: "test", Go: "go0", GOMAXPROCS: 1, Workers: 2,
		Config: map[string]any{"scale": "tiny"}})
	r := NewRegistry()
	for i := 0; i < n; i++ {
		r.Counter("whisper_runner_instructions_total").Add(100)
		j.WriteUnit("phase/app", time.Millisecond, 100, 40)
	}
	j.WriteSnapshot(r)
	return b.String()
}

func TestJournalRoundTrip(t *testing.T) {
	out := writeValidJournal(3)
	units, err := ValidateJournal(strings.NewReader(out))
	if err != nil {
		t.Fatalf("valid journal rejected: %v\n%s", err, out)
	}
	if units != 3 {
		t.Fatalf("units = %d, want 3", units)
	}
	// Every line must be standalone JSON.
	for i, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("line %d not JSON: %v", i+1, err)
		}
	}
	// The snapshot carries the aggregated counter.
	var last journalLine
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if got := (*last.Metrics)["whisper_runner_instructions_total"]; got != float64(300) {
		t.Fatalf("snapshot instrs = %v, want 300", got)
	}
}

func TestJournalNil(t *testing.T) {
	var j *Journal
	j.WriteManifest(Manifest{})
	j.WriteUnit("x", 0, 0, 0)
	j.WriteSnapshot(nil)
	if j.Err() != nil {
		t.Fatal("nil journal reported an error")
	}
}

func TestJournalConcurrentUnits(t *testing.T) {
	var b strings.Builder
	var mu sync.Mutex
	// strings.Builder is not goroutine safe; wrap it.
	j := NewJournal(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	}))
	j.WriteManifest(Manifest{Tool: "test"})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j.WriteUnit("u", time.Microsecond, 1, 1)
			}
		}()
	}
	wg.Wait()
	j.WriteSnapshot(NewRegistry())
	units, err := ValidateJournal(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if units != 400 {
		t.Fatalf("units = %d, want 400", units)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestValidateJournalRejects(t *testing.T) {
	cases := map[string]string{
		"empty":               "",
		"no manifest":         `{"type":"unit","label":"x"}` + "\n",
		"bad json":            "{not json}\n",
		"unknown type":        `{"type":"manifest","schema":1,"manifest":{"tool":"t"}}` + "\n" + `{"type":"weird"}` + "\n",
		"future schema":       `{"type":"manifest","schema":99,"manifest":{"tool":"t"}}` + "\n" + `{"type":"snapshot","metrics":{}}` + "\n",
		"missing snapshot":    `{"type":"manifest","schema":1,"manifest":{"tool":"t"}}` + "\n",
		"unit without label":  `{"type":"manifest","schema":1,"manifest":{"tool":"t"}}` + "\n" + `{"type":"unit"}` + "\n" + `{"type":"snapshot","metrics":{}}` + "\n",
		"tail after snapshot": `{"type":"manifest","schema":1,"manifest":{"tool":"t"}}` + "\n" + `{"type":"snapshot","metrics":{}}` + "\n" + `{"type":"unit","label":"x"}` + "\n",
		"second manifest":     `{"type":"manifest","schema":1,"manifest":{"tool":"t"}}` + "\n" + `{"type":"manifest","schema":1,"manifest":{"tool":"t"}}` + "\n" + `{"type":"snapshot","metrics":{}}` + "\n",
		"snapshot no metrics": `{"type":"manifest","schema":1,"manifest":{"tool":"t"}}` + "\n" + `{"type":"snapshot"}` + "\n",
	}
	for name, in := range cases {
		if _, err := ValidateJournal(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestJournalSpanAndAttribRoundTrip(t *testing.T) {
	var b strings.Builder
	j := NewJournal(&b)
	j.WriteManifest(Manifest{Tool: "test"})
	j.WriteUnit("fig1/mysql", time.Millisecond, 100, 40)
	j.WriteSpan("simulate", 1500, 2500)
	j.WriteAttrib("mysql", map[string]any{"schema": 1, "workload": "mysql"})
	j.WriteAttrib("empty", nil) // nil body serializes as {}
	j.WriteSnapshot(NewRegistry())
	out := b.String()

	units, err := ValidateJournal(strings.NewReader(out))
	if err != nil {
		t.Fatalf("schema-2 journal rejected: %v\n%s", err, out)
	}
	if units != 1 {
		t.Fatalf("units = %d, want 1", units)
	}
	for _, want := range []string{
		`"type":"span"`, `"start_ns":1500`, `"wall_ns":2500`,
		`"type":"attrib"`, `"workload":"mysql"`, `"attrib":{}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("journal missing %q:\n%s", want, out)
		}
	}
}

func TestJournalWriteTraceSpans(t *testing.T) {
	tb := NewTraceBuffer()
	base := tb.start
	tb.Add("simulate", CatPhase, TIDMain, base.Add(time.Millisecond), 2*time.Millisecond, nil)
	tb.Add("train", CatPhase, TIDMain, base.Add(4*time.Millisecond), time.Millisecond, nil)

	var b strings.Builder
	j := NewJournal(&b)
	j.WriteManifest(Manifest{Tool: "test"})
	j.WriteTraceSpans(tb)
	j.WriteSnapshot(NewRegistry())
	out := b.String()

	if _, err := ValidateJournal(strings.NewReader(out)); err != nil {
		t.Fatalf("trace-span journal rejected: %v\n%s", err, out)
	}
	if got := strings.Count(out, `"type":"span"`); got != 2 {
		t.Fatalf("%d span lines, want 2:\n%s", got, out)
	}
	// Nil journal / nil buffer are no-ops.
	var nilJ *Journal
	nilJ.WriteTraceSpans(tb)
	j2 := NewJournal(&strings.Builder{})
	j2.WriteTraceSpans(nil)
}

func TestValidateJournalSchema2Rejects(t *testing.T) {
	manifest := `{"type":"manifest","schema":2,"manifest":{"tool":"t"}}` + "\n"
	snapshot := `{"type":"snapshot","metrics":{}}` + "\n"
	cases := map[string]string{
		"span first":            `{"type":"span","label":"simulate","wall_ns":5}` + "\n" + snapshot,
		"span without label":    manifest + `{"type":"span","wall_ns":5}` + "\n" + snapshot,
		"span negative start":   manifest + `{"type":"span","label":"x","start_ns":-1}` + "\n" + snapshot,
		"span negative wall":    manifest + `{"type":"span","label":"x","wall_ns":-1}` + "\n" + snapshot,
		"span after snapshot":   manifest + snapshot + `{"type":"span","label":"x"}` + "\n",
		"attrib first":          `{"type":"attrib","label":"mysql","attrib":{}}` + "\n" + snapshot,
		"attrib without label":  manifest + `{"type":"attrib","attrib":{}}` + "\n" + snapshot,
		"attrib without body":   manifest + `{"type":"attrib","label":"mysql"}` + "\n" + snapshot,
		"attrib after snapshot": manifest + snapshot + `{"type":"attrib","label":"x","attrib":{}}` + "\n",
		"unknown sibling type":  manifest + `{"type":"spans","label":"x"}` + "\n" + snapshot,
	}
	for name, in := range cases {
		if _, err := ValidateJournal(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestValidateJournalAcceptsSchema2Types(t *testing.T) {
	in := `{"type":"manifest","schema":2,"manifest":{"tool":"t"}}` + "\n" +
		`{"type":"span","label":"simulate","start_ns":0,"wall_ns":0}` + "\n" +
		`{"type":"attrib","label":"mysql","attrib":{"schema":1}}` + "\n" +
		`{"type":"snapshot","metrics":{}}` + "\n"
	if _, err := ValidateJournal(strings.NewReader(in)); err != nil {
		t.Fatalf("minimal schema-2 journal rejected: %v", err)
	}
}
