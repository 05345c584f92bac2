package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// swapTracer installs tb for the test and restores the previous tracer.
func swapTracer(t *testing.T, tb *TraceBuffer) *TraceBuffer {
	t.Helper()
	prev := Tracer()
	InstallTracer(tb)
	t.Cleanup(func() { InstallTracer(prev) })
	return tb
}

func TestNilTraceBuffer(t *testing.T) {
	var tb *TraceBuffer
	tb.Add("x", CatPhase, 0, time.Now(), time.Millisecond, nil)
	if tb.Len() != 0 || tb.Events() != nil {
		t.Fatal("nil buffer holds events")
	}
	var buf bytes.Buffer
	if err := tb.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil buffer export invalid: %s", buf.Bytes())
	}
}

// chromeDoc mirrors the trace-event JSON object format for validation.
type chromeDoc struct {
	TraceEvents     []map[string]any `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
}

// TestChromeTraceSchema locks the export to the Chrome trace-event
// format: a JSON object with a traceEvents array of complete events,
// each carrying the required name/cat/ph/ts/dur/pid/tid fields with
// ph=="X" — exactly what about://tracing and Perfetto load.
func TestChromeTraceSchema(t *testing.T) {
	tb := NewTraceBuffer()
	base := tb.start
	tb.Add("simulate", CatPhase, TIDMain, base.Add(time.Millisecond), 2*time.Millisecond, nil)
	tb.Add("train", CatPhase, TIDMain, base.Add(3*time.Millisecond), time.Millisecond,
		map[string]any{"unit": 1, "records": 4096})

	var buf bytes.Buffer
	if err := tb.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	for i, ev := range doc.TraceEvents {
		for _, field := range []string{"name", "cat", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, ev)
			}
		}
		if ev["ph"] != "X" {
			t.Fatalf("event %d ph = %v, want X", i, ev["ph"])
		}
		if ts, ok := ev["ts"].(float64); !ok || ts < 0 {
			t.Fatalf("event %d ts = %v", i, ev["ts"])
		}
	}
	if doc.TraceEvents[1]["name"] != "train" {
		t.Fatalf("events not in time order: %v", doc.TraceEvents)
	}
	args, ok := doc.TraceEvents[1]["args"].(map[string]any)
	if !ok || args["records"].(float64) != 4096 {
		t.Fatalf("event args lost: %v", doc.TraceEvents[1])
	}
}

func TestTraceEventsSortedDeterministically(t *testing.T) {
	tb := NewTraceBuffer()
	base := tb.start
	// Insert out of order and with ties.
	tb.Add("b", CatPhase, 2, base.Add(5*time.Millisecond), time.Millisecond, nil)
	tb.Add("a", CatPhase, 2, base.Add(5*time.Millisecond), time.Millisecond, nil)
	tb.Add("z", CatPhase, 1, base.Add(5*time.Millisecond), time.Millisecond, nil)
	tb.Add("first", CatPhase, 0, base, time.Millisecond, nil)

	evs := tb.Events()
	gotNames := make([]string, len(evs))
	for i, ev := range evs {
		gotNames[i] = ev.Name
	}
	want := []string{"first", "z", "a", "b"}
	for i := range want {
		if gotNames[i] != want[i] {
			t.Fatalf("order = %v, want %v", gotNames, want)
		}
	}
}

func TestTraceBufferConcurrentAdd(t *testing.T) {
	tb := NewTraceBuffer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tb.Add("simulate", CatPhase, w, time.Now(), time.Microsecond, nil)
			}
		}(w)
	}
	wg.Wait()
	if tb.Len() != 800 {
		t.Fatalf("len = %d, want 800", tb.Len())
	}
}

func TestTraceBufferLimit(t *testing.T) {
	tb := NewTraceBuffer()
	tb.events = make([]TraceEvent, traceEventLimit) // pre-fill to the cap
	tb.Add("over", CatPhase, 0, time.Now(), time.Millisecond, nil)
	if tb.Len() != traceEventLimit || tb.dropped != 1 {
		t.Fatalf("len=%d dropped=%d", tb.Len(), tb.dropped)
	}
	var buf bytes.Buffer
	if err := tb.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dropped_events") {
		t.Fatal("export does not report dropped events")
	}
}

func TestSpanFeedsTracer(t *testing.T) {
	swap(t, NewRegistry())
	tb := swapTracer(t, NewTraceBuffer())
	sp := StartSpan("train")
	time.Sleep(time.Millisecond)
	sp.End()
	evs := tb.Events()
	if len(evs) != 1 || evs[0].Name != "train" || evs[0].Cat != CatPhase {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Dur <= 0 {
		t.Fatalf("span duration %v", evs[0].Dur)
	}
}

func TestSpanTracerWithoutRegistry(t *testing.T) {
	// Tracing works even when the metrics registry is off.
	swap(t, nil)
	tb := swapTracer(t, NewTraceBuffer())
	StartSpan("profile").End()
	if tb.Len() != 1 {
		t.Fatalf("tracer got %d events, want 1", tb.Len())
	}
}

func TestHistogramQuantile(t *testing.T) {
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil quantile != 0")
	}
	h := NewHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile != 0")
	}
	// 90 observations of 1 (bucket le=1), 10 of 1000 (bucket le=1023).
	for i := 0; i < 90; i++ {
		h.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
	if got := h.Quantile(0.9); got != 1 {
		t.Fatalf("p90 = %v, want 1 (rank 90 is the last 1)", got)
	}
	if got := h.Quantile(0.99); got != 1023 {
		t.Fatalf("p99 = %v, want 1023", got)
	}
	if got := h.Quantile(1); got != 1023 {
		t.Fatalf("p100 = %v, want 1023", got)
	}
	// Out-of-range q clamps.
	if h.Quantile(-1) != 1 || h.Quantile(2) != 1023 {
		t.Fatal("q clamp broken")
	}
	// Duration histograms render quantiles in seconds.
	d := &Histogram{scale: 1e-9}
	d.Observe(1e9) // 1s → bucket upper bound (2^30-1)ns ≈ 1.07s
	if got := d.Quantile(0.5); got < 1 || got > 2.2 {
		t.Fatalf("duration p50 = %v, want ~1s", got)
	}
}
