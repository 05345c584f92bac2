package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceEvent is one complete ("ph":"X") event in the Chrome trace-event
// format — the JSON `about://tracing` and Perfetto load directly.
// Timestamps and durations are microseconds; TS is relative to the
// owning buffer's start so traces are stable run to run.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Well-known trace-event category and track (tid): phase spans
// (profile/train/simulate/...) land on track 0.
const (
	CatPhase = "phase"
	TIDMain  = 0
)

// traceEventLimit caps a buffer so a runaway loop cannot exhaust
// memory; at ~100 bytes/event the cap is ~25 MB. Dropped events are
// counted and reported in the exported metadata.
const traceEventLimit = 1 << 18

// TraceBuffer accumulates trace events for one run. It is safe for
// concurrent use (parallel experiment units record spans at once); a
// nil buffer is a no-op sink like every other telemetry instrument.
type TraceBuffer struct {
	start time.Time

	mu      sync.Mutex
	events  []TraceEvent
	dropped uint64
}

// NewTraceBuffer returns an empty buffer anchored at the current time.
func NewTraceBuffer() *TraceBuffer { return &TraceBuffer{start: time.Now()} }

// Add records one complete event covering [start, start+dur). Args may
// be nil. A nil buffer drops the event for free.
func (b *TraceBuffer) Add(name, cat string, tid int, start time.Time, dur time.Duration, args map[string]any) {
	if b == nil {
		return
	}
	ev := TraceEvent{
		Name: name,
		Cat:  cat,
		Ph:   "X",
		TS:   float64(start.Sub(b.start)) / float64(time.Microsecond),
		Dur:  float64(dur) / float64(time.Microsecond),
		PID:  1,
		TID:  tid,
		Args: args,
	}
	b.mu.Lock()
	if len(b.events) >= traceEventLimit {
		b.dropped++
	} else {
		b.events = append(b.events, ev)
	}
	b.mu.Unlock()
}

// Len returns the number of buffered events.
func (b *TraceBuffer) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// Events returns a sorted copy of the buffered events: by start time,
// then track, then name — a deterministic order for rendering and
// journaling.
func (b *TraceBuffer) Events() []TraceEvent {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	evs := make([]TraceEvent, len(b.events))
	copy(evs, b.events)
	b.mu.Unlock()
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		if evs[i].TID != evs[j].TID {
			return evs[i].TID < evs[j].TID
		}
		return evs[i].Name < evs[j].Name
	})
	return evs
}

// chromeTrace is the JSON object format of the trace-event spec: the
// variant that carries metadata alongside the event array.
type chromeTrace struct {
	TraceEvents     []TraceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata,omitempty"`
}

// WriteChromeTrace serializes the buffer in the Chrome trace-event JSON
// object format. The result loads in about://tracing and Perfetto as-is.
func (b *TraceBuffer) WriteChromeTrace(w io.Writer) error {
	if b == nil {
		_, err := w.Write([]byte(`{"traceEvents":[],"displayTimeUnit":"ms"}` + "\n"))
		return err
	}
	b.mu.Lock()
	dropped := b.dropped
	b.mu.Unlock()
	doc := chromeTrace{
		TraceEvents:     b.Events(),
		DisplayTimeUnit: "ms",
	}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []TraceEvent{}
	}
	if dropped > 0 {
		doc.Metadata = map[string]any{"dropped_events": dropped}
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// --- process-wide tracer ----------------------------------------------

var globalTracer atomic.Pointer[TraceBuffer]

// Tracer returns the installed process-wide trace buffer, or nil while
// tracing is disabled. Like Default(), the nil result is a usable no-op
// sink.
func Tracer() *TraceBuffer { return globalTracer.Load() }

// InstallTracer makes b the process-wide trace buffer (nil disables
// tracing) and returns b. Spans started while a tracer is installed
// record trace events alongside their duration histograms.
func InstallTracer(b *TraceBuffer) *TraceBuffer {
	globalTracer.Store(b)
	return b
}
