package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// JournalSchema is the run-journal line schema version, recorded in the
// manifest so readers can reject files written by a newer tool.
// Schema 2 adds the "span" (phase trace spans) and "attrib" (per-branch
// attribution summaries) line types; schema-1 files remain valid.
const JournalSchema = 2

// Manifest is the journal's first line: everything needed to reproduce
// or attribute the run.
type Manifest struct {
	// Tool names the producing command ("experiments", "whisper").
	Tool string `json:"tool"`
	// Go is runtime.Version() of the producing process.
	Go string `json:"go"`
	// GOMAXPROCS is the scheduler width of the producing process.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Workers is the requested -j value (0 = one per CPU).
	Workers int `json:"workers"`
	// Seed is the run's base RNG seed, when the tool has one (workload
	// streams derive their seeds from (app, input), recorded in Config).
	Seed int64 `json:"seed,omitempty"`
	// Config carries the tool-specific configuration (scale, records,
	// apps, selected experiments, cache mode, ...).
	Config map[string]any `json:"config,omitempty"`
}

// journalLine is the on-disk shape of every journal record. Type is one
// of "manifest", "unit", "span", "attrib", "snapshot".
type journalLine struct {
	Type     string    `json:"type"`
	Schema   int       `json:"schema,omitempty"`
	Manifest *Manifest `json:"manifest,omitempty"`
	Label    string    `json:"label,omitempty"`
	WallNS   int64     `json:"wall_ns,omitempty"`
	Instrs   uint64    `json:"instrs,omitempty"`
	Records  uint64    `json:"records,omitempty"`
	// StartNS is a span's start offset from the tracer's start, in
	// nanoseconds (span lines only).
	StartNS int64 `json:"start_ns,omitempty"`
	// Metrics is a pointer so an empty-but-present snapshot still
	// serializes as {} (omitempty would drop an empty map).
	Metrics *map[string]any `json:"metrics,omitempty"`
	// Attrib carries an attribution summary document (attrib lines
	// only); a pointer for the same empty-but-present reason.
	Attrib *map[string]any `json:"attrib,omitempty"`
}

// Journal writes the structured JSONL run log: one manifest line, one
// line per completed unit, and a final aggregate snapshot. It is safe
// for concurrent writers (units finish on pool goroutines); the first
// write error sticks and suppresses the rest, surfaced by Err.
type Journal struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJournal wraps w (typically an *os.File; the caller closes it).
func NewJournal(w io.Writer) *Journal { return &Journal{w: w} }

// write marshals one line. A nil *Journal is a no-op sink.
func (j *Journal) write(line *journalLine) {
	if j == nil {
		return
	}
	data, err := json.Marshal(line)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if err == nil {
		data = append(data, '\n')
		_, err = j.w.Write(data)
	}
	j.err = err
}

// WriteManifest records the run manifest; call it once, first.
func (j *Journal) WriteManifest(m Manifest) {
	j.write(&journalLine{Type: "manifest", Schema: JournalSchema, Manifest: &m})
}

// WriteUnit records one completed unit of work. records may be zero for
// units that predate record accounting; readers treat it as optional.
func (j *Journal) WriteUnit(label string, wall time.Duration, instrs, records uint64) {
	j.write(&journalLine{Type: "unit", Label: label, WallNS: int64(wall), Instrs: instrs, Records: records})
}

// WriteSpan records one timed phase span: label names the phase,
// startNS is the offset from the run's trace start, durNS its length.
func (j *Journal) WriteSpan(label string, startNS, durNS int64) {
	j.write(&journalLine{Type: "span", Label: label, StartNS: startNS, WallNS: durNS})
}

// WriteTraceSpans journals every event of a trace buffer as a span
// line. Events are phase spans, bounded by the number of pipeline
// stages executed.
func (j *Journal) WriteTraceSpans(tb *TraceBuffer) {
	if j == nil || tb == nil {
		return
	}
	for _, ev := range tb.Events() {
		j.WriteSpan(ev.Name, int64(ev.TS*1e3), int64(ev.Dur*1e3))
	}
}

// WriteAttrib records one workload's attribution summary document
// (typically an attrib.Report flattened to a map via JSON).
func (j *Journal) WriteAttrib(label string, body map[string]any) {
	if body == nil {
		body = map[string]any{}
	}
	j.write(&journalLine{Type: "attrib", Label: label, Attrib: &body})
}

// WriteSnapshot records the final aggregate state of r; call it once,
// last, after all units have finished.
func (j *Journal) WriteSnapshot(r *Registry) {
	snap := r.Snapshot()
	if snap == nil {
		snap = map[string]any{}
	}
	j.write(&journalLine{Type: "snapshot", Metrics: &snap})
}

// Err reports the first write or encoding failure, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ValidateJournal checks a journal stream against the schema: exactly
// one manifest (first, schema <= current), zero or more unit, span, and
// attrib events (non-empty label; non-negative times; attrib body
// present), and exactly one snapshot (last, with metrics). It returns
// the number of unit events.
func ValidateJournal(r io.Reader) (units int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	n := 0
	sawSnapshot := false
	for sc.Scan() {
		n++
		if len(sc.Bytes()) == 0 {
			return units, fmt.Errorf("journal line %d: empty", n)
		}
		var line journalLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return units, fmt.Errorf("journal line %d: %v", n, err)
		}
		if sawSnapshot {
			return units, fmt.Errorf("journal line %d: content after snapshot", n)
		}
		switch line.Type {
		case "manifest":
			if n != 1 {
				return units, fmt.Errorf("journal line %d: manifest must be the first line", n)
			}
			if line.Schema <= 0 || line.Schema > JournalSchema {
				return units, fmt.Errorf("journal line %d: schema %d, reader supports <= %d",
					n, line.Schema, JournalSchema)
			}
			if line.Manifest == nil {
				return units, fmt.Errorf("journal line %d: manifest without body", n)
			}
		case "unit":
			if n == 1 {
				return units, fmt.Errorf("journal line 1: expected manifest, got unit")
			}
			if line.Label == "" {
				return units, fmt.Errorf("journal line %d: unit without label", n)
			}
			if line.WallNS < 0 {
				return units, fmt.Errorf("journal line %d: negative wall_ns", n)
			}
			units++
		case "span":
			if n == 1 {
				return units, fmt.Errorf("journal line 1: expected manifest, got span")
			}
			if line.Label == "" {
				return units, fmt.Errorf("journal line %d: span without label", n)
			}
			if line.StartNS < 0 {
				return units, fmt.Errorf("journal line %d: negative start_ns", n)
			}
			if line.WallNS < 0 {
				return units, fmt.Errorf("journal line %d: negative wall_ns", n)
			}
		case "attrib":
			if n == 1 {
				return units, fmt.Errorf("journal line 1: expected manifest, got attrib")
			}
			if line.Label == "" {
				return units, fmt.Errorf("journal line %d: attrib without label", n)
			}
			if line.Attrib == nil {
				return units, fmt.Errorf("journal line %d: attrib without body", n)
			}
		case "snapshot":
			if n == 1 {
				return units, fmt.Errorf("journal line 1: expected manifest, got snapshot")
			}
			if line.Metrics == nil {
				return units, fmt.Errorf("journal line %d: snapshot without metrics", n)
			}
			sawSnapshot = true
		default:
			return units, fmt.Errorf("journal line %d: unknown type %q", n, line.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return units, err
	}
	if n == 0 {
		return units, fmt.Errorf("journal: empty file")
	}
	if !sawSnapshot {
		return units, fmt.Errorf("journal: missing final snapshot line")
	}
	return units, nil
}
