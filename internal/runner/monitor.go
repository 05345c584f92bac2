package runner

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/whisper-sim/whisper/internal/telemetry"
)

// renderInterval throttles progress repaints to ~10 Hz. At high -j with
// tiny units, per-finish "\r\x1b[K" rewrites flood stderr with kilobytes
// of escape codes per second; a terminal cannot show more states than
// this anyway. The final unit always repaints so the line ends accurate.
const renderInterval = 100 * time.Millisecond

// UnitStat is one completed unit's accounting record.
type UnitStat struct {
	Label string
	// Wall is the unit's wall-clock duration.
	Wall time.Duration
	// Instrs is the number of simulated instructions the unit credited.
	Instrs uint64
	// Records is the number of simulated branch records the unit
	// credited — the unit the pipeline benchmarks report ns/record in.
	Records uint64
}

// MIPS returns the unit's own simulation throughput in million
// instructions per second.
func (s UnitStat) MIPS() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Instrs) / s.Wall.Seconds() / 1e6
}

// Monitor aggregates unit telemetry across every driver sharing it and,
// when given a writer, renders a live one-line progress/ETA display
// (meant for stderr so tables on stdout stay clean).
//
// Its aggregate accounting lives in telemetry instruments rather than
// bespoke fields; when the process registry is enabled the same cells
// are registered as the whisper_runner_* series, so the -timing summary
// and a /metrics scrape read one set of counters. Per-unit records (the
// slowest-units report) and render state stay monitor-local.
type Monitor struct {
	mu         sync.Mutex
	w          io.Writer
	start      time.Time
	total      int
	workers    int
	units      []UnitStat
	rendered   bool
	lastRender time.Time
	interval   time.Duration

	done     *telemetry.Counter
	instrs   *telemetry.Counter
	records  *telemetry.Counter
	wallNS   *telemetry.Counter
	expected *telemetry.Gauge
	inflight *telemetry.Gauge

	journal *telemetry.Journal
}

// NewMonitor creates a monitor; w may be nil to collect timing without
// rendering progress. If the process telemetry registry is enabled, the
// monitor's instruments are (re-)registered as the whisper_runner_*
// series — a fresh monitor therefore restarts those series, matching
// the one-monitor-per-run lifecycle of the CLIs.
func NewMonitor(w io.Writer) *Monitor {
	m := &Monitor{
		w:        w,
		interval: renderInterval,
		done:     telemetry.NewCounter(),
		instrs:   telemetry.NewCounter(),
		records:  telemetry.NewCounter(),
		wallNS:   telemetry.NewCounter(),
		expected: telemetry.NewGauge(),
		inflight: telemetry.NewGauge(),
	}
	if r := telemetry.Default(); r != nil {
		r.SetCounter("whisper_runner_units_completed_total", m.done)
		r.SetCounter("whisper_runner_instructions_total", m.instrs)
		r.SetCounter("whisper_runner_records_total", m.records)
		r.SetCounter("whisper_runner_unit_wall_ns_total", m.wallNS)
		r.SetGauge("whisper_runner_units_expected", m.expected)
		r.SetGauge("whisper_runner_units_inflight", m.inflight)
	}
	return m
}

// AttachJournal routes one "unit" event per completed unit into j
// (nil detaches). Attach before fanning out work.
func (m *Monitor) AttachJournal(j *telemetry.Journal) {
	m.mu.Lock()
	m.journal = j
	m.mu.Unlock()
}

// expect registers n more upcoming units (a pool calls this when a
// driver fans out) and the widest worker count seen, used for the ETA.
func (m *Monitor) expect(n, workers int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.start.IsZero() {
		m.start = time.Now()
	}
	m.total += n
	m.expected.Set(int64(m.total))
	if workers > m.workers {
		m.workers = workers
	}
}

// begin marks one unit as running (in-flight gauge for /metrics).
func (m *Monitor) begin() { m.inflight.Add(1) }

// finish records one completed unit and refreshes the progress line.
func (m *Monitor) finish(u UnitStat) {
	m.inflight.Add(-1)
	m.done.Inc()
	m.instrs.Add(u.Instrs)
	m.records.Add(u.Records)
	m.wallNS.Add(uint64(u.Wall))

	m.mu.Lock()
	journal := m.journal
	m.units = append(m.units, u)
	m.render()
	m.mu.Unlock()

	// Journal writes leave the monitor lock so slow sinks never stall
	// progress rendering; the journal has its own lock.
	if journal != nil {
		journal.WriteUnit(u.Label, u.Wall, u.Instrs, u.Records)
	}
}

// render repaints the progress line, throttled to the render interval;
// suite completion (done == total) always repaints so the line ends
// accurate. Callers hold m.mu.
func (m *Monitor) render() {
	if m.w == nil || m.total == 0 {
		return
	}
	done := int(m.done.Value())
	now := time.Now()
	if done < m.total && now.Sub(m.lastRender) < m.interval {
		return
	}
	m.lastRender = now
	elapsed := time.Since(m.start)
	instrs := m.instrs.Value()
	line := fmt.Sprintf("[%d/%d units] %.0f%%", done, m.total,
		100*float64(done)/float64(m.total))
	if elapsed > 0 && instrs > 0 {
		line += fmt.Sprintf(" | %.1f MIPS", float64(instrs)/elapsed.Seconds()/1e6)
	}
	if done > 0 && done < m.total {
		workers := m.workers
		if workers < 1 {
			workers = 1
		}
		avg := time.Duration(m.wallNS.Value()) / time.Duration(done)
		eta := avg * time.Duration(m.total-done) / time.Duration(workers)
		line += fmt.Sprintf(" | eta %s", eta.Round(time.Second))
	}
	fmt.Fprintf(m.w, "\r\x1b[K%s", line)
	m.rendered = true
}

// Done clears the progress line once the suite finishes.
func (m *Monitor) Done() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rendered {
		fmt.Fprint(m.w, "\r\x1b[K")
		m.rendered = false
	}
}

// Snapshot returns the aggregate counts collected so far.
func (m *Monitor) Snapshot() (done, total int, instrs uint64, wall time.Duration) {
	m.mu.Lock()
	total = m.total
	m.mu.Unlock()
	return int(m.done.Value()), total, m.instrs.Value(), time.Duration(m.wallNS.Value())
}

// Summary renders the timing report: aggregate throughput, effective
// concurrency, and the slowest units.
func (m *Monitor) Summary() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	elapsed := time.Since(m.start)
	done := int(m.done.Value())
	if done == 0 || elapsed <= 0 {
		return "runner: no units executed"
	}
	wall := time.Duration(m.wallNS.Value())
	instrs := m.instrs.Value()
	fmt.Fprintf(&b, "runner: %d units in %s (unit wall %s, %.1fx effective concurrency)\n",
		done, elapsed.Round(time.Millisecond), wall.Round(time.Millisecond),
		wall.Seconds()/elapsed.Seconds())
	fmt.Fprintf(&b, "runner: %.1fM instructions simulated, %.1f MIPS effective\n",
		float64(instrs)/1e6, float64(instrs)/elapsed.Seconds()/1e6)
	if records := m.records.Value(); records > 0 {
		fmt.Fprintf(&b, "runner: %.1fM branch records simulated, %.0f records/sec effective\n",
			float64(records)/1e6, float64(records)/elapsed.Seconds())
	}
	slowest := append([]UnitStat(nil), m.units...)
	sort.SliceStable(slowest, func(i, j int) bool { return slowest[i].Wall > slowest[j].Wall })
	if len(slowest) > 5 {
		slowest = slowest[:5]
	}
	b.WriteString("runner: slowest units:\n")
	for _, u := range slowest {
		label := u.Label
		if label == "" {
			label = "(unlabeled)"
		}
		fmt.Fprintf(&b, "  %-32s %10s  %8.2fM instrs  %6.1f MIPS\n",
			label, u.Wall.Round(time.Millisecond), float64(u.Instrs)/1e6, u.MIPS())
	}
	return strings.TrimRight(b.String(), "\n")
}
