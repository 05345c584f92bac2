package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/whisper-sim/whisper/internal/telemetry"
)

// Chrome trace lanes (tids) of the benchmark's own spans; child process
// events land on childLane + their own tid.
const (
	laneBench = 10
	lanePost  = 11
	laneGet   = 12
	childLane = 100
)

// span is one timed call the benchmark made into a layer or the program.
type span struct {
	Name   string
	Start  time.Time
	Dur    time.Duration
	Parent int // id of the enclosing span, 0 for a root
	Req    int // request id on serve, 0 otherwise
	Lane   int
}

// recorder keeps the traced run's spans in memory until the run ends. It
// owns the telemetry.TraceBuffer the program's own in-process spans are
// installed into, so both end up in one Chrome trace. A nil recorder
// (untraced run) records nothing.
type recorder struct {
	tb *telemetry.TraceBuffer

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{tb: telemetry.NewTraceBuffer()} }

// begin starts s now and returns its id (1-based; 0 on a nil recorder).
func (r *recorder) begin(s span) int {
	if r == nil {
		return 0
	}
	s.Start = time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.Dur = time.Since(s.Start)
	return s.Dur
}

// timed runs f inside a span named name under parent and returns the
// wall time f took, measured whether or not r records spans.
func (r *recorder) timed(name string, parent int, f func()) time.Duration {
	id := r.begin(span{Name: name, Parent: parent, Lane: laneBench})
	t := time.Now()
	f()
	d := time.Since(t)
	r.end(id)
	return d
}

// selfTimes returns, per span name, the summed self time of root's
// descendants: each span's duration minus the part of it that its
// children cover.
func (r *recorder) selfTimes(root int) map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]int{}
	for i := range r.spans {
		children[r.spans[i].Parent] = append(children[r.spans[i].Parent], i+1)
	}
	out := map[string]time.Duration{}
	var walk func(id int)
	walk = func(id int) {
		for _, c := range children[id] {
			s := r.spans[c-1]
			out[s.Name] += s.Dur - covered(s, r.spans, children[c])
			walk(c)
		}
	}
	walk(root)
	return out
}

// covered returns how much of parent's interval the union of the kids'
// intervals covers.
func covered(parent span, all []span, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	pEnd := parent.Start.Add(parent.Dur)
	for _, k := range kids {
		s := all[k-1]
		a, b := s.Start, s.Start.Add(s.Dur)
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(pEnd) {
			b = pEnd
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	return total + curB.Sub(curA)
}

// addChildTrace merges a child process's Chrome trace file, whose
// timestamps count from the child's start, onto the child lanes.
func (r *recorder) addChildTrace(path string, childStart time.Time, label string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []telemetry.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	for _, ev := range doc.TraceEvents {
		start := childStart.Add(time.Duration(ev.TS * float64(time.Microsecond)))
		r.tb.Add(ev.Name, label+":"+ev.Cat, childLane+ev.TID, start,
			time.Duration(ev.Dur*float64(time.Microsecond)), ev.Args)
	}
	return nil
}

// writeChrome writes the benchmark's spans, plus the program events
// already in the buffer, as one Chrome trace-event file.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	for i, s := range r.spans {
		args := map[string]any{"id": i + 1, "parent": s.Parent}
		if s.Req != 0 {
			args["req"] = s.Req
		}
		r.tb.Add(s.Name, "bench", s.Lane, s.Start, s.Dur, args)
	}
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.tb.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
