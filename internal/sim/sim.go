// Package sim wires workloads, predictors, and the pipeline model into
// the paper's Fig 10 usage model: profile a record window in
// "production", train Whisper offline, inject hints into the binary,
// and measure the updated binary on a test window. Every record source
// — a synthetic application input, an imported trace, a spec-scenario
// phase — is a Window, and one flow serves them all: Profile, then
// core.Train, then Inject (fused as Build), then WhisperBuild.Run (or
// RunIntervals, which measures several windows in one pass) or
// Evaluate, which measures the bare baseline beside it.
//
// The one-shot flow runs its independent stages side by side, as two
// units of a runner.Pool: Build builds the dynamic CFG while it
// profiles and trains, reading the window once and handing each block
// from the CFG unit to the profiler, and Evaluate runs the baseline
// and the Whisper measurement concurrently. Each call joins both units
// before it returns or panics, and its results are those of the
// sequential flow, bit for bit.
package sim

import (
	"fmt"
	"math"

	"github.com/whisper-sim/whisper/internal/attrib"
	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/cfg"
	"github.com/whisper-sim/whisper/internal/classify"
	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/runner"
	"github.com/whisper-sim/whisper/internal/spec"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
)

// PredictorFactory builds a fresh baseline predictor for a run.
type PredictorFactory func() bpu.Predictor

// Tage64KB is the paper's default baseline factory.
func Tage64KB() bpu.Predictor { return tage.New(tage.DefaultConfig()) }

// TageSized returns a factory for a given TAGE-SC-L budget.
func TageSized(kb int) PredictorFactory {
	return func() bpu.Predictor { return tage.New(tage.Config{SizeKB: kb}) }
}

// ValidWarmup reports whether frac is a usable evaluation warm-up
// fraction: 0 <= frac < 1. A warm-up at or past the window's end would
// measure the whole window, cold start included.
func ValidWarmup(frac float64) bool { return frac >= 0 && frac < 1 }

// Speedup returns the IPC improvement of other over base as a fraction
// (0.028 = 2.8%).
func Speedup(base, other pipeline.Result) float64 {
	if base.IPC() == 0 {
		return 0
	}
	return other.IPC()/base.IPC() - 1
}

// MispReduction returns the fraction of base's mispredictions that other
// eliminates (0.168 = 16.8%).
func MispReduction(base, other pipeline.Result) float64 {
	if base.CondMisp == 0 {
		return 0
	}
	return 1 - float64(other.CondMisp)/float64(base.CondMisp)
}

// TracePrefix starts the name of every imported-trace window, and so
// the store.Meta.App of every artifact profiled from one.
const TracePrefix = "trace:"

// Window is one record window the flow runs over: an application
// input, an imported trace, or a spec-scenario phase.
type Window struct {
	// Name is the record source: the application or scenario name, or
	// TracePrefix plus the trace's name. Artifacts record it as
	// store.Meta.App.
	Name string
	// Input is the workload input the records come from (0 for an
	// imported trace).
	Input int
	// Records is the window length.
	Records int

	// id identifies the records across processes; disk-cache keys embed
	// it (see ProfileKey).
	id   string
	open func() trace.Stream
	// static estimates the original binary's static instruction count
	// for Inject's overhead accounting (nil: unknown).
	static func() uint64
	// src is the instance generating the records (see Key).
	src any
}

// WindowKey is a comparable in-process window identity (see
// Window.Key).
type WindowKey struct {
	src any
	id  string
}

// AppWindow is the window of the given length that app generates on
// input. It rejects an input the app does not have and a non-positive
// length.
func AppWindow(app *workload.App, input, records int) (Window, error) {
	if input < 0 || input >= app.Inputs() {
		return Window{}, fmt.Errorf("%s: input %d out of range (the app has inputs 0..%d)",
			app.Name(), input, app.Inputs()-1)
	}
	if records <= 0 {
		return Window{}, fmt.Errorf("%s: records must be positive, got %d", app.Name(), records)
	}
	return Window{
		Name:    app.Name(),
		Input:   input,
		Records: records,
		id:      fmt.Sprintf("app=%s|input=%d|records=%d", app.Name(), input, records),
		open:    func() trace.Stream { return app.Stream(input, records) },
		// Each static branch sits in a block of its sequential run plus
		// the branch itself; the synthetic blocks average ~6
		// instructions (24-byte blocks).
		static: func() uint64 { return uint64(app.StaticBranches()) * 6 },
		src:    app,
	}, nil
}

// TraceWindow is a decoded external trace. A trace carries one fixed
// window, so it serves as both the profiled and the evaluated window:
// the paper's profile-window upper-bound framing. fp is the records'
// content fingerprint (traceio.Fingerprint), the window's identity
// across processes; a caller that keys no disk cache on the window may
// pass "".
func TraceWindow(name, fp string, recs []trace.Record) Window {
	w := Window{
		Name:    TracePrefix + name,
		Records: len(recs),
		id:      "trace=" + fp,
		open:    func() trace.Stream { return trace.NewSliceStream(recs) },
		// As for applications: each distinct conditional branch stands
		// for a ~6-instruction block.
		static: func() uint64 { return uint64(trace.CountCondPCs(recs)) * 6 },
	}
	if len(recs) > 0 {
		w.src = &recs[0]
	}
	return w
}

// PhaseWindow is one phase of a compiled spec scenario. A phase
// interleaves several applications, so it carries no static-instruction
// estimate.
func PhaseWindow(sc *spec.Scenario, phase int) Window {
	ph := &sc.Phases[phase]
	return Window{
		Name:    sc.Name(),
		Input:   ph.Input,
		Records: ph.Records,
		id:      fmt.Sprintf("spec=%s|phase=%d|records=%d", sc.Hash(), phase, ph.Records),
		open:    func() trace.Stream { return sc.PhaseStream(phase) },
		src:     sc,
	}
}

// Open starts a fresh pass over the window's records.
func (w Window) Open() trace.Stream { return w.open() }

// Key identifies w within one process: the instance generating its
// records (the *workload.App, the *spec.Scenario, or the trace buffer)
// plus the identity its disk-cache keys embed. In-process memos key on
// it, so a fresh instance of a same-named app or scenario never hits
// another instance's entries.
func (w Window) Key() WindowKey { return WindowKey{src: w.src, id: w.id} }

// ProfileKey is the disk-cache key of w's profile under a sizeKB
// TAGE-SC-L with profiler options popt. The format is stable across
// releases of the same store.FormatVersion, so existing caches stay
// warm.
func ProfileKey(w Window, sizeKB int, popt profiler.Options) string {
	return fmt.Sprintf("profile|v%d|%s|tage=%dKB|lengths=%v,minexecs=%d,minmisp=%d,minrate=%g,maxhard=%d,warmexecs=%d",
		store.FormatVersion, w.id, sizeKB,
		popt.Lengths, popt.MinExecs, popt.MinMisp, popt.MinRate, popt.MaxHard, popt.WarmExecs)
}

// TrainKey is the disk-cache key of the hints trained with params from
// the profile cached under profileKey (see ProfileKey). That key
// describes the profile's whole computation, and training is a pure
// function of the profile and params, so the pair describes the
// training too.
func TrainKey(profileKey string, params core.Params) string {
	return fmt.Sprintf("train|v%d|%s|params=%+v", store.FormatVersion, profileKey, params)
}

// ContentTrainKey is the disk-cache key of the hints trained with
// params from a profile no ProfileKey describes, such as one merged in
// place (Fig 18). It keys on the profile's content fingerprint, so such
// a profile caches separately at every merge level; computing it
// re-encodes the whole profile.
func ContentTrainKey(prof *profiler.Profile, params core.Params) (string, error) {
	fp, err := store.Fingerprint(prof)
	if err != nil {
		return "", err
	}
	return TrainKey("profile="+fp, params), nil
}

// WhisperBuild is everything Whisper produces for one window: the
// production profile, the trained hints, and the updated binary. The
// dynamic CFG is not kept: nothing reads it once the hints are placed.
type WhisperBuild struct {
	Profile *profiler.Profile
	Train   *core.TrainResult
	Binary  *core.Binary
}

// Profile runs the in-production profiling stage (paper Fig 10, step 1)
// over w under the deployed baseline predictor.
func Profile(w Window, baseline PredictorFactory, popt profiler.Options) (*profiler.Profile, error) {
	prof, err := profiler.Collect(w.open, baseline(), popt)
	if err != nil {
		return nil, fmt.Errorf("sim: profiling %s: %w", w.Name, err)
	}
	return prof, nil
}

// Inject runs the link-time stage: place the trained hints in g, w's
// dynamic CFG (cfg.Build over w's records). windowInstrs is the profiled
// window's instruction count, for overhead accounting; `whisper apply`
// takes it from the hint artifact, having no profile.
func Inject(w Window, tr *core.TrainResult, g *cfg.Graph, windowInstrs uint64) *WhisperBuild {
	opt := core.InjectOptions{
		Placement:    cfg.DefaultPlacementOptions(),
		WindowInstrs: windowInstrs,
	}
	if w.static != nil {
		opt.StaticInstrs = w.static()
	}
	return &WhisperBuild{Train: tr, Binary: core.Inject(tr, g, opt)}
}

// Build runs the whole offline flow over w: Profile, core.Train, then
// Inject. The window is synthesized once. Unit 0 reads it to build the
// dynamic CFG and hands a copy of each block to unit 1 (see handoff),
// which profiles those blocks and trains; Build joins both before it
// returns, on the error path too. Each stage's output can also be
// persisted in a store artifact and the flow resumed in another process
// with bit-identical results.
func Build(w Window, baseline PredictorFactory, params core.Params) (*WhisperBuild, error) {
	var (
		g    *cfg.Graph
		prof *profiler.Profile
		tr   *core.TrainResult
	)
	h := newHandoff()
	// The CFG is unit 0, which always starts, so the hand-off always
	// closes: the profiling unit cannot wait on it forever.
	err := (&runner.Pool{Workers: 2}).Run(2, func(i int, _ *runner.Unit) error {
		if i == 0 {
			defer close(h.full)
			g = cfg.Build(&teeStream{h: h, src: w.Open()})
			return nil
		}
		defer close(h.done)
		// profiler.Collect opens its window once, so the hand-off can
		// stand in for a fresh read.
		pw := w
		pw.open = func() trace.Stream { return &handoffStream{h: h} }
		var err error
		if prof, err = Profile(pw, baseline, profiler.DefaultOptions()); err != nil {
			return err
		}
		if tr, err = core.Train(prof, params); err != nil {
			return fmt.Errorf("sim: training %s: %w", w.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b := Inject(w, tr, g, prof.Instrs)
	b.Profile = prof
	return b, nil
}

// handoffBlocks bounds the copies in flight between Build's units. With
// one block the two units run in lock step (kafka's 400k-record Build
// took 61 ms, against 50 ms with two or more); four measured as fast as
// sixteen and hold about 360 KB.
const handoffBlocks = 4

// handoff carries copies of the blocks one reader of a window fills
// (Build's CFG unit, through a teeStream) to one consumer (its
// profiling unit, through a handoffStream). handoffBlocks blocks
// circulate between full and free, so the reader blocks only while all
// of them wait to be read. The reader closes full when it returns or
// panics, which the consumer reads as the end of the window; the
// consumer closes done when it returns or panics, and the reader then
// reads on alone.
type handoff struct {
	// full and free can each hold every block, so a send on either
	// never blocks.
	full, free chan *trace.Block
	// done is only closed, never sent on.
	done chan struct{}
}

func newHandoff() *handoff {
	h := &handoff{
		full: make(chan *trace.Block, handoffBlocks),
		free: make(chan *trace.Block, handoffBlocks),
		done: make(chan struct{}),
	}
	for range handoffBlocks {
		h.free <- trace.NewBlock(0)
	}
	return h
}

// teeStream is the reader's stream: src, each block of which it copies
// to the consumer until the consumer is done. Its Next serves a reader
// that takes records one at a time through a block of its own, so the
// consumer still gets whole blocks.
type teeStream struct {
	h       *handoff
	src     trace.Stream
	stopped bool

	blk *trace.Block // Next's block, and the next record in it
	off int
}

// FillBlock implements trace.BlockFiller.
func (t *teeStream) FillBlock(b *trace.Block) int {
	n := trace.Fill(t.src, b)
	for off := 0; off < n && !t.stopped; {
		select {
		case c := <-t.h.free:
			c.Reset()
			off += copyRecords(c, b, off)
			t.h.full <- c
		case <-t.h.done:
			t.stopped = true
		}
	}
	return n
}

// Next implements trace.Stream.
func (t *teeStream) Next(rec *trace.Record) bool {
	if t.blk == nil {
		t.blk = trace.NewBlock(0)
	}
	if t.off == t.blk.N {
		if t.FillBlock(t.blk) == 0 {
			return false
		}
		t.off = 0
	}
	t.blk.Record(t.off, rec)
	t.off++
	return true
}

// handoffStream is the consumer's stream: the blocks the reader hands
// on, in order, until the reader returns.
type handoffStream struct {
	h   *handoff
	cur *trace.Block // the block being read, and the next record in it
	off int
}

// load makes cur hold an unread record and reports whether one is left.
func (s *handoffStream) load() bool {
	if s.cur != nil && s.off < s.cur.N {
		return true
	}
	if s.cur != nil {
		s.h.free <- s.cur
	}
	var ok bool
	s.cur, ok = <-s.h.full
	s.off = 0
	return ok
}

// FillBlock implements trace.BlockFiller.
func (s *handoffStream) FillBlock(b *trace.Block) int {
	b.Reset()
	for b.N < b.Cap() && s.load() {
		s.off += copyRecords(b, s.cur, s.off)
	}
	return b.N
}

// Next implements trace.Stream.
func (s *handoffStream) Next(rec *trace.Record) bool {
	if !s.load() {
		return false
	}
	s.cur.Record(s.off, rec)
	s.off++
	return true
}

// copyRecords appends src's records from off on to dst, as many as
// fit, and returns how many it copied.
func copyRecords(dst, src *trace.Block, off int) int {
	n := min(dst.Cap()-dst.N, src.N-off)
	copy(dst.PC[dst.N:], src.PC[off:off+n])
	copy(dst.Target[dst.N:], src.Target[off:off+n])
	copy(dst.Kind[dst.N:], src.Kind[off:off+n])
	copy(dst.Taken[dst.N:], src.Taken[off:off+n])
	copy(dst.Instrs[dst.N:], src.Instrs[off:off+n])
	dst.N += n
	return n
}

// Run measures the updated binary over w on top of under, a fresh
// baseline predictor: the one-interval case of RunIntervals, over the
// whole window after opt.WarmupRecords.
func (b *WhisperBuild) Run(w Window, under bpu.Predictor, opt pipeline.Options) (pipeline.Result, *core.Runtime) {
	res, rt := b.RunIntervals(w, under, opt, []pipeline.Interval{{Warmup: opt.WarmupRecords, End: math.MaxUint64}})
	return res[0], rt
}

// RunIntervals measures the updated binary over w in one pass, on top
// of under, a fresh baseline predictor, and returns one Result per
// interval (see pipeline.RunIntervals). The options' Hook is overridden
// with the Whisper runtime, which sees every record up to the largest
// End.
func (b *WhisperBuild) RunIntervals(w Window, under bpu.Predictor, opt pipeline.Options, ivs []pipeline.Interval) ([]pipeline.Result, *core.Runtime) {
	rt := core.NewRuntime(under, b.Binary, b.Train.Lengths, 0)
	opt.Hook = rt
	return pipeline.RunIntervals(w.Open(), rt, opt, ivs), rt
}

// Evaluate measures the updated binary against the bare baseline on
// test (paper Fig 10, step 3): the baseline alone with baseOpt, and b
// on a fresh baseline with opt, exactly as Run measures it. The two
// runs share nothing, so they run side by side as two units of a
// runner.Pool. Both predictors are built first, the bare baseline's
// before b's, on the caller's goroutine, so baseline is never entered
// concurrently; it must return an independent predictor on each call.
// Evaluate returns once both runs have finished, and a panic in either
// run is raised on the caller's goroutine after that (the baseline's
// when both panic).
func Evaluate(b *WhisperBuild, test Window, baseline PredictorFactory, baseOpt, opt pipeline.Options) (base, res pipeline.Result, rt *core.Runtime) {
	bare, under := baseline(), baseline()
	// Neither unit returns an error.
	_ = (&runner.Pool{Workers: 2}).Run(2, func(i int, _ *runner.Unit) error {
		if i == 0 {
			base = pipeline.Run(test.Open(), bare, baseOpt)
		} else {
			res, rt = b.Run(test, under, opt)
		}
		return nil
	})
	return base, res, rt
}

// Attribute runs the attributed evaluations of b over test: the 64KB
// TAGE-SC-L baseline and the updated binary on top of it, each feeding
// its own attrib.Collector. With classes it also runs one
// classification pass that labels each branch's dominant misprediction
// class; it reads only test, so it runs as a second runner.Pool unit
// beside the evaluations, and Attribute joins both. The caller sets the
// returned inputs' Workload, Fingerprint, TopN and TopHints before
// attrib.Build.
func (b *WhisperBuild) Attribute(test Window, popt pipeline.Options, classes bool) attrib.Inputs {
	baseC, whisperC := attrib.NewCollector(0), attrib.NewCollector(0)
	baseOpt := popt
	baseOpt.Attrib, popt.Attrib = baseC, whisperC
	var (
		base   pipeline.Result
		labels map[uint64]string
	)
	units := 1
	if classes {
		units = 2
	}
	// Neither unit returns an error.
	_ = (&runner.Pool{Workers: 2}).Run(units, func(i int, _ *runner.Unit) error {
		if i == 0 {
			// The report reads the collectors, not the Whisper Result, so
			// both runs are summarized from the identical source.
			base, _, _ = Evaluate(b, test, Tage64KB, baseOpt, popt)
			return nil
		}
		cl := classify.DefaultClassifier()
		cl.TrackBranches = attrib.DefaultCapacity
		counts := cl.Run(test.Open(), Tage64KB())
		labels = counts.DominantLabels()
		return nil
	})

	in := attrib.Inputs{
		Records:       base.Records,
		Instrs:        base.Instrs,
		WarmupRecords: base.WarmupRecords,
		BaselineName:  "tage-scl-64kb",
		WhisperName:   "whisper+tage-scl-64kb",
		Base:          baseC,
		Whisper:       whisperC,
		HintedPCs:     b.Binary.HintedPCs(),
		Trained:       len(b.Train.Hints),
		Placed:        b.Binary.Placed,
		Dropped:       b.Binary.Dropped,
	}
	in.Classes = labels
	return in
}
