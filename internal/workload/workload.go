// Package workload synthesizes the branch-record streams of the paper's 12
// data center applications (Table I) plus a SPEC2017-like family used for
// the misprediction-concentration contrast (paper Fig 5).
//
// The paper evaluates on Intel PT traces of proprietary deployments; those
// traces are unavailable, so this package builds the closest synthetic
// equivalent (see DESIGN.md §1). Each application is a population of
// static branches grouped into functions. A deterministic Zipf-driven walk
// invokes functions; each invocation retires the function's branches in
// order. Every static branch has a ground-truth behaviour drawn from the
// classes the paper's characterization identifies:
//
//   - Biased: strongly taken or not-taken (always/never-taken hints).
//   - Loop: fixed trip count, exercising the loop predictor.
//   - ShortHist: a monotone AND/OR formula over the last 4-8 raw
//     outcomes — exactly the ROMBF-learnable class.
//   - LongHist: a *balanced* extended Boolean formula over the XOR-folded
//     hash of a long history window (32-1024 branches, Fig 6) — the class
//     Whisper's hashed history correlation targets.
//   - ComplexHist: parity or a popcount threshold of the folded long
//     history — deterministic in the history (so its mispredictions
//     classify as capacity) but *outside* the extended-ROMBF formula
//     space. This is the residual that keeps Whisper's reduction at the
//     paper's ~17% instead of solving everything.
//   - DataDep: a Bernoulli coin — the "conditional-on-data" class no
//     history-based predictor can learn.
//
// Per-application knobs (static branch count, class mix, popularity skew,
// noise) are calibrated so the 64KB TAGE-SC-L baseline lands in the
// paper's branch-MPKI band (0.5-7.2) with capacity-dominated
// mispredictions (Fig 2/3).
package workload

import (
	"fmt"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/formula"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/xrand"
)

// Class is a ground-truth branch behaviour class.
type Class int

// Behaviour classes; see the package comment.
const (
	Biased Class = iota
	Loop
	ShortHist
	LongHist
	ComplexHist
	DataDep

	numClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Biased:
		return "biased"
	case Loop:
		return "loop"
	case ShortHist:
		return "short-hist"
	case LongHist:
		return "long-hist"
	case ComplexHist:
		return "complex-hist"
	case DataDep:
		return "data-dep"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Mix gives the probability of each class when drawing a branch's
// behaviour. Fields should sum to 1; Normalize rescales.
type Mix struct {
	Biased, Loop, ShortHist, LongHist, ComplexHist, DataDep float64
}

// Normalize rescales the mix to sum to 1. It panics on a non-positive sum.
func (m *Mix) Normalize() {
	s := m.Biased + m.Loop + m.ShortHist + m.LongHist + m.ComplexHist + m.DataDep
	if s <= 0 {
		panic("workload: class mix sums to zero")
	}
	m.Biased /= s
	m.Loop /= s
	m.ShortHist /= s
	m.LongHist /= s
	m.ComplexHist /= s
	m.DataDep /= s
}

// Config parameterizes one synthetic application.
type Config struct {
	// Name identifies the app in result tables.
	Name string
	// Seed is the root seed; everything about the app derives from it.
	Seed uint64
	// Functions is the number of synthetic functions.
	Functions int
	// BranchesPerFn is the mean number of conditional branches per
	// function (drawn uniformly in [1, 2*BranchesPerFn-1]).
	BranchesPerFn int
	// ZipfS is the popularity skew of function invocation: small values
	// (~0.5) give the flat data-center profile of Fig 5b, large values
	// (~1.4) the concentrated SPEC profile of Fig 5a.
	ZipfS float64
	// InstrPerRecord is the mean sequential instruction run before each
	// branch record.
	InstrPerRecord int
	// Mix is the class mix.
	Mix Mix
	// Noise is the probability a branch outcome flips against its
	// ground-truth behaviour (models unprofiled data dependence).
	Noise float64
	// InputVariance is the fraction of branches whose behaviour is
	// re-drawn for each non-zero input, modelling workload/input drift
	// (paper Fig 17/18).
	InputVariance float64
	// Inputs is how many input variants exist (>= 1; input 0 is the
	// canonical training input).
	Inputs int
}

// Validate fills defaults and checks ranges.
func (c *Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("workload: config needs a name")
	}
	if c.Functions <= 0 || c.BranchesPerFn <= 0 {
		return fmt.Errorf("workload %s: functions and branches must be positive", c.Name)
	}
	if c.Inputs == 0 {
		c.Inputs = 4
	}
	if c.InstrPerRecord <= 0 {
		c.InstrPerRecord = 5
	}
	if c.ZipfS <= 0 {
		c.ZipfS = 0.5
	}
	m := c.Mix
	if m.Biased+m.Loop+m.ShortHist+m.LongHist+m.ComplexHist+m.DataDep <= 0 {
		return fmt.Errorf("workload %s: empty class mix", c.Name)
	}
	c.Mix.Normalize()
	return nil
}

// Branch is one static conditional branch with its ground-truth behaviour.
type Branch struct {
	// PC is the branch instruction address.
	PC uint64
	// Class is the behaviour class.
	Class Class
	// Instrs is the sequential instruction run preceding the branch.
	Instrs uint32
	// Noise is the per-branch outcome flip probability.
	Noise float64

	// PTaken is the taken probability (Biased, DataDep).
	PTaken float64
	// Trip is the loop trip count (Loop): taken Trip times, then one
	// not-taken exit.
	Trip int
	// Mono is the ground-truth monotone formula (ShortHist) over MonoN
	// raw history bits.
	Mono  formula.Monotone
	MonoN int
	// F is the ground-truth extended formula (LongHist) over the fold of
	// the most recent HistLen outcomes.
	F       formula.Formula
	HistLen int
	// Parity selects the ComplexHist flavour: fold parity when true,
	// popcount >= 5 otherwise.
	Parity bool
}

// outcome evaluates the ground-truth direction given the global history
// and the branch's dynamic loop state.
func (b *Branch) outcome(h *bpu.History, loopState *int, rng *xrand.Rand) bool {
	var v bool
	switch b.Class {
	case Biased, DataDep:
		v = rng.Bool(b.PTaken)
		// Bernoulli classes embed their own randomness; noise is part of
		// PTaken already.
		return v
	case Loop:
		if *loopState < b.Trip {
			*loopState++
			v = true
		} else {
			*loopState = 0
			v = false
		}
	case ShortHist:
		v = b.Mono.Eval(h.Raw(b.MonoN))
	case LongHist:
		v = b.F.Eval(h.Fold(b.HistLen))
	case ComplexHist:
		fold := h.Fold(b.HistLen)
		ones := popcount8(fold)
		if b.Parity {
			v = ones&1 == 1
		} else {
			v = ones >= 5
		}
	default:
		panic("workload: invalid class")
	}
	if b.Noise > 0 && rng.Bool(b.Noise) {
		v = !v
	}
	return v
}

// function is a straight-line group of branches invoked as a unit.
type function struct {
	base     uint64
	branches []int // indices into App.branches
	callPC   uint64
	retPC    uint64
}

// App is an instantiated synthetic application.
type App struct {
	cfg      Config
	branches []Branch
	fns      []function
	byPC     map[uint64]int
	// perInput[i] overrides branch behaviours for input i (nil for the
	// canonical input 0).
	perInput []map[int]Branch
	// perm[i] is the popularity permutation of functions for input i.
	perm [][]int
}

// New instantiates an application from cfg deterministically.
func New(cfg Config) (*App, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := cfg.Seed
	structRng := xrand.New(xrand.SplitMix64(&st))
	behavRng := xrand.New(xrand.SplitMix64(&st))
	inputRng := xrand.New(xrand.SplitMix64(&st))

	a := &App{cfg: cfg, byPC: make(map[uint64]int)}
	base := uint64(0x400000)
	const blockBytes = 24 // ~6 instructions per basic block
	for f := 0; f < cfg.Functions; f++ {
		nBr := 1 + structRng.Intn(2*cfg.BranchesPerFn-1)
		fn := function{
			base:   base,
			callPC: base - 8,
		}
		for i := 0; i < nBr; i++ {
			pc := base + uint64(i)*blockBytes + 16
			br := a.drawBranch(pc, behavRng)
			a.byPC[pc] = len(a.branches)
			fn.branches = append(fn.branches, len(a.branches))
			a.branches = append(a.branches, br)
		}
		fn.retPC = base + uint64(nBr)*blockBytes + 4
		a.fns = append(a.fns, fn)
		// Spread functions across a multi-megabyte footprint: 4KB apart
		// plus jitter so set-mapping is not degenerate.
		base += 4096 + uint64(structRng.Intn(8))*64
	}

	// Input variants: permuted popularity + re-drawn behaviours.
	a.perInput = make([]map[int]Branch, cfg.Inputs)
	a.perm = make([][]int, cfg.Inputs)
	ident := make([]int, cfg.Functions)
	for i := range ident {
		ident[i] = i
	}
	a.perm[0] = ident
	for in := 1; in < cfg.Inputs; in++ {
		// Swap a fraction of popularity ranks.
		p := append([]int(nil), ident...)
		swaps := int(float64(cfg.Functions) * cfg.InputVariance)
		for s := 0; s < swaps; s++ {
			i, j := inputRng.Intn(cfg.Functions), inputRng.Intn(cfg.Functions)
			p[i], p[j] = p[j], p[i]
		}
		a.perm[in] = p
		over := make(map[int]Branch)
		for bi := range a.branches {
			if inputRng.Bool(cfg.InputVariance) {
				old := a.branches[bi]
				switch old.Class {
				case Biased:
					// Input drift never inverts a guard-style branch:
					// an error check that is ~always not-taken stays
					// that way on every input; only its flip rate
					// jitters.
					nb := old
					flip := cfg.Noise * (0.2 + 1.6*inputRng.Float64())
					if old.PTaken > 0.5 {
						nb.PTaken = 1 - flip
					} else {
						nb.PTaken = flip
					}
					over[bi] = nb
				case DataDep:
					// Data-dependent branches keep their lean across
					// inputs too (the data distribution shifts, the
					// comparison does not invert); only the rate moves.
					nb := old
					p := 0.2 + 0.2*inputRng.Float64()
					if old.PTaken > 0.5 {
						p = 1 - p
					}
					nb.PTaken = p
					over[bi] = nb
				default:
					over[bi] = a.drawBranch(old.PC, inputRng)
				}
			}
		}
		a.perInput[in] = over
	}
	return a, nil
}

// MustNew is New panicking on error, for static app tables.
func MustNew(cfg Config) *App {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// drawBranch rolls a branch behaviour from the app's class mix.
func (a *App) drawBranch(pc uint64, rng *xrand.Rand) Branch {
	cfg := &a.cfg
	br := Branch{
		PC:     pc,
		Instrs: uint32(1 + rng.Intn(2*cfg.InstrPerRecord-1)),
		Noise:  cfg.Noise * (0.5 + rng.Float64()),
	}
	u := rng.Float64()
	m := cfg.Mix
	switch {
	case u < m.Biased:
		br.Class = Biased
		// Strongly biased: the flip rate scales with the app's noise
		// knob. Data-center code is dominated by error checks and
		// guards that almost never flip.
		p := 1 - cfg.Noise*(0.2+1.6*rng.Float64())
		if rng.Bool(0.4) {
			p = 1 - p
		}
		br.PTaken = p
		br.Noise = 0 // bias noise is already part of PTaken
	case u < m.Biased+m.Loop:
		br.Class = Loop
		br.Trip = 4 + rng.Intn(12)
		// Loop branches are deterministic: their role is exercising the
		// loop predictor, and noisy exits would make the generator's
		// inner expansion unbounded.
		br.Noise = 0
	case u < m.Biased+m.Loop+m.ShortHist:
		br.Class = ShortHist
		n := 4
		if rng.Bool(0.5) {
			n = 8
		}
		enc := uint16(rng.Intn(formula.MonotoneFormulas(n)))
		mono, err := formula.NewMonotone(n, enc)
		if err != nil {
			panic(err)
		}
		br.Mono = mono
		br.MonoN = n
	case u < m.Biased+m.Loop+m.ShortHist+m.LongHist:
		br.Class = LongHist
		br.F = drawBalancedFormula(rng)
		br.HistLen = drawHistLen(rng)
	case u < m.Biased+m.Loop+m.ShortHist+m.LongHist+m.ComplexHist:
		br.Class = ComplexHist
		br.HistLen = drawHistLen(rng)
		br.Parity = rng.Bool(0.5)
	default:
		br.Class = DataDep
		// Outcome leans one way but flips often: ~25-35% misprediction
		// floor for any history-based predictor.
		p := 0.2 + 0.2*rng.Float64()
		if rng.Bool(0.5) {
			p = 1 - p
		}
		br.PTaken = p
		br.Noise = 0
	}
	return br
}

// drawBalancedFormula samples a ground-truth extended formula whose truth
// table is balanced (64-192 of 256 inputs taken): an unbalanced formula
// would just be a biased branch, trivially predicted by any baseline. The
// operation mix follows the paper's Fig 7 emphasis (And-heavy, with
// meaningful Impl and Cnimpl populations): the tree is built with a
// majority of the target operation so DominantOp still classifies it,
// then rejection-sampled for balance.
func drawBalancedFormula(rng *xrand.Rand) formula.Formula {
	target := pickOp(rng)
	for tries := 0; tries < 64; tries++ {
		ops := make([]formula.Op, formula.Units)
		for i := range ops {
			if i < 5 { // strict majority carries the Fig 7 label
				ops[i] = target
			} else {
				ops[i] = formula.Op(rng.Intn(int(formula.NumOps)))
			}
		}
		for i := len(ops) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			ops[i], ops[j] = ops[j], ops[i]
		}
		f := formula.New(ops, rng.Bool(0.5))
		if pc := f.Table().PopCount(); pc >= 64 && pc <= 192 {
			return f
		}
		if tries == 31 {
			target = pickOp(rng) // this op may not balance; re-draw
		}
	}
	// Fallback: fully random balanced tree.
	for {
		ops := make([]formula.Op, formula.Units)
		for i := range ops {
			ops[i] = formula.Op(rng.Intn(int(formula.NumOps)))
		}
		f := formula.New(ops, rng.Bool(0.5))
		if pc := f.Table().PopCount(); pc >= 64 && pc <= 192 {
			return f
		}
	}
}

// pickOp draws the target operation with the Fig 7 weighting.
func pickOp(rng *xrand.Rand) formula.Op {
	u := rng.Float64()
	switch {
	case u < 0.45:
		return formula.And
	case u < 0.55:
		return formula.Or
	case u < 0.78:
		return formula.Impl
	default:
		return formula.Cnimpl
	}
}

// drawHistLen samples a history length from the geometric series with the
// Fig 6 emphasis on 32-1024.
func drawHistLen(rng *xrand.Rand) int {
	ls := bpu.DefaultGeomLengths
	// Weight toward the middle/upper lengths: indices 4..15 get most of
	// the mass (lengths ~27 and up).
	idx := 0
	u := rng.Float64()
	switch {
	case u < 0.10:
		idx = rng.Intn(4) // 8..20
	case u < 0.65:
		idx = 4 + rng.Intn(6) // ~27..123
	default:
		idx = 10 + rng.Intn(6) // ~167..1024
	}
	return ls[idx]
}

// Name returns the application name.
func (a *App) Name() string { return a.cfg.Name }

// Inputs returns the number of input variants.
func (a *App) Inputs() int { return a.cfg.Inputs }

// StaticBranches returns the number of static conditional branches.
func (a *App) StaticBranches() int { return len(a.branches) }

// Branch returns the ground-truth behaviour of the branch at pc for the
// canonical input, and whether pc is a known branch.
func (a *App) Branch(pc uint64) (Branch, bool) {
	i, ok := a.byPC[pc]
	if !ok {
		return Branch{}, false
	}
	return a.branches[i], true
}

// branchFor returns the effective behaviour of branch index bi under the
// given input.
func (a *App) branchFor(input, bi int) *Branch {
	if input > 0 && a.perInput[input] != nil {
		if b, ok := a.perInput[input][bi]; ok {
			// Return a pointer into the override map copy; loop state is
			// kept externally so value semantics are fine here.
			ov := b
			return &ov
		}
	}
	return &a.branches[bi]
}

// Stream returns a deterministic record stream for the given input
// producing at most records records. Two streams with identical arguments
// produce identical records.
func (a *App) Stream(input, records int) trace.Stream {
	if input < 0 || input >= a.cfg.Inputs {
		panic(fmt.Sprintf("workload %s: input %d out of range", a.cfg.Name, input))
	}
	st := a.cfg.Seed ^ (0x9E3779B97F4A7C15 * uint64(input+1))
	rng := xrand.New(xrand.SplitMix64(&st))
	g := &generator{
		app:       a,
		input:     input,
		remaining: records,
		rng:       rng,
		zipf:      xrand.NewZipf(xrand.New(xrand.SplitMix64(&st)), len(a.fns), a.cfg.ZipfS),
		loopState: make([]int, len(a.branches)),
	}
	return g
}

// generator is the deterministic walk producing the record stream.
type generator struct {
	app       *App
	input     int
	remaining int
	rng       *xrand.Rand
	zipf      *xrand.Zipf
	hist      bpu.History
	loopState []int
	queue     []trace.Record
	qpos      int
	lastPC    uint64
}

// Next implements trace.Stream.
func (g *generator) Next(rec *trace.Record) bool {
	if g.remaining <= 0 {
		return false
	}
	for g.qpos >= len(g.queue) {
		g.fillQueue()
	}
	*rec = g.queue[g.qpos]
	g.qpos++
	g.remaining--
	return true
}

// FillBlock implements trace.BlockFiller: it drains whole invocation
// queues into the block, so pipeline.Run receives records
// without a Next call (and its bounds checks and copy) per record.
func (g *generator) FillBlock(b *trace.Block) int {
	b.Reset()
	for g.remaining > 0 && b.N < b.Cap() {
		for g.qpos >= len(g.queue) {
			g.fillQueue()
		}
		n := len(g.queue) - g.qpos
		if n > g.remaining {
			n = g.remaining
		}
		if room := b.Cap() - b.N; n > room {
			n = room
		}
		for _, rec := range g.queue[g.qpos : g.qpos+n] {
			i := b.N
			b.PC[i] = rec.PC
			b.Target[i] = rec.Target
			b.Kind[i] = rec.Kind
			b.Taken[i] = rec.Taken
			b.Instrs[i] = rec.Instrs
			b.N = i + 1
		}
		g.qpos += n
		g.remaining -= n
	}
	return b.N
}

// fillQueue synthesizes one function invocation worth of records.
func (g *generator) fillQueue() {
	g.queue = g.queue[:0]
	g.qpos = 0
	a := g.app
	rank := g.zipf.Next()
	f := &a.fns[a.perm[g.input][rank]]

	// Call into the function from wherever we were.
	g.queue = append(g.queue, trace.Record{
		PC:     g.lastPC + 8,
		Target: f.base,
		Kind:   trace.Call,
		Taken:  true,
		Instrs: 2,
	})
	for _, bi := range f.branches {
		br := a.branchFor(g.input, bi)
		if br.Class == Loop {
			// A loop branch retires trip+1 times per invocation.
			for {
				taken := br.outcome(&g.hist, &g.loopState[bi], g.rng)
				g.emitCond(br, taken)
				if !taken {
					break
				}
			}
			continue
		}
		taken := br.outcome(&g.hist, &g.loopState[bi], g.rng)
		g.emitCond(br, taken)
	}
	g.queue = append(g.queue, trace.Record{
		PC:     f.retPC,
		Target: g.lastPC + 12,
		Kind:   trace.Return,
		Taken:  true,
		Instrs: 2,
	})
	g.lastPC = f.retPC
}

func (g *generator) emitCond(br *Branch, taken bool) {
	tgt := br.PC + 24
	if taken {
		tgt = br.PC + 96
	}
	g.queue = append(g.queue, trace.Record{
		PC:     br.PC,
		Target: tgt,
		Kind:   trace.CondBranch,
		Taken:  taken,
		Instrs: br.Instrs,
	})
	g.hist.Push(taken)
	g.lastPC = br.PC
}

// popcount8 counts set bits in an 8-bit value.
func popcount8(x uint8) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
