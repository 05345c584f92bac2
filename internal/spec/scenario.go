package spec

// Compilation: resolving a validated Spec against the workload catalog
// into a Scenario, and synthesizing the deterministic record streams.
//
// Determinism contract (documented in docs/specs.md): every random
// decision the interleaver makes flows from a seed derived as
//
//	phaseSeed = SplitMix64(rootSeed XOR FNV-1a(label) XOR GOLDEN*(index+1))
//
// where label names the decision stream ("arrival") and index is the
// phase position. Per-app record content comes from the catalog apps'
// own fixed seeds via workload.App.Stream, which is already
// deterministic per (app, input). Nothing reads global state, so the
// same spec replays byte-identically on every host, at any -j, and
// PhaseStream(i) is independent of whether earlier phases were consumed.

import (
	"fmt"
	"hash/fnv"

	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
	"github.com/whisper-sim/whisper/internal/xrand"
)

// golden is the splitmix64 increment, reused for index separation.
const golden = 0x9E3779B97F4A7C15

// deriveSeed maps (root, label, index) to an independent stream seed.
func deriveSeed(root uint64, label string, index int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	st := root ^ h.Sum64() ^ golden*uint64(index+1)
	return xrand.SplitMix64(&st)
}

// appOffsetShift rebases each mix app into its own 4GB PC region so
// branches from different catalog apps can never alias: profiles,
// trained hints and runtime predictions all see the rebased PCs.
const appOffsetShift = 32

// ScenarioApp is one resolved application of the scenario with its PC
// rebasing offset.
type ScenarioApp struct {
	// App is the instantiated catalog application.
	App *workload.App
	// Offset is added to every PC and Target the app emits into the
	// scenario stream. The first referenced app keeps offset 0.
	Offset uint64
}

// ScenarioPhase is one compiled segment of the timeline.
type ScenarioPhase struct {
	// Name, Records, Start, Input mirror the validated Phase.
	Name    string
	Records int
	Start   int
	Input   int
	// Arrival and Drift are the resolved schedules.
	Arrival Arrival
	Drift   Drift
	// AppIdx indexes Scenario.Apps for each mix entry; Cum is the
	// cumulative normalized weight used for draws.
	AppIdx []int
	Cum    []float64
	// Seed drives this phase's arrival decisions.
	Seed uint64
}

// Scenario is a compiled, replayable workload specification.
type Scenario struct {
	// Spec is the validated source spec.
	Spec *Spec
	// Apps lists every referenced application once, in first-reference
	// order.
	Apps []ScenarioApp
	// Phases is the compiled timeline.
	Phases []ScenarioPhase
}

// Compile resolves the spec against the workload catalog. It fails on
// unknown app names and on drift schedules that exceed an app's input
// variants.
func Compile(s *Spec) (*Scenario, error) {
	sc := &Scenario{Spec: s}
	appIdx := map[string]int{}
	resolve := func(name string) (int, error) {
		if i, ok := appIdx[name]; ok {
			return i, nil
		}
		app := lookupApp(name)
		if app == nil {
			return 0, fmt.Errorf("spec %s: unknown app %q (want a Table I name like \"mysql\" or a \"spec-*\" family member)", s.Name, name)
		}
		i := len(sc.Apps)
		appIdx[name] = i
		sc.Apps = append(sc.Apps, ScenarioApp{App: app, Offset: uint64(i) << appOffsetShift})
		return i, nil
	}
	for pi := range s.Phases {
		ph := &s.Phases[pi]
		cp := ScenarioPhase{
			Name:    ph.Name,
			Records: ph.Records,
			Start:   ph.Start,
			Input:   ph.Input,
			Arrival: *ph.Arrival,
			Drift:   ph.Drift,
			Seed:    deriveSeed(s.Seed, "arrival", pi),
		}
		var total float64
		for _, e := range ph.Mix {
			ai, err := resolve(e.App)
			if err != nil {
				return nil, err
			}
			cp.AppIdx = append(cp.AppIdx, ai)
			total += e.Weight
		}
		run := 0.0
		for _, e := range ph.Mix {
			run += e.Weight / total
			cp.Cum = append(cp.Cum, run)
		}
		cp.Cum[len(cp.Cum)-1] = 1 // guard rounding at the top end
		// The phase's input span must exist on every app in its mix.
		maxIn := cp.Input
		for _, in := range []int{cp.Drift.From, cp.Drift.To} {
			if in > maxIn {
				maxIn = in
			}
		}
		for k, ai := range cp.AppIdx {
			if n := sc.Apps[ai].App.Inputs(); maxIn >= n {
				return nil, fmt.Errorf("spec %s: phases[%d] (%s): input %d out of range for app %q (has inputs 0..%d)",
					s.Name, pi, ph.Name, maxIn, ph.Mix[k].App, n-1)
			}
		}
		sc.Phases = append(sc.Phases, cp)
	}
	return sc, nil
}

// lookupApp resolves a catalog name: the 12 Table I applications, the
// extra workload families, or the SPEC2017-like family ("spec-gcc", ...).
func lookupApp(name string) *workload.App {
	return workload.AppByName(name)
}

// TotalRecords sums the phase budgets.
func (sc *Scenario) TotalRecords() int { return sc.Spec.TotalRecords() }

// Hash is the spec's content hash (see Spec.Hash).
func (sc *Scenario) Hash() string { return sc.Spec.Hash() }

// Name is the spec's name.
func (sc *Scenario) Name() string { return sc.Spec.Name }

// WorkloadApps returns the resolved *workload.App list, for drivers
// that report per-app context.
func (sc *Scenario) WorkloadApps() []*workload.App {
	apps := make([]*workload.App, len(sc.Apps))
	for i := range sc.Apps {
		apps[i] = sc.Apps[i].App
	}
	return apps
}

// PhaseStream returns phase i's record stream from its beginning. The
// stream is self-contained: it does not depend on any other phase
// having been consumed, which is what lets experiment drivers simulate
// phases as independent parallel units.
func (sc *Scenario) PhaseStream(i int) trace.Stream {
	if i < 0 || i >= len(sc.Phases) {
		panic(fmt.Sprintf("spec: phase %d out of range", i))
	}
	ph := &sc.Phases[i]
	return &phaseStream{
		sc:   sc,
		ph:   ph,
		rng:  xrand.New(ph.Seed),
		gens: map[genKey]trace.Stream{},
	}
}

// Stream returns the whole scenario timeline: phases concatenated in
// order.
func (sc *Scenario) Stream() trace.Stream {
	return &concatStream{sc: sc}
}

// driftInput is the pure drift schedule: deterministic in (pos, total).
func driftInput(d *Drift, base, pos, total int) int {
	from, to := d.From, d.To
	switch d.Kind {
	case DriftRamp:
		// Linear interpolation rounding toward from; the final record
		// lands exactly on to.
		span := to - from
		if total <= 1 {
			return to
		}
		return from + span*pos/(total-1)
	case DriftFlip:
		if float64(pos) < d.At*float64(total) {
			return from
		}
		return to
	case DriftDiurnal:
		// Triangle wave from→to→from per period.
		c := pos % d.Period
		half := d.Period / 2
		span := to - from
		if c < half {
			return from + span*c/half
		}
		return to - span*(c-half)/(d.Period-half)
	default:
		return base
	}
}

// genKey identifies one per-(app, input) generator inside a phase.
type genKey struct{ app, input int }

// phaseStream interleaves per-app generator streams according to the
// phase's arrival process and drift schedule.
type phaseStream struct {
	sc  *Scenario
	ph  *ScenarioPhase
	rng *xrand.Rand
	// gens holds the lazily created catalog streams; each is capped at
	// the phase budget so it can never run dry before the phase does.
	gens      map[genKey]trace.Stream
	emitted   int
	burstLeft int
	curMix    int // index into ph.AppIdx
	curInput  int
	started   bool
}

// Next implements trace.Stream.
func (p *phaseStream) Next(rec *trace.Record) bool {
	if p.emitted >= p.ph.Records {
		return false
	}
	if p.burstLeft == 0 {
		p.schedule()
	}
	ai := p.ph.AppIdx[p.curMix]
	key := genKey{app: ai, input: p.curInput}
	g, ok := p.gens[key]
	if !ok {
		g = p.sc.Apps[ai].App.Stream(p.curInput, p.ph.Records)
		p.gens[key] = g
	}
	if !g.Next(rec) {
		return false // unreachable: generators outlast the phase budget
	}
	off := p.sc.Apps[ai].Offset
	rec.PC += off
	rec.Target += off
	p.emitted++
	p.burstLeft--
	return true
}

// schedule makes the next arrival decision: which app, which input,
// how many records.
func (p *phaseStream) schedule() {
	ph := p.ph
	p.curInput = driftInput(&ph.Drift, ph.Input, p.emitted, ph.Records)
	switch {
	case len(ph.AppIdx) == 1:
		p.curMix = 0
	case ph.Arrival.Process == ArrivalBursty && p.started && p.rng.Bool(ph.Arrival.Stickiness):
		// Sticky: dwell on the current app.
	default:
		u := p.rng.Float64()
		p.curMix = len(ph.Cum) - 1
		for k, c := range ph.Cum {
			if u < c {
				p.curMix = k
				break
			}
		}
	}
	p.started = true
	switch ph.Arrival.Process {
	case ArrivalSteady:
		p.burstLeft = ph.Arrival.Burst
	default: // poisson, bursty: geometric dwell with mean Burst
		p.burstLeft = p.rng.Geometric(1 / float64(ph.Arrival.Burst))
	}
	if left := ph.Records - p.emitted; p.burstLeft > left {
		p.burstLeft = left
	}
}

// concatStream plays the scenario's phases back to back.
type concatStream struct {
	sc  *Scenario
	cur trace.Stream
	idx int
}

// Next implements trace.Stream.
func (c *concatStream) Next(rec *trace.Record) bool {
	for {
		if c.cur == nil {
			if c.idx >= len(c.sc.Phases) {
				return false
			}
			c.cur = c.sc.PhaseStream(c.idx)
			c.idx++
		}
		if c.cur.Next(rec) {
			return true
		}
		c.cur = nil
	}
}
