package core

// Link-time hint injection (paper §IV "hint injection"): each trained
// hint is hosted in a suitable predecessor basic block chosen with the
// conditional-probability correlation algorithm of internal/cfg, and the
// 12-bit PC pointer constraint drops hints whose branch is out of reach.

import (
	"sort"

	"github.com/whisper-sim/whisper/internal/cfg"
	"github.com/whisper-sim/whisper/internal/hint"
	"github.com/whisper-sim/whisper/internal/telemetry"
)

// PlacedHint is a hint bound to its host location in the updated binary.
type PlacedHint struct {
	Hint      Hint
	Placement cfg.Placement
	Encoded   hint.BrHint
}

// Binary is the "updated binary": the hint program keyed by host PC, plus
// the overhead accounting of paper Fig 19.
type Binary struct {
	// ByHost maps a host control-flow PC to the hints executing after it
	// retires.
	ByHost map[uint64][]PlacedHint
	// Placed counts injected hints; Dropped counts trained hints that
	// found no host within reach.
	Placed, Dropped int
	// StaticInstrs is the static instruction count of the original
	// binary estimate; StaticOverhead = Placed / StaticInstrs.
	StaticInstrs uint64
	// DynamicHintExecs estimates hint executions per profile window
	// (sum of host execution counts).
	DynamicHintExecs uint64
	// WindowInstrs is the profiled window's retired instructions, for
	// the dynamic overhead ratio.
	WindowInstrs uint64
}

// StaticOverhead returns injected hints per original static instruction.
func (b *Binary) StaticOverhead() float64 {
	if b.StaticInstrs == 0 {
		return 0
	}
	return float64(b.Placed) / float64(b.StaticInstrs)
}

// DynamicOverhead returns extra dynamic instructions per retired
// instruction of the profiled window.
func (b *Binary) DynamicOverhead() float64 {
	if b.WindowInstrs == 0 {
		return 0
	}
	return float64(b.DynamicHintExecs) / float64(b.WindowInstrs)
}

// InjectOptions tune placement.
type InjectOptions struct {
	Placement cfg.PlacementOptions
	// StaticInstrs is the original binary's static instruction count
	// estimate used for the static overhead ratio (Fig 19). When zero,
	// the number of distinct control-flow PCs in the graph times the
	// mean block size observed from the trace is used.
	StaticInstrs uint64
	// WindowInstrs is the profiled window's total retired instructions.
	WindowInstrs uint64
}

// Inject places each trained hint into the dynamic CFG, producing the
// updated binary. Hints whose best host violates the 12-bit PC pointer
// range are dropped (the paper's ~80% coverage effect falls out of the
// placement constraints). Placement is an "inject" span.
func Inject(res *TrainResult, g *cfg.Graph, opt InjectOptions) *Binary {
	sp := telemetry.StartSpan("inject")
	defer sp.End()
	if opt.Placement.MaxOffset == 0 || opt.Placement.MaxOffset > hint.MaxOffset {
		opt.Placement.MaxOffset = hint.MaxOffset
	}
	bin := &Binary{
		ByHost:       make(map[uint64][]PlacedHint),
		StaticInstrs: opt.StaticInstrs,
		WindowInstrs: opt.WindowInstrs,
	}
	pcs := make([]uint64, 0, len(res.Hints))
	for pc := range res.Hints {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })

	for _, pc := range pcs {
		h := res.Hints[pc]
		place, ok := g.Place(pc, opt.Placement)
		if !ok {
			bin.Dropped++
			continue
		}
		off := int64(pc) - int64(place.HostPC)
		if off < -hint.MaxOffset || off >= hint.MaxOffset {
			bin.Dropped++
			continue
		}
		enc := hint.BrHint{
			HistIdx: uint8(h.LengthIdx),
			Formula: h.Formula,
			Bias:    h.Bias,
			Offset:  int16(off),
		}
		if err := enc.Validate(); err != nil {
			bin.Dropped++
			continue
		}
		bin.ByHost[place.HostPC] = append(bin.ByHost[place.HostPC], PlacedHint{
			Hint:      h,
			Placement: place,
			Encoded:   enc,
		})
		bin.Placed++
		bin.DynamicHintExecs += place.HostExecs
	}
	return bin
}

// HintedPCs returns the branch PCs covered by the placed hints.
func (b *Binary) HintedPCs() []uint64 {
	var out []uint64
	for _, hs := range b.ByHost {
		for _, ph := range hs {
			out = append(out, ph.Hint.PC)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
