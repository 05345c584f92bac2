package core

// Run-time hint usage (paper §IV): executing a brhint places its
// parameters in the hint buffer; predicting a branch queries the buffer
// and the baseline predictor simultaneously, uses the hint on a buffer
// hit, and keeps the baseline predictor from allocating entries for
// hint-covered branches.

import (
	"fmt"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/hint"
	"github.com/whisper-sim/whisper/internal/trace"
)

// Runtime is the Whisper hybrid predictor: the updated binary's hints,
// the 32-entry hint buffer, and the underlying dynamic predictor.
// It implements bpu.Predictor plus the pipeline.RecordHook used to model
// hint execution at host retirement.
type Runtime struct {
	under   bpu.Predictor
	binary  *Binary
	buffer  *hint.Buffer
	hist    bpu.History
	lengths []int
	name    string

	// HintPredictions counts predictions served from the hint buffer;
	// HintExecutions counts brhint retirements (dynamic overhead).
	HintPredictions uint64
	HintExecutions  uint64
}

// NewRuntime builds the runtime over an underlying predictor. bufferSize
// 0 selects the Table III default (32 entries).
func NewRuntime(under bpu.Predictor, bin *Binary, lengths []int, bufferSize int) *Runtime {
	return NewRuntimeOpts(under, bin, lengths, bufferSize, true)
}

// NewRuntimeOpts is NewRuntime with the allocation-suppression policy
// explicit: suppress=false keeps hinted branches inside the baseline
// predictor's tables (an ablation of the paper's §IV policy).
func NewRuntimeOpts(under bpu.Predictor, bin *Binary, lengths []int, bufferSize int, suppress bool) *Runtime {
	r := &Runtime{
		under:   under,
		binary:  bin,
		buffer:  hint.NewBuffer(bufferSize),
		lengths: lengths,
		name:    fmt.Sprintf("whisper+%s", under.Name()),
	}
	// Hint-covered branches must not consume baseline predictor
	// capacity (paper §IV "run-time hint usage").
	if t, ok := under.(interface{ SuppressAllocation(uint64) }); ok && suppress {
		for _, pc := range bin.HintedPCs() {
			t.SuppressAllocation(pc)
		}
	}
	return r
}

// Buffer exposes the hint buffer for reporting.
func (r *Runtime) Buffer() *hint.Buffer { return r.buffer }

// Name implements bpu.Predictor.
func (r *Runtime) Name() string { return r.name }

// OnRecord models the retirement of any control-flow instruction: hints
// hosted at this PC execute and fill the hint buffer.
func (r *Runtime) OnRecord(rec *trace.Record) {
	if hs, ok := r.binary.ByHost[rec.PC]; ok {
		for i := range hs {
			ph := &hs[i]
			r.HintExecutions++
			r.buffer.Insert(ph.Hint.PC, ph.Encoded)
		}
	}
}

// Predict implements bpu.Predictor: hint-buffer hit uses the encoded
// formula over the folded history; miss falls back to the underlying
// predictor.
func (r *Runtime) Predict(pc uint64) bool {
	if h, ok := r.buffer.Lookup(pc); ok {
		r.HintPredictions++
		switch h.Bias {
		case hint.BiasTaken:
			return true
		case hint.BiasNotTaken:
			return false
		default:
			l := r.lengths[h.HistIdx]
			return h.Formula.Eval(r.hist.Fold(l))
		}
	}
	return r.under.Predict(pc)
}

// Update implements bpu.Predictor. The underlying predictor always
// trains (its history must track the global stream); suppression set up
// at construction keeps hinted branches out of its tables.
func (r *Runtime) Update(pc uint64, taken bool) {
	r.under.Update(pc, taken)
	r.hist.Push(taken)
}
