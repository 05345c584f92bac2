// Package trace defines the retired-branch record stream that every other
// component of the simulator consumes. Trace files (the stand-in for a
// decoded Intel PT trace) are read and written by package traceio.
//
// A Record corresponds to one retired control-flow instruction. The
// non-branch instructions executed since the previous record are carried on
// the record (Instrs), which is what lets the harness compute branch-MPKI
// and IPC without materializing every instruction.
package trace

import "fmt"

// Kind classifies a control-flow instruction.
type Kind uint8

const (
	// CondBranch is a conditional direct branch; the only kind that the
	// direction predictors are scored on (CBP-5 methodology).
	CondBranch Kind = iota
	// UncondDirect is an unconditional direct jump.
	UncondDirect
	// Call is a direct call (pushes a return address).
	Call
	// Return pops the return-address stack.
	Return
	// IndirectJump is an indirect jump or indirect call.
	IndirectJump

	numKinds
)

// String returns the short human-readable name of the kind.
func (k Kind) String() string {
	switch k {
	case CondBranch:
		return "cond"
	case UncondDirect:
		return "jmp"
	case Call:
		return "call"
	case Return:
		return "ret"
	case IndirectJump:
		return "ijmp"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined Kind.
func (k Kind) Valid() bool { return k < numKinds }

// Record is one retired control-flow instruction.
type Record struct {
	// PC is the address of the branch instruction.
	PC uint64
	// Target is the address control transfers to when the branch is
	// taken (or the next sequential PC for a not-taken conditional).
	Target uint64
	// Kind classifies the instruction.
	Kind Kind
	// Taken is the resolved direction. Always true for unconditional
	// kinds.
	Taken bool
	// Instrs is the number of non-branch instructions retired since the
	// previous record (the sequential run leading up to this branch).
	Instrs uint32
}

// Stream produces records one at a time. Next fills rec and reports
// whether a record was produced; it returns false at end of stream.
type Stream interface {
	Next(rec *Record) bool
}

// SliceStream adapts a []Record to the Stream interface.
type SliceStream struct {
	recs []Record
	pos  int
}

// NewSliceStream returns a Stream over recs.
func NewSliceStream(recs []Record) *SliceStream { return &SliceStream{recs: recs} }

// Next implements Stream.
func (s *SliceStream) Next(rec *Record) bool {
	if s.pos >= len(s.recs) {
		return false
	}
	*rec = s.recs[s.pos]
	s.pos++
	return true
}

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }

// Collect drains up to max records from s (all records if max <= 0).
func Collect(s Stream, max int) []Record {
	var out []Record
	var r Record
	for s.Next(&r) {
		out = append(out, r)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// CountCondPCs returns the number of distinct conditional-branch PCs in
// recs: the static conditional branches the window exercises.
func CountCondPCs(recs []Record) int {
	pcs := make(map[uint64]struct{})
	for i := range recs {
		if recs[i].Kind == CondBranch {
			pcs[recs[i].PC] = struct{}{}
		}
	}
	return len(pcs)
}
