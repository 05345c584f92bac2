// Package trace defines the retired-branch record stream that every other
// component of the simulator consumes, plus a compact binary codec that
// plays the role of an Intel PT-style trace file.
//
// A Record corresponds to one retired control-flow instruction. The
// non-branch instructions executed since the previous record are carried on
// the record (Instrs), which is what lets the harness compute branch-MPKI
// and IPC without materializing every instruction.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

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

// CountInstructions returns the total number of retired instructions
// represented by recs: every record is itself one instruction plus its
// preceding sequential run.
func CountInstructions(recs []Record) uint64 {
	var total uint64
	for i := range recs {
		total += uint64(recs[i].Instrs) + 1
	}
	return total
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

// Limit wraps s, producing at most n records.
type Limit struct {
	s Stream
	n int
}

// NewLimit returns a stream producing at most n records from s.
func NewLimit(s Stream, n int) *Limit { return &Limit{s: s, n: n} }

// Next implements Stream.
func (l *Limit) Next(rec *Record) bool {
	if l.n <= 0 {
		return false
	}
	l.n--
	return l.s.Next(rec)
}

// --- Binary codec -----------------------------------------------------
//
// The on-disk format is a stand-in for a decoded Intel PT trace:
//
//	magic "WBT1" | then per record:
//	  varint  pc delta (zigzag from previous pc)
//	  varint  target delta (zigzag from pc)
//	  byte    kind<<1 | taken
//	  varint  instrs
//
// Deltas keep typical records to a few bytes, like real PT packets.

var magic = [4]byte{'W', 'B', 'T', '1'}

// ErrBadMagic is returned by NewReader when the input does not begin with
// the trace file magic.
var ErrBadMagic = errors.New("trace: bad magic")

// Writer encodes records to an io.Writer.
type Writer struct {
	w      *bufio.Writer
	prevPC uint64
	wrote  bool
	buf    [binary.MaxVarintLen64]byte
}

// NewWriter creates a Writer and emits the file header.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func (w *Writer) putUvarint(v uint64) error {
	n := binary.PutUvarint(w.buf[:], v)
	_, err := w.w.Write(w.buf[:n])
	return err
}

// Write encodes one record.
func (w *Writer) Write(rec *Record) error {
	if !rec.Kind.Valid() {
		return fmt.Errorf("trace: invalid kind %d", rec.Kind)
	}
	if err := w.putUvarint(zigzag(int64(rec.PC - w.prevPC))); err != nil {
		return err
	}
	if err := w.putUvarint(zigzag(int64(rec.Target - rec.PC))); err != nil {
		return err
	}
	b := byte(rec.Kind) << 1
	if rec.Taken {
		b |= 1
	}
	if err := w.w.WriteByte(b); err != nil {
		return err
	}
	if err := w.putUvarint(uint64(rec.Instrs)); err != nil {
		return err
	}
	w.prevPC = rec.PC
	w.wrote = true
	return nil
}

// Flush flushes buffered output. Must be called before the underlying
// writer is closed.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes records from an io.Reader and implements Stream.
//
// The reader accepts exactly the writer's output: varints must be
// minimal-length, so any stream that decodes cleanly re-encodes
// byte-identically (the property the fuzz harness checks).
type Reader struct {
	r      *bufio.Reader
	prevPC uint64
	err    error
}

// errNonMinimal marks a padded varint; the writer never emits one.
var errNonMinimal = errors.New("trace: non-minimal varint")

// readUvarint reads one canonical uvarint. A clean EOF before the first
// byte propagates as io.EOF; EOF mid-varint becomes ErrUnexpectedEOF.
func (r *Reader) readUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		c, err := r.r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if i == 9 {
			if c != 1 {
				return 0, fmt.Errorf("trace: varint overflows uint64")
			}
			return x | uint64(c)<<s, nil
		}
		if c < 0x80 {
			if i > 0 && c == 0 {
				return 0, errNonMinimal
			}
			return x | uint64(c)<<s, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	if hdr != magic {
		return nil, ErrBadMagic
	}
	return &Reader{r: br}, nil
}

// Next implements Stream. After it returns false, Err distinguishes clean
// EOF from corruption.
func (r *Reader) Next(rec *Record) bool {
	if r.err != nil {
		return false
	}
	dpc, err := r.readUvarint()
	if err != nil {
		if err != io.EOF {
			r.err = fmt.Errorf("trace: truncated record: %w", err)
		}
		return false
	}
	dtgt, err := r.readUvarint()
	if err != nil {
		r.err = fmt.Errorf("trace: truncated record: %w", err)
		return false
	}
	kb, err := r.r.ReadByte()
	if err != nil {
		r.err = fmt.Errorf("trace: truncated record: %w", err)
		return false
	}
	instrs, err := r.readUvarint()
	if err != nil {
		r.err = fmt.Errorf("trace: truncated record: %w", err)
		return false
	}
	if instrs > 1<<32-1 {
		r.err = fmt.Errorf("trace: instrs field %d overflows uint32", instrs)
		return false
	}
	kind := Kind(kb >> 1)
	if !kind.Valid() {
		r.err = fmt.Errorf("trace: invalid kind byte %#x", kb)
		return false
	}
	pc := r.prevPC + uint64(unzigzag(dpc))
	rec.PC = pc
	rec.Target = pc + uint64(unzigzag(dtgt))
	rec.Kind = kind
	rec.Taken = kb&1 != 0
	rec.Instrs = uint32(instrs)
	r.prevPC = pc
	return true
}

// Err returns the first decoding error encountered, or nil on clean EOF.
func (r *Reader) Err() error { return r.err }
