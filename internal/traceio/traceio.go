// Package traceio imports and exports externally-sourced branch traces,
// turning untrusted trace files into the canonical trace.Record stream
// every simulator component consumes.
//
// Two interchange formats are defined here:
//
//   - Text (FormatText): a perf-script/LBR-style line format, one
//     retired branch per line in Intel-LBR-ish field order (from-PC
//     before to-PC), with # comments and blank lines. Tolerant in what
//     it skips, strict in what it accepts: every malformed record is
//     rejected with a line-numbered error (see ParseError).
//   - Binary (FormatBinary): a compact length-prefixed block format
//     ("WSPT" magic, version byte, varint-delta-encoded PCs,
//     CRC32-guarded blocks). The encoding is canonical — fixed block
//     size, minimal varints — so any byte string that decodes cleanly
//     re-encodes byte-identically, the same bijection property
//     internal/store pins down for artifacts.
//
// Readers reject damage with typed errors (ErrBadMagic, ErrVersion,
// ErrTruncated, ErrCorrupt) mirroring internal/store, so callers can
// errors.Is-dispatch and fall back instead of consuming garbage. Both
// formats convert losslessly in either direction (Convert); the
// importer fuzz targets lock never-panic and round-trip identity.
package traceio

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/whisper-sim/whisper/internal/trace"
)

// Typed decode failures. Every reader error wraps exactly one of these
// (or an underlying I/O error), so callers can errors.Is-dispatch.
var (
	// ErrBadMagic means the input does not start with a known trace
	// file magic.
	ErrBadMagic = errors.New("traceio: bad magic")
	// ErrVersion means the trace was written by a newer format revision
	// than this reader understands.
	ErrVersion = errors.New("traceio: unsupported format version")
	// ErrTruncated means the input ended before the declared content.
	ErrTruncated = errors.New("traceio: truncated trace")
	// ErrCorrupt means a checksum or structural invariant failed.
	ErrCorrupt = errors.New("traceio: corrupt trace")
)

// Format selects a trace interchange format.
type Format int

// The supported formats. FormatAuto sniffs the input's leading bytes:
// "WSPT" selects binary, anything else text.
const (
	FormatAuto Format = iota
	FormatText
	FormatBinary
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatText:
		return "text"
	case FormatBinary:
		return "binary"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// ParseFormat resolves a CLI format name.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "", "auto":
		return FormatAuto, nil
	case "text", "txt":
		return FormatText, nil
	case "binary", "bin", "wspt":
		return FormatBinary, nil
	default:
		return FormatAuto, fmt.Errorf("traceio: unknown trace format %q (want auto, text or binary)", s)
	}
}

// Reader is a decoded trace stream. After Next returns false, Err
// distinguishes clean EOF (nil) from a decode failure.
type Reader interface {
	trace.Stream
	Err() error
}

// Writer encodes records one at a time. Close finalizes the encoding
// (trailing block, terminator) and must be called exactly once; it does
// not close the underlying io.Writer.
type Writer interface {
	Write(rec *trace.Record) error
	Close() error
}

// sniff maps leading magic bytes to a concrete format. Inputs shorter
// than four bytes (including empty) sniff as text: the text reader
// accepts them iff every present line parses.
func sniff(br *bufio.Reader) Format {
	if head, _ := br.Peek(4); string(head) == "WSPT" {
		return FormatBinary
	}
	return FormatText
}

// NewReader wraps r in a decoder for the given format. FormatAuto
// sniffs the magic. The returned Detected format is the concrete format
// chosen (never FormatAuto).
func NewReader(r io.Reader, format Format) (Reader, Format, error) {
	br := bufio.NewReader(r)
	if format == FormatAuto {
		format = sniff(br)
	}
	switch format {
	case FormatText:
		return NewTextReader(br), FormatText, nil
	case FormatBinary:
		br2, err := NewBinaryReader(br)
		return br2, FormatBinary, err
	default:
		return nil, format, fmt.Errorf("traceio: unsupported read format %s", format)
	}
}

// NewWriter wraps w in an encoder for the given format (FormatAuto is
// not a writable format).
func NewWriter(w io.Writer, format Format) (Writer, error) {
	switch format {
	case FormatText:
		return NewTextWriter(w), nil
	case FormatBinary:
		return NewBinaryWriter(w), nil
	default:
		return nil, fmt.Errorf("traceio: unsupported write format %s", format)
	}
}

// ReadAll decodes every record from r. On failure it returns the
// records decoded before the error alongside the error.
func ReadAll(r io.Reader, format Format) ([]trace.Record, Format, error) {
	dec, detected, err := NewReader(r, format)
	if err != nil {
		return nil, detected, err
	}
	var recs []trace.Record
	var rec trace.Record
	for dec.Next(&rec) {
		recs = append(recs, rec)
	}
	return recs, detected, dec.Err()
}

// LoadFile reads a whole trace file, auto-detecting the format when
// format is FormatAuto.
func LoadFile(path string, format Format) ([]trace.Record, Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, format, err
	}
	defer f.Close()
	recs, detected, err := ReadAll(f, format)
	if err != nil {
		return nil, detected, fmt.Errorf("%s: %w", path, err)
	}
	return recs, detected, nil
}

// WriteAll encodes recs to w in the given format.
func WriteAll(w io.Writer, format Format, recs []trace.Record) error {
	enc, err := NewWriter(w, format)
	if err != nil {
		return err
	}
	for i := range recs {
		if err := enc.Write(&recs[i]); err != nil {
			return err
		}
	}
	return enc.Close()
}

// Window-content failures. A trace that decodes cleanly can still be
// useless to the profiling/attribution pipeline: an empty window or one
// without a single conditional branch almost always means a broken
// export, so consumers reject it with a typed, actionable error instead
// of producing an all-zero table, whatever format the window came in.
var (
	// ErrEmptyTrace means the decoded window holds no records at all.
	ErrEmptyTrace = errors.New("traceio: trace window contains no records")
	// ErrNoConditionals means the window holds records but not one
	// conditional branch, so there is nothing to predict, profile, or
	// attribute.
	ErrNoConditionals = errors.New("traceio: trace window contains no conditional branches")
)

// CheckRecords validates that a decoded window is simulatable: non-empty
// and containing at least one conditional branch. The name argument
// labels the window in the error ("" for an anonymous one). Errors wrap
// ErrEmptyTrace or ErrNoConditionals for errors.Is dispatch and carry a
// remedy the operator can act on.
func CheckRecords(name string, recs []trace.Record) error {
	prefix := ""
	if name != "" {
		prefix = name + ": "
	}
	if len(recs) == 0 {
		return fmt.Errorf("%s%w: re-export the trace or widen the capture window", prefix, ErrEmptyTrace)
	}
	for i := range recs {
		if recs[i].Kind == trace.CondBranch {
			return nil
		}
	}
	return fmt.Errorf("%s%w (%d records): the exporter likely dropped branch kinds; re-export with conditional branches included",
		prefix, ErrNoConditionals, len(recs))
}

// Fingerprint returns a stable content hash of a record sequence (the
// SHA-256 of its canonical binary encoding), used to key disk-cached
// work derived from imported traces.
func Fingerprint(recs []trace.Record) string {
	h := sha256.New()
	// The canonical binary encoder cannot fail on in-memory records
	// with valid kinds; Fingerprint is only called on records that came
	// through a validating reader or the workload generator.
	if err := WriteAll(h, FormatBinary, recs); err != nil {
		panic(fmt.Sprintf("traceio: fingerprint encode: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil))
}
