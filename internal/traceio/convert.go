package traceio

import (
	"fmt"
	"io"

	"github.com/whisper-sim/whisper/internal/trace"
)

// Convert transcodes a trace stream from one format to another,
// returning the record count and the concrete input format (after
// FormatAuto detection). Conversion is streaming and lossless: every
// record field survives, so text->binary->text of canonical inputs is
// bit-exact (comments in hand-written text are dropped — the canonical
// text form carries only the standard header comments).
func Convert(dst io.Writer, src io.Reader, from, to Format) (int, Format, error) {
	dec, detected, err := NewReader(src, from)
	if err != nil {
		return 0, detected, err
	}
	if to == FormatAuto {
		return 0, detected, fmt.Errorf("traceio: output format must be explicit (text or binary)")
	}
	enc, err := NewWriter(dst, to)
	if err != nil {
		return 0, detected, err
	}
	n := 0
	var rec trace.Record
	for dec.Next(&rec) {
		if err := enc.Write(&rec); err != nil {
			return n, detected, err
		}
		n++
	}
	if err := dec.Err(); err != nil {
		return n, detected, err
	}
	return n, detected, enc.Close()
}
