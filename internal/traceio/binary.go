package traceio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/whisper-sim/whisper/internal/trace"
)

// The WSPT binary trace format:
//
//	magic "WSPT" | version byte | blocks... | terminator
//
// Each block is:
//
//	uvarint count      records in the block (1..blockRecords)
//	uvarint length     payload byte length
//	payload            count encoded records
//	u32 LE             CRC32 (IEEE) of the payload
//
// and the terminator is a single 0 count, after which EOF must follow.
// Per-record payload encoding (PC deltas carry across blocks):
//
//	uvarint zigzag(pc - prevPC)
//	uvarint zigzag(target - pc)
//	byte    kind<<1 | taken
//	uvarint instrs
//
// The encoding is canonical: every block except the last holds exactly
// blockRecords records, varints are minimal-length, unconditional
// kinds are always taken, and the declared payload length is consumed
// exactly. Any byte string that decodes cleanly therefore re-encodes
// byte-identically (the FuzzBinaryImporter property), and the CRC
// turns silent bit rot into ErrCorrupt instead of a subtly different
// record stream.

var binaryMagic = [4]byte{'W', 'S', 'P', 'T'}

// BinaryVersion is the current WSPT revision. Newer files are rejected
// with ErrVersion so readers never misparse a future layout.
const BinaryVersion = 1

// blockRecords is the canonical block granularity. Every non-final
// block carries exactly this many records.
const blockRecords = 4096

// maxBlockBytes bounds a block payload: a worst-case record is under
// 32 bytes, so the cap bounds hostile allocations without constraining
// real traces.
const maxBlockBytes = 32 * blockRecords

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// --- writer -----------------------------------------------------------

// BinaryWriter encodes the canonical WSPT form.
type BinaryWriter struct {
	w      io.Writer
	buf    []byte // current block payload
	n      int    // records buffered in buf
	prevPC uint64
	wrote  bool // header emitted
	closed bool
	tmp    [binary.MaxVarintLen64]byte
}

// NewBinaryWriter returns a writer over w. The header is emitted on
// the first Write or by Close.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: w}
}

// header emits magic and version once.
func (b *BinaryWriter) header() error {
	if b.wrote {
		return nil
	}
	b.wrote = true
	hdr := append(append([]byte(nil), binaryMagic[:]...), BinaryVersion)
	_, err := b.w.Write(hdr)
	return err
}

// putUvarint appends v to the block payload.
func (b *BinaryWriter) putUvarint(v uint64) {
	n := binary.PutUvarint(b.tmp[:], v)
	b.buf = append(b.buf, b.tmp[:n]...)
}

// Write encodes one record.
func (b *BinaryWriter) Write(rec *trace.Record) error {
	if b.closed {
		return fmt.Errorf("traceio: write after Close")
	}
	if !rec.Kind.Valid() {
		return fmt.Errorf("traceio: invalid kind %d", rec.Kind)
	}
	if !rec.Taken && rec.Kind != trace.CondBranch {
		return fmt.Errorf("traceio: %s record marked not-taken", rec.Kind)
	}
	if err := b.header(); err != nil {
		return err
	}
	b.putUvarint(zigzag(int64(rec.PC - b.prevPC)))
	b.putUvarint(zigzag(int64(rec.Target - rec.PC)))
	kb := byte(rec.Kind) << 1
	if rec.Taken {
		kb |= 1
	}
	b.buf = append(b.buf, kb)
	b.putUvarint(uint64(rec.Instrs))
	b.prevPC = rec.PC
	b.n++
	if b.n == blockRecords {
		return b.flushBlock()
	}
	return nil
}

// flushBlock emits the buffered payload as one framed block.
func (b *BinaryWriter) flushBlock() error {
	var hdr []byte
	n := binary.PutUvarint(b.tmp[:], uint64(b.n))
	hdr = append(hdr, b.tmp[:n]...)
	n = binary.PutUvarint(b.tmp[:], uint64(len(b.buf)))
	hdr = append(hdr, b.tmp[:n]...)
	if _, err := b.w.Write(hdr); err != nil {
		return err
	}
	if _, err := b.w.Write(b.buf); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(b.buf))
	if _, err := b.w.Write(crc[:]); err != nil {
		return err
	}
	b.buf = b.buf[:0]
	b.n = 0
	return nil
}

// Close flushes the final partial block and writes the terminator.
func (b *BinaryWriter) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	if err := b.header(); err != nil {
		return err
	}
	if b.n > 0 {
		if err := b.flushBlock(); err != nil {
			return err
		}
	}
	_, err := b.w.Write([]byte{0})
	return err
}

// --- reader -----------------------------------------------------------

// BinaryReader decodes WSPT and implements Reader.
type BinaryReader struct {
	r         io.ByteReader
	payload   []byte // current block payload
	pos       int    // cursor into payload
	left      int    // records remaining in current block
	lastCount int    // record count the current block declared
	prevPC    uint64
	blocks    int
	done      bool // terminator seen
	err       error
}

// NewBinaryReader validates the header and returns a reader. The
// reader consumes r exclusively through ReadByte, so the framing checks
// see every byte exactly once (a *bufio.Reader is the usual r).
func NewBinaryReader(r io.ByteReader) (*BinaryReader, error) {
	var hdr [5]byte
	for i := range hdr {
		c, err := r.ReadByte()
		if err != nil {
			if i < 4 {
				return nil, fmt.Errorf("%w: input shorter than the WSPT magic", ErrBadMagic)
			}
			return nil, fmt.Errorf("%w: missing version byte", ErrTruncated)
		}
		hdr[i] = c
	}
	if [4]byte(hdr[:4]) != binaryMagic {
		return nil, fmt.Errorf("%w: want WSPT", ErrBadMagic)
	}
	if hdr[4] != BinaryVersion {
		return nil, fmt.Errorf("%w: version %d (reader understands %d)", ErrVersion, hdr[4], BinaryVersion)
	}
	return &BinaryReader{r: r}, nil
}

// fail records the first error and stops the stream.
func (b *BinaryReader) fail(err error) bool {
	b.err = err
	return false
}

// readFrameUvarint reads a minimal uvarint from the block framing.
func (b *BinaryReader) readFrameUvarint(what string) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		c, err := b.r.ReadByte()
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return 0, fmt.Errorf("%w: EOF in %s of block %d%s", ErrTruncated, what, b.blocks, errSuffix(err))
		}
		if i == 9 {
			if c != 1 {
				return 0, fmt.Errorf("%w: %s varint overflows uint64", ErrCorrupt, what)
			}
			return x | uint64(c)<<s, nil
		}
		if c < 0x80 {
			if i > 0 && c == 0 {
				return 0, fmt.Errorf("%w: non-minimal %s varint", ErrCorrupt, what)
			}
			return x | uint64(c)<<s, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
}

// errSuffix renders a wrapped I/O error, if any.
func errSuffix(err error) string {
	if err == nil {
		return ""
	}
	return ": " + err.Error()
}

// loadBlock reads the next block frame into the payload buffer. It
// returns false at the terminator or on error.
func (b *BinaryReader) loadBlock() bool {
	if b.done {
		return false
	}
	count, err := b.readFrameUvarint("record count")
	if err != nil {
		return b.fail(err)
	}
	if count == 0 {
		// Terminator: EOF must follow, or the frame was tampered with.
		if _, err := b.r.ReadByte(); err != io.EOF {
			return b.fail(fmt.Errorf("%w: data after the stream terminator", ErrCorrupt))
		}
		b.done = true
		return false
	}
	if count > blockRecords {
		return b.fail(fmt.Errorf("%w: block %d declares %d records (max %d)", ErrCorrupt, b.blocks, count, blockRecords))
	}
	length, err := b.readFrameUvarint("payload length")
	if err != nil {
		return b.fail(err)
	}
	if length == 0 || length > maxBlockBytes {
		return b.fail(fmt.Errorf("%w: block %d declares %d payload bytes (max %d)", ErrCorrupt, b.blocks, length, maxBlockBytes))
	}
	payload := make([]byte, length)
	for i := range payload {
		c, err := b.r.ReadByte()
		if err != nil {
			return b.fail(fmt.Errorf("%w: EOF inside block %d payload (%d of %d bytes)", ErrTruncated, b.blocks, i, length))
		}
		payload[i] = c
	}
	var crc [4]byte
	for i := range crc {
		c, err := b.r.ReadByte()
		if err != nil {
			return b.fail(fmt.Errorf("%w: EOF in block %d checksum", ErrTruncated, b.blocks))
		}
		crc[i] = c
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crc[:]); got != want {
		return b.fail(fmt.Errorf("%w: block %d checksum mismatch (%#08x != %#08x)", ErrCorrupt, b.blocks, got, want))
	}
	b.payload = payload
	b.pos = 0
	b.left = int(count)
	b.lastCount = int(count)
	b.blocks++
	return true
}

// payloadUvarint reads a minimal uvarint from the current payload.
func (b *BinaryReader) payloadUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		if b.pos >= len(b.payload) {
			return 0, fmt.Errorf("%w: block %d payload ends mid-record", ErrCorrupt, b.blocks-1)
		}
		c := b.payload[b.pos]
		b.pos++
		if i == 9 {
			if c != 1 {
				return 0, fmt.Errorf("%w: record varint overflows uint64", ErrCorrupt)
			}
			return x | uint64(c)<<s, nil
		}
		if c < 0x80 {
			if i > 0 && c == 0 {
				return 0, fmt.Errorf("%w: non-minimal record varint", ErrCorrupt)
			}
			return x | uint64(c)<<s, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
}

// Next implements trace.Stream.
func (b *BinaryReader) Next(rec *trace.Record) bool {
	if b.err != nil {
		return false
	}
	for b.left == 0 {
		// The canonical form allows a short block only in final
		// position: seeing more data after one is corruption.
		if len(b.payload) > 0 && b.pos != len(b.payload) {
			return b.fail(fmt.Errorf("%w: block %d carries %d undeclared payload bytes", ErrCorrupt, b.blocks-1, len(b.payload)-b.pos))
		}
		short := b.blocks > 0 && b.lastCount < blockRecords
		if !b.loadBlock() {
			return false
		}
		if short {
			return b.fail(fmt.Errorf("%w: short block %d is not final", ErrCorrupt, b.blocks-2))
		}
	}
	dpc, err := b.payloadUvarint()
	if err != nil {
		return b.fail(err)
	}
	dtgt, err := b.payloadUvarint()
	if err != nil {
		return b.fail(err)
	}
	if b.pos >= len(b.payload) {
		return b.fail(fmt.Errorf("%w: block %d payload ends mid-record", ErrCorrupt, b.blocks-1))
	}
	kb := b.payload[b.pos]
	b.pos++
	kind := trace.Kind(kb >> 1)
	taken := kb&1 != 0
	if !kind.Valid() {
		return b.fail(fmt.Errorf("%w: invalid kind byte %#x", ErrCorrupt, kb))
	}
	if !taken && kind != trace.CondBranch {
		return b.fail(fmt.Errorf("%w: %s record marked not-taken", ErrCorrupt, kind))
	}
	instrs, err := b.payloadUvarint()
	if err != nil {
		return b.fail(err)
	}
	if instrs > 1<<32-1 {
		return b.fail(fmt.Errorf("%w: instrs %d overflows uint32", ErrCorrupt, instrs))
	}
	pc := b.prevPC + uint64(unzigzag(dpc))
	rec.PC = pc
	rec.Target = pc + uint64(unzigzag(dtgt))
	rec.Kind = kind
	rec.Taken = taken
	rec.Instrs = uint32(instrs)
	b.prevPC = pc
	b.left--
	return true
}

// Err returns the first decode error, or nil on clean EOF.
func (b *BinaryReader) Err() error { return b.err }
