// Package store defines the versioned on-disk artifact format that makes
// Whisper's pipeline stages durable (paper §IV, Fig 10): a profile
// collected in production can be written once, trained offline many
// times, and the trained hint bundle shipped to the link step — the
// separation PGO systems need between profiling, training, and serving.
//
// Layout:
//
//	magic "WSPA" | version u16 | section count u16
//	per section: tag [4]byte | payload length u32 | payload | CRC32 u32
//
// Sections appear in a fixed order — META (always), then PROF and/or
// HINT — and every integer outside the fixed-width header fields is a
// canonical uvarint (minimal length enforced on decode). That, plus
// strictly-ascending PC deltas, maximal zero runs in the histogram RLE,
// and 0/1 bool bytes, makes the encoding a bijection on its valid
// range: any bytes that decode successfully re-encode byte-identically,
// which is what the fuzz harness pins down.
//
// Readers reject damage with typed errors (ErrBadMagic, ErrVersion,
// ErrTruncated, ErrCorrupt) so callers can fall back to re-profiling or
// retraining instead of consuming garbage.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"
	"time"

	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/formula"
	"github.com/whisper-sim/whisper/internal/hint"
	"github.com/whisper-sim/whisper/internal/profiler"
)

// FormatVersion is the current format revision. Files written by a
// newer revision are rejected with ErrVersion; callers treat that as a
// cache miss and regenerate the artifact.
const FormatVersion = 1

var fileMagic = [4]byte{'W', 'S', 'P', 'A'}

// Section tags, in their mandatory file order.
var (
	secMeta = [4]byte{'M', 'E', 'T', 'A'}
	secProf = [4]byte{'P', 'R', 'O', 'F'}
	secHint = [4]byte{'H', 'I', 'N', 'T'}
)

// Typed decode failures. Every reader error wraps exactly one of these
// (or an underlying I/O error), so callers can errors.Is-dispatch.
var (
	// ErrBadMagic means the input is not a store artifact at all.
	ErrBadMagic = errors.New("store: bad magic")
	// ErrVersion means the artifact was written by a newer format
	// revision than this reader understands.
	ErrVersion = errors.New("store: unsupported format version")
	// ErrTruncated means the input ended before the declared content.
	ErrTruncated = errors.New("store: truncated artifact")
	// ErrCorrupt means a checksum or structural invariant failed.
	ErrCorrupt = errors.New("store: corrupt artifact")
)

// Encoding limits. They bound hostile allocations, not real profiles:
// the defaults use 16 lengths and 4000 hard branches.
const (
	maxSectionBytes = 1 << 30
	maxLengths      = 64
	maxLengthValue  = 1 << 20
)

// Meta identifies the window an artifact was collected over, plus the
// cache key it was stored under (verified on load so a hash-shortened
// filename collision can never alias two different configurations).
type Meta struct {
	// App and Input name the profiled workload window.
	App   string
	Input int
	// Records is the window length in trace records.
	Records int
	// Key is the full cache key for cache-managed artifacts ("" for
	// artifacts written directly by the CLI).
	Key string
}

// Artifact is the unit of storage: window metadata plus a profile
// snapshot and/or a trained hint bundle.
type Artifact struct {
	Meta Meta
	// Profile is the production profile snapshot (nil if absent).
	Profile *profiler.Profile
	// Train is the trained hint bundle (nil if absent).
	Train *core.TrainResult
	// WindowInstrs is the profiled window's instruction count, carried
	// with the hint bundle so `whisper apply` can compute dynamic
	// overhead without the full profile. Meaningful only when Train is
	// set.
	WindowInstrs uint64
}

// --- writing ----------------------------------------------------------

// Encode renders a to bytes. The sections are encoded in place, one
// after another, into one buffer.
func Encode(a *Artifact) ([]byte, error) {
	nsec := 1
	if a.Profile != nil {
		nsec++
	}
	if a.Train != nil {
		nsec++
	}
	e := &enc{}
	e.b = append(e.b, fileMagic[:]...)
	e.b = binary.LittleEndian.AppendUint16(e.b, FormatVersion)
	e.b = binary.LittleEndian.AppendUint16(e.b, uint16(nsec))
	if err := e.section(secMeta, func() error { return encodeMeta(e, &a.Meta) }); err != nil {
		return nil, err
	}
	if a.Profile != nil {
		if err := e.section(secProf, func() error { return encodeProfile(e, a.Profile) }); err != nil {
			return nil, err
		}
	}
	if a.Train != nil {
		if err := e.section(secHint, func() error { return encodeTrain(e, a.Train, a.WindowInstrs) }); err != nil {
			return nil, err
		}
	}
	return e.b, nil
}

// section appends one section: its tag, the length of the payload that
// body appends after it, the payload, and the payload's CRC.
func (e *enc) section(tag [4]byte, body func() error) error {
	e.b = append(e.b, tag[:]...)
	e.b = append(e.b, 0, 0, 0, 0)
	start := len(e.b)
	if err := body(); err != nil {
		return err
	}
	payload := e.b[start:]
	if len(payload) > maxSectionBytes {
		return fmt.Errorf("store: %s section exceeds %d bytes", tag, maxSectionBytes)
	}
	binary.LittleEndian.PutUint32(e.b[start-4:start], uint32(len(payload)))
	e.b = binary.LittleEndian.AppendUint32(e.b, crc32.ChecksumIEEE(payload))
	return nil
}

// Bundle encodes the hint bundle of a training result: meta, the
// trained hints and the profiled window's instruction count. Every
// shipped bundle (`whisper train`, `whisper serve`) is encoded here. It
// encodes a copy of tr with the wall-clock training time zeroed, so two
// trainings that agree encode to equal bytes. It returns the bytes and
// their hex SHA-256, which the daemon serves as the bundle's strong
// ETag.
func Bundle(meta Meta, tr *core.TrainResult, windowInstrs uint64) (data []byte, etag string, err error) {
	t := *tr
	t.Duration = 0
	data, err = Encode(&Artifact{Meta: meta, Train: &t, WindowInstrs: windowInstrs})
	if err != nil {
		return nil, "", err
	}
	return data, fmt.Sprintf("%x", sha256.Sum256(data)), nil
}

// WriteFile writes a to path atomically (see WriteBytes).
func WriteFile(path string, a *Artifact) error {
	data, err := Encode(a)
	if err != nil {
		return err
	}
	return WriteBytes(path, data)
}

// WriteBytes writes encoded artifact bytes to path atomically (temp
// file + rename), so a crashed writer never leaves a half-written
// artifact under the final name.
func WriteBytes(path string, data []byte) error {
	dir, base := splitPath(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func splitPath(path string) (dir, base string) {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == os.PathSeparator {
			return path[:i], path[i+1:]
		}
	}
	return ".", path
}

// --- reading ----------------------------------------------------------

// Decode parses data as one complete artifact, validating magic,
// version, section order, and per-section CRCs; trailing bytes are
// rejected. Each section's payload is parsed where it lies in data, so
// a header claiming more bytes than remain fails before anything is
// allocated for them.
func Decode(data []byte) (*Artifact, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: header: %d of 8 bytes", ErrTruncated, len(data))
	}
	if [4]byte(data[:4]) != fileMagic {
		return nil, ErrBadMagic
	}
	version := binary.LittleEndian.Uint16(data[4:6])
	if version == 0 || version > FormatVersion {
		return nil, fmt.Errorf("%w: file version %d, reader supports <= %d",
			ErrVersion, version, FormatVersion)
	}
	nsec := int(binary.LittleEndian.Uint16(data[6:8]))
	if nsec < 1 || nsec > 3 {
		return nil, fmt.Errorf("%w: %d sections", ErrCorrupt, nsec)
	}

	a := &Artifact{}
	rest := data[8:]
	// Sections must appear in tag order; next tracks the earliest
	// position still allowed, rejecting duplicates and reorderings so
	// every valid file has exactly one encoding.
	order := [][4]byte{secMeta, secProf, secHint}
	next := 0
	for i := 0; i < nsec; i++ {
		if len(rest) < 8 {
			return nil, fmt.Errorf("%w: section header: %d of 8 bytes", ErrTruncated, len(rest))
		}
		tag := [4]byte(rest[:4])
		size := binary.LittleEndian.Uint32(rest[4:8])
		if size > maxSectionBytes {
			return nil, fmt.Errorf("%w: %s section claims %d bytes", ErrCorrupt, tag, size)
		}
		rest = rest[8:]
		if uint64(len(rest)) < uint64(size)+4 {
			return nil, fmt.Errorf("%w: %s section claims %d bytes and its checksum, %d remain",
				ErrTruncated, tag, size, len(rest))
		}
		payload := rest[:size]
		if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(rest[size:]); got != want {
			return nil, fmt.Errorf("%w: %s checksum mismatch (%08x != %08x)", ErrCorrupt, tag, got, want)
		}
		rest = rest[size+4:]

		if i == 0 && tag != secMeta {
			return nil, fmt.Errorf("%w: first section %q, want META", ErrCorrupt, tag[:])
		}
		idx := -1
		for k := next; k < len(order); k++ {
			if tag == order[k] {
				idx = k
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("%w: unexpected section %q", ErrCorrupt, tag[:])
		}
		next = idx + 1
		var err error
		switch tag {
		case secMeta:
			err = decodeMeta(payload, &a.Meta)
		case secProf:
			a.Profile, err = decodeProfile(payload)
		case secHint:
			a.Train, a.WindowInstrs, err = decodeTrain(payload)
		}
		if err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return a, nil
}

// ReadFile reads and decodes one artifact file.
func ReadFile(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Fingerprint returns a stable hex digest of a profile's canonical
// encoding. Training is a pure function of (profile, params), so the
// fingerprint keys trained-hint cache entries — including profiles
// merged in memory that never map back to a single (app, input) window.
func Fingerprint(p *profiler.Profile) (string, error) {
	e := &enc{}
	if err := encodeProfile(e, p); err != nil {
		return "", err
	}
	sum := sha256.Sum256(e.b)
	return fmt.Sprintf("%x", sum[:]), nil
}

// --- canonical primitive codec ----------------------------------------

type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

func (e *enc) float(f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	e.b = append(e.b, b[:]...)
}

func (e *enc) boolByte(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

type dec struct {
	b   []byte
	off int
}

func (d *dec) remaining() int { return len(d.b) - d.off }

// uvarint reads one canonical (minimal-length) varint. Payloads are
// CRC-complete before parsing, so running out of bytes here is
// structural corruption, not truncation.
func (d *dec) uvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		if d.off >= len(d.b) {
			return 0, fmt.Errorf("%w: varint runs past payload", ErrCorrupt)
		}
		c := d.b[d.off]
		d.off++
		if i == 9 {
			// Only 1 is canonical here: 0 pads a shorter varint and
			// anything larger overflows uint64.
			if c != 1 {
				return 0, fmt.Errorf("%w: varint overflows uint64 or is non-minimal", ErrCorrupt)
			}
			return x | uint64(c)<<s, nil
		}
		if c < 0x80 {
			if i > 0 && c == 0 {
				return 0, fmt.Errorf("%w: non-minimal varint", ErrCorrupt)
			}
			return x | uint64(c)<<s, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
}

// intval reads a canonical varint bounded by max and returns it as int.
func (d *dec) intval(max uint64) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > max {
		return 0, fmt.Errorf("%w: value %d exceeds bound %d", ErrCorrupt, v, max)
	}
	return int(v), nil
}

func (d *dec) float() (float64, error) {
	if d.remaining() < 8 {
		return 0, fmt.Errorf("%w: float runs past payload", ErrCorrupt)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v, nil
}

func (d *dec) boolByte() (bool, error) {
	if d.off >= len(d.b) {
		return false, fmt.Errorf("%w: bool runs past payload", ErrCorrupt)
	}
	c := d.b[d.off]
	d.off++
	if c > 1 {
		return false, fmt.Errorf("%w: bool byte %#x", ErrCorrupt, c)
	}
	return c == 1, nil
}

func (d *dec) byteVal() (byte, error) {
	if d.off >= len(d.b) {
		return 0, fmt.Errorf("%w: byte runs past payload", ErrCorrupt)
	}
	c := d.b[d.off]
	d.off++
	return c, nil
}

func (d *dec) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.remaining()) {
		return "", fmt.Errorf("%w: string length %d exceeds payload", ErrCorrupt, n)
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *dec) done() error {
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.b)-d.off)
	}
	return nil
}

// sortedKeys returns m's keys ascending; ascending PCs are what makes
// the delta encoding canonical.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pcSeq decodes the strictly-ascending PC delta sequence: the first
// value is absolute, every later one a positive delta from the previous.
type pcSeq struct {
	prev  uint64
	first bool
}

func newPCSeq() pcSeq { return pcSeq{first: true} }

func (s *pcSeq) next(d *dec) (uint64, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if s.first {
		s.first = false
		s.prev = v
		return v, nil
	}
	if v == 0 {
		return 0, fmt.Errorf("%w: zero PC delta", ErrCorrupt)
	}
	pc := s.prev + v
	if pc < s.prev {
		return 0, fmt.Errorf("%w: PC delta overflow", ErrCorrupt)
	}
	s.prev = pc
	return pc, nil
}

func (s *pcSeq) emit(e *enc, pc uint64) {
	if s.first {
		s.first = false
		e.uvarint(pc)
	} else {
		e.uvarint(pc - s.prev)
	}
	s.prev = pc
}

// hist encodes a 256-bucket histogram with maximal zero-run RLE: token
// 0 is followed by a run length; token v+1 carries a non-zero count v.
// Zero counts can only live in runs and runs cannot be adjacent, so the
// encoding of any histogram is unique.
func (e *enc) hist(h *[256]uint32) {
	for i := 0; i < 256; {
		if h[i] == 0 {
			j := i
			for j < 256 && h[j] == 0 {
				j++
			}
			e.uvarint(0)
			e.uvarint(uint64(j - i))
			i = j
		} else {
			e.uvarint(uint64(h[i]) + 1)
			i++
		}
	}
}

func (d *dec) hist(h *[256]uint32) error {
	i := 0
	afterRun := false
	for i < 256 {
		tok, err := d.uvarint()
		if err != nil {
			return err
		}
		switch {
		case tok == 0:
			if afterRun {
				return fmt.Errorf("%w: adjacent zero runs", ErrCorrupt)
			}
			run, err := d.uvarint()
			if err != nil {
				return err
			}
			if run == 0 || run > uint64(256-i) {
				return fmt.Errorf("%w: zero run %d at bucket %d", ErrCorrupt, run, i)
			}
			i += int(run)
			afterRun = true
		case tok == 1:
			return fmt.Errorf("%w: zero count outside run", ErrCorrupt)
		case tok-1 > math.MaxUint32:
			return fmt.Errorf("%w: histogram count overflows uint32", ErrCorrupt)
		default:
			h[i] = uint32(tok - 1)
			i++
			afterRun = false
		}
	}
	return nil
}

// --- META section ------------------------------------------------------

func encodeMeta(e *enc, m *Meta) error {
	if m.Input < 0 || m.Records < 0 {
		return fmt.Errorf("store: negative meta field (input %d, records %d)", m.Input, m.Records)
	}
	e.str(m.App)
	e.uvarint(uint64(m.Input))
	e.uvarint(uint64(m.Records))
	e.str(m.Key)
	return nil
}

func decodeMeta(payload []byte, m *Meta) error {
	d := &dec{b: payload}
	var err error
	if m.App, err = d.str(); err != nil {
		return err
	}
	if m.Input, err = d.intval(math.MaxInt64); err != nil {
		return err
	}
	if m.Records, err = d.intval(math.MaxInt64); err != nil {
		return err
	}
	if m.Key, err = d.str(); err != nil {
		return err
	}
	return d.done()
}

// --- PROF section ------------------------------------------------------

func encodeLengths(e *enc, lengths []int) error {
	if len(lengths) > maxLengths {
		return fmt.Errorf("store: %d history lengths exceeds %d", len(lengths), maxLengths)
	}
	e.uvarint(uint64(len(lengths)))
	for _, l := range lengths {
		if l <= 0 || l > maxLengthValue {
			return fmt.Errorf("store: history length %d out of range", l)
		}
		e.uvarint(uint64(l))
	}
	return nil
}

func decodeLengths(d *dec) ([]int, error) {
	n, err := d.intval(maxLengths)
	if err != nil {
		return nil, err
	}
	lengths := make([]int, n)
	for i := range lengths {
		v, err := d.intval(maxLengthValue)
		if err != nil {
			return nil, err
		}
		if v == 0 {
			return nil, fmt.Errorf("%w: zero history length", ErrCorrupt)
		}
		lengths[i] = v
	}
	return lengths, nil
}

func encodeProfile(e *enc, p *profiler.Profile) error {
	if err := encodeLengths(e, p.Lengths); err != nil {
		return err
	}
	e.uvarint(p.Records)
	e.uvarint(p.Instrs)
	e.uvarint(p.CondExecs)
	e.uvarint(p.Mispreds)

	e.uvarint(uint64(len(p.Stats)))
	seq := newPCSeq()
	for _, pc := range sortedKeys(p.Stats) {
		bs := p.Stats[pc]
		seq.emit(e, pc)
		e.uvarint(bs.Execs)
		e.uvarint(bs.Misp)
		e.uvarint(bs.Taken)
	}

	e.uvarint(uint64(len(p.Hard)))
	seq = newPCSeq()
	for _, pc := range sortedKeys(p.Hard) {
		hp := p.Hard[pc]
		if len(hp.T) != len(p.Lengths) || len(hp.NT) != len(p.Lengths) ||
			len(hp.VT) != len(p.Lengths) || len(hp.VNT) != len(p.Lengths) {
			return fmt.Errorf("store: hard profile %#x histogram count mismatches %d lengths", pc, len(p.Lengths))
		}
		seq.emit(e, pc)
		e.uvarint(hp.Execs)
		e.uvarint(hp.Misp)
		e.uvarint(hp.MeasExecs)
		e.uvarint(hp.MispMeas)
		e.uvarint(hp.MispVal)
		for i := range p.Lengths {
			e.hist(&hp.T[i])
			e.hist(&hp.NT[i])
			e.hist(&hp.VT[i])
			e.hist(&hp.VNT[i])
		}
	}
	return nil
}

func decodeProfile(payload []byte) (*profiler.Profile, error) {
	d := &dec{b: payload}
	lengths, err := decodeLengths(d)
	if err != nil {
		return nil, err
	}
	p := &profiler.Profile{
		Lengths: lengths,
		Stats:   make(map[uint64]*profiler.BranchStats),
		Hard:    make(map[uint64]*profiler.HardProfile),
	}
	if p.Records, err = d.uvarint(); err != nil {
		return nil, err
	}
	if p.Instrs, err = d.uvarint(); err != nil {
		return nil, err
	}
	if p.CondExecs, err = d.uvarint(); err != nil {
		return nil, err
	}
	if p.Mispreds, err = d.uvarint(); err != nil {
		return nil, err
	}

	// Every stats entry is at least 4 payload bytes, so the count is
	// bounded by the remaining payload — a hostile count cannot force a
	// huge allocation.
	nStats, err := d.intval(uint64(d.remaining()) / 4)
	if err != nil {
		return nil, fmt.Errorf("%w (stats count)", err)
	}
	seq := newPCSeq()
	for k := 0; k < nStats; k++ {
		pc, err := seq.next(d)
		if err != nil {
			return nil, err
		}
		bs := &profiler.BranchStats{}
		if bs.Execs, err = d.uvarint(); err != nil {
			return nil, err
		}
		if bs.Misp, err = d.uvarint(); err != nil {
			return nil, err
		}
		if bs.Taken, err = d.uvarint(); err != nil {
			return nil, err
		}
		p.Stats[pc] = bs
	}

	minHard := uint64(6 + 12*len(lengths))
	nHard, err := d.intval(uint64(d.remaining()) / minHard)
	if err != nil {
		return nil, fmt.Errorf("%w (hard count)", err)
	}
	seq = newPCSeq()
	for k := 0; k < nHard; k++ {
		pc, err := seq.next(d)
		if err != nil {
			return nil, err
		}
		hp := &profiler.HardProfile{
			PC:  pc,
			T:   make([][256]uint32, len(lengths)),
			NT:  make([][256]uint32, len(lengths)),
			VT:  make([][256]uint32, len(lengths)),
			VNT: make([][256]uint32, len(lengths)),
		}
		if hp.Execs, err = d.uvarint(); err != nil {
			return nil, err
		}
		if hp.Misp, err = d.uvarint(); err != nil {
			return nil, err
		}
		if hp.MeasExecs, err = d.uvarint(); err != nil {
			return nil, err
		}
		if hp.MispMeas, err = d.uvarint(); err != nil {
			return nil, err
		}
		if hp.MispVal, err = d.uvarint(); err != nil {
			return nil, err
		}
		for i := range lengths {
			if err := d.hist(&hp.T[i]); err != nil {
				return nil, err
			}
			if err := d.hist(&hp.NT[i]); err != nil {
				return nil, err
			}
			if err := d.hist(&hp.VT[i]); err != nil {
				return nil, err
			}
			if err := d.hist(&hp.VNT[i]); err != nil {
				return nil, err
			}
		}
		p.Hard[pc] = hp
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return p, nil
}

// --- HINT section ------------------------------------------------------

func encodeTrain(e *enc, tr *core.TrainResult, windowInstrs uint64) error {
	p := tr.Params
	if p.MinHistory < 0 || p.MaxHistory < 0 || p.NumLengths < 0 {
		return fmt.Errorf("store: negative training parameter")
	}
	if tr.Trained < 0 || tr.Duration < 0 {
		return fmt.Errorf("store: negative training counters")
	}
	e.uvarint(uint64(p.MinHistory))
	e.uvarint(uint64(p.MaxHistory))
	e.uvarint(uint64(p.NumLengths))
	e.float(p.ExploreFraction)
	e.uvarint(p.Seed)
	e.uvarint(p.MinExecs)
	e.float(p.MinGainFrac)
	e.uvarint(p.MinGainAbs)
	e.boolByte(p.HashedHistory)
	e.boolByte(p.ExtendedOps)
	e.boolByte(p.NoValidation)

	if err := encodeLengths(e, tr.Lengths); err != nil {
		return err
	}
	e.uvarint(uint64(tr.Trained))
	e.uvarint(tr.FormulaEvals)
	e.uvarint(uint64(tr.Duration))
	e.uvarint(windowInstrs)

	e.uvarint(uint64(len(tr.Hints)))
	seq := newPCSeq()
	for _, pc := range sortedKeys(tr.Hints) {
		h := tr.Hints[pc]
		if h.LengthIdx < 0 || h.LengthIdx >= maxLengths {
			return fmt.Errorf("store: hint %#x length index %d out of range", pc, h.LengthIdx)
		}
		if !h.Formula.Valid() {
			return fmt.Errorf("store: hint %#x formula %#x invalid", pc, uint16(h.Formula))
		}
		if h.Bias > 2 {
			return fmt.Errorf("store: hint %#x bias %d invalid", pc, h.Bias)
		}
		seq.emit(e, pc)
		e.uvarint(uint64(h.LengthIdx))
		e.uvarint(uint64(h.Formula))
		e.b = append(e.b, byte(h.Bias))
		e.uvarint(h.ProfiledMisp)
		e.uvarint(h.BaselineMisp)
		e.uvarint(h.ValMisp)
	}
	return nil
}

func decodeTrain(payload []byte) (*core.TrainResult, uint64, error) {
	d := &dec{b: payload}
	tr := &core.TrainResult{Hints: make(map[uint64]core.Hint)}
	var err error
	if tr.Params.MinHistory, err = d.intval(maxLengthValue); err != nil {
		return nil, 0, err
	}
	if tr.Params.MaxHistory, err = d.intval(maxLengthValue); err != nil {
		return nil, 0, err
	}
	if tr.Params.NumLengths, err = d.intval(maxLengths); err != nil {
		return nil, 0, err
	}
	if tr.Params.ExploreFraction, err = d.float(); err != nil {
		return nil, 0, err
	}
	if tr.Params.Seed, err = d.uvarint(); err != nil {
		return nil, 0, err
	}
	if tr.Params.MinExecs, err = d.uvarint(); err != nil {
		return nil, 0, err
	}
	if tr.Params.MinGainFrac, err = d.float(); err != nil {
		return nil, 0, err
	}
	if tr.Params.MinGainAbs, err = d.uvarint(); err != nil {
		return nil, 0, err
	}
	if tr.Params.HashedHistory, err = d.boolByte(); err != nil {
		return nil, 0, err
	}
	if tr.Params.ExtendedOps, err = d.boolByte(); err != nil {
		return nil, 0, err
	}
	if tr.Params.NoValidation, err = d.boolByte(); err != nil {
		return nil, 0, err
	}

	if tr.Lengths, err = decodeLengths(d); err != nil {
		return nil, 0, err
	}
	if tr.Trained, err = d.intval(math.MaxInt64); err != nil {
		return nil, 0, err
	}
	if tr.FormulaEvals, err = d.uvarint(); err != nil {
		return nil, 0, err
	}
	nanos, err := d.intval(math.MaxInt64)
	if err != nil {
		return nil, 0, err
	}
	tr.Duration = time.Duration(nanos)
	windowInstrs, err := d.uvarint()
	if err != nil {
		return nil, 0, err
	}

	nHints, err := d.intval(uint64(d.remaining()) / 7)
	if err != nil {
		return nil, 0, fmt.Errorf("%w (hint count)", err)
	}
	seq := newPCSeq()
	for k := 0; k < nHints; k++ {
		pc, err := seq.next(d)
		if err != nil {
			return nil, 0, err
		}
		h := core.Hint{PC: pc}
		if h.LengthIdx, err = d.intval(maxLengths - 1); err != nil {
			return nil, 0, err
		}
		f, err := d.intval(formula.NumFormulas - 1)
		if err != nil {
			return nil, 0, err
		}
		h.Formula = formula.Formula(f)
		b, err := d.byteVal()
		if err != nil {
			return nil, 0, err
		}
		if b > 2 {
			return nil, 0, fmt.Errorf("%w: bias byte %#x", ErrCorrupt, b)
		}
		h.Bias = hint.Bias(b)
		if h.ProfiledMisp, err = d.uvarint(); err != nil {
			return nil, 0, err
		}
		if h.BaselineMisp, err = d.uvarint(); err != nil {
			return nil, 0, err
		}
		if h.ValMisp, err = d.uvarint(); err != nil {
			return nil, 0, err
		}
		tr.Hints[pc] = h
	}
	if err := d.done(); err != nil {
		return nil, 0, err
	}
	return tr, windowInstrs, nil
}
