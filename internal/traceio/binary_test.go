package traceio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/xrand"
)

// encodeBinary encodes recs in the WSPT format.
func encodeBinary(t *testing.T, recs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteAll(&buf, FormatBinary, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeBinary decodes a WSPT byte string.
func decodeBinary(data []byte) ([]trace.Record, error) {
	recs, _, err := ReadAll(bytes.NewReader(data), FormatBinary)
	return recs, err
}

// extremeRecords walks the PC and target deltas through the int64
// extremes and then through arbitrary 64-bit values, so every zigzag
// varint width (1 to 10 bytes) and sign is exercised.
func extremeRecords() []trace.Record {
	deltas := []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64, math.MinInt64 + 1, 1 << 32, -(1 << 32)}
	r := xrand.New(7)
	for i := 0; i < 64; i++ {
		deltas = append(deltas, int64(r.Uint64()))
	}
	recs := make([]trace.Record, len(deltas))
	var pc uint64
	for i, d := range deltas {
		pc += uint64(d)
		kind := trace.Kind(i % 5)
		recs[i] = trace.Record{
			PC:     pc,
			Target: pc + uint64(deltas[len(deltas)-1-i]),
			Kind:   kind,
			Taken:  kind != trace.CondBranch || i%2 == 0,
			Instrs: uint32(i%2) * (1<<32 - 1),
		}
	}
	return recs
}

func TestBinaryRoundTrip(t *testing.T) {
	for name, recs := range map[string][]trace.Record{
		"sample":         sampleRecords(),
		"int64 extremes": extremeRecords(),
	} {
		t.Run(name, func(t *testing.T) {
			enc := encodeBinary(t, recs)
			got, detected, err := ReadAll(bytes.NewReader(enc), FormatAuto)
			if err != nil {
				t.Fatal(err)
			}
			if detected != FormatBinary {
				t.Fatalf("detected %s, want binary", detected)
			}
			if len(got) != len(recs) {
				t.Fatalf("got %d records, want %d", len(got), len(recs))
			}
			for i := range recs {
				if got[i] != recs[i] {
					t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
				}
			}
			if enc2 := encodeBinary(t, got); !bytes.Equal(enc, enc2) {
				t.Fatal("re-encoding decoded records changed the bytes")
			}
		})
	}
}

// TestBinaryMultiBlock crosses the 4096-record block boundary, checks
// that PC deltas carry across blocks, and bounds the encoding's size:
// short branch displacements must cost a few bytes a record, as they
// do in a real PT trace.
func TestBinaryMultiBlock(t *testing.T) {
	recs := make([]trace.Record, 3*blockRecords+17)
	pc := uint64(0x400000)
	for i := range recs {
		pc += uint64(i%97) * 4
		recs[i] = trace.Record{
			PC:     pc,
			Target: pc + uint64(i%251) - 100,
			Kind:   trace.CondBranch,
			Taken:  i%3 != 0,
			Instrs: uint32(i % 11),
		}
	}
	enc := encodeBinary(t, recs)
	if perRec := float64(len(enc)) / float64(len(recs)); perRec >= 10 {
		t.Fatalf("WSPT uses %.1f bytes/record, want < 10", perRec)
	}
	got, err := decodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
	if enc2 := encodeBinary(t, got); !bytes.Equal(enc, enc2) {
		t.Fatal("multi-block re-encode changed the bytes")
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	enc := encodeBinary(t, nil)
	want := append([]byte("WSPT"), BinaryVersion, 0)
	if !bytes.Equal(enc, want) {
		t.Fatalf("empty trace encodes as %x, want %x", enc, want)
	}
	got, err := decodeBinary(enc)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty trace decodes to %d records, err %v", len(got), err)
	}
}

func TestBinaryHeaderErrors(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrBadMagic},
		{"short magic", []byte("WS"), ErrBadMagic},
		{"wrong magic", []byte("WSPA\x01\x00"), ErrBadMagic},
		{"missing version", []byte("WSPT"), ErrTruncated},
		{"future version", []byte("WSPT\x02\x00"), ErrVersion},
		{"zero version", []byte("WSPT\x00\x00"), ErrVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeBinary(tc.in)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestBinaryTruncation: every strict prefix of a valid file must be
// rejected — with ErrBadMagic inside the magic, ErrTruncated beyond it.
func TestBinaryTruncation(t *testing.T) {
	enc := encodeBinary(t, sampleRecords())
	for n := 0; n < len(enc); n++ {
		_, err := decodeBinary(enc[:n])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", n, len(enc))
		}
		want := ErrTruncated
		if n < 4 {
			want = ErrBadMagic
		}
		if !errors.Is(err, want) {
			t.Fatalf("prefix of %d bytes: got %v, want %v", n, err, want)
		}
	}
}

// fixture returns a small single-block encoding and its section
// offsets, asserting the layout assumptions the surgical corruption
// tests below rely on (single-byte count and length varints).
func fixture(t *testing.T) (enc []byte, countOff, lenOff, payOff, crcOff, termOff int) {
	t.Helper()
	enc = encodeBinary(t, sampleRecords())
	countOff = 5
	if enc[countOff] != byte(len(sampleRecords())) {
		t.Fatalf("fixture count byte is %d", enc[countOff])
	}
	lenOff = countOff + 1
	plen := int(enc[lenOff])
	if plen >= 0x80 {
		t.Fatalf("fixture payload length %d is not a single-byte varint", plen)
	}
	payOff = lenOff + 1
	crcOff = payOff + plen
	termOff = crcOff + 4
	if termOff != len(enc)-1 || enc[termOff] != 0 {
		t.Fatalf("fixture terminator not at %d (len %d)", termOff, len(enc))
	}
	return
}

// mutate returns a copy of enc with f applied.
func mutate(enc []byte, f func(b []byte) []byte) []byte {
	return f(append([]byte(nil), enc...))
}

// refixPayload rewrites the fixture's payload with f's result and
// recomputes the length varint and CRC so only the payload-level
// damage under test is visible to the reader.
func refixPayload(t *testing.T, f func(p []byte) []byte) []byte {
	t.Helper()
	enc, _, _, payOff, crcOff, _ := fixture(t)
	payload := f(append([]byte(nil), enc[payOff:crcOff]...))
	if len(payload) >= 0x80 {
		t.Fatalf("mutated payload of %d bytes needs a multi-byte length varint", len(payload))
	}
	out := append([]byte(nil), enc[:payOff-1]...) // header + count
	out = append(out, byte(len(payload)))
	out = append(out, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	out = append(out, crc[:]...)
	out = append(out, 0)
	return out
}

// TestBinaryCorruptionPerSection damages every WSPT section in turn —
// count, length, payload, checksum, terminator — and checks the typed
// rejection.
func TestBinaryCorruptionPerSection(t *testing.T) {
	enc, countOff, lenOff, payOff, crcOff, termOff := fixture(t)
	cases := []struct {
		name string
		in   []byte
		want error
		msg  string
	}{
		{"count one high", mutate(enc, func(b []byte) []byte { b[countOff]++; return b }),
			ErrCorrupt, "mid-record"},
		{"count one low", mutate(enc, func(b []byte) []byte { b[countOff]--; return b }),
			ErrCorrupt, "undeclared payload bytes"},
		{"count over block cap", mutate(enc, func(b []byte) []byte {
			// 4097 as a 2-byte varint in place of the count byte.
			return append(b[:countOff], append([]byte{0x81, 0x20}, b[countOff+1:]...)...)
		}), ErrCorrupt, "declares 4097 records"},
		{"non-minimal count varint", mutate(enc, func(b []byte) []byte {
			v := b[countOff]
			return append(b[:countOff], append([]byte{v | 0x80, 0x00}, b[countOff+1:]...)...)
		}), ErrCorrupt, "non-minimal record count varint"},
		{"length zero", mutate(enc, func(b []byte) []byte { b[lenOff] = 0; return b }),
			ErrCorrupt, "declares 0 payload bytes"},
		{"length one high", mutate(enc, func(b []byte) []byte { b[lenOff]++; return b }),
			ErrCorrupt, "checksum mismatch"},
		{"length over cap", mutate(enc, func(b []byte) []byte {
			// maxBlockBytes+1 as a 3-byte varint in place of the length.
			return append(b[:lenOff], append([]byte{0x81, 0x80, 0x08}, b[lenOff+1:]...)...)
		}), ErrCorrupt, "payload bytes (max"},
		{"payload bit flip", mutate(enc, func(b []byte) []byte { b[payOff+2] ^= 0x10; return b }),
			ErrCorrupt, "checksum mismatch"},
		{"checksum bit flip", mutate(enc, func(b []byte) []byte { b[crcOff] ^= 0x01; return b }),
			ErrCorrupt, "checksum mismatch"},
		{"data after terminator", mutate(enc, func(b []byte) []byte { return append(b, 0x41) }),
			ErrCorrupt, "data after the stream terminator"},
		{"short block not final", mutate(enc, func(b []byte) []byte {
			// Duplicate the (short) block before the terminator.
			block := append([]byte(nil), b[countOff:termOff]...)
			return append(b[:termOff], append(block, 0)...)
		}), ErrCorrupt, "short block 0 is not final"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeBinary(tc.in)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("error %q does not mention %q", err, tc.msg)
			}
		})
	}
}

// TestBinaryCorruptPayloadContents rebuilds the CRC after damaging the
// payload itself, so the structural record checks (not the checksum)
// must catch it.
func TestBinaryCorruptPayloadContents(t *testing.T) {
	// One minimal record so payload offsets are fixed:
	// dpc varint | dtgt varint | kind byte | instrs varint.
	one := []trace.Record{{PC: 8, Target: 16, Kind: trace.Call, Taken: true, Instrs: 5}}
	kindOff, instrsOff := 2, 3
	cases := []struct {
		name string
		f    func(p []byte) []byte
		msg  string
	}{
		{"invalid kind", func(p []byte) []byte { p[kindOff] = 0xff; return p }, "invalid kind byte"},
		{"uncond not-taken", func(p []byte) []byte { p[kindOff] &^= 1; return p }, "marked not-taken"},
		{"non-minimal instrs varint", func(p []byte) []byte {
			return append(p[:instrsOff], p[instrsOff]|0x80, 0x00)
		}, "non-minimal record varint"},
		{"instrs overflow", func(p []byte) []byte {
			// 1<<32 as a uvarint.
			return append(p[:instrsOff], 0x80, 0x80, 0x80, 0x80, 0x10)
		}, "overflows uint32"},
		{"record cut short", func(p []byte) []byte { return p[:instrsOff] }, "ends mid-record"},
		{"trailing payload bytes", func(p []byte) []byte { return append(p, 0x02) }, "undeclared payload bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc, _, _, payOff, crcOff, _ := fixtureFor(t, one)
			in := refixPayloadOf(t, enc, payOff, crcOff, tc.f)
			_, err := decodeBinary(in)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("error %q does not mention %q", err, tc.msg)
			}
		})
	}
}

// fixtureFor is fixture for an arbitrary small record set.
func fixtureFor(t *testing.T, recs []trace.Record) (enc []byte, countOff, lenOff, payOff, crcOff, termOff int) {
	t.Helper()
	enc = encodeBinary(t, recs)
	countOff = 5
	lenOff = countOff + 1
	plen := int(enc[lenOff])
	if enc[countOff] >= 0x80 || plen >= 0x80 {
		t.Fatal("fixture framing is not single-byte varints")
	}
	payOff = lenOff + 1
	crcOff = payOff + plen
	termOff = crcOff + 4
	return
}

// refixPayloadOf rewrites a single-block encoding's payload and refits
// length and CRC.
func refixPayloadOf(t *testing.T, enc []byte, payOff, crcOff int, f func(p []byte) []byte) []byte {
	t.Helper()
	payload := f(append([]byte(nil), enc[payOff:crcOff]...))
	if len(payload) >= 0x80 {
		t.Fatal("mutated payload needs a multi-byte length varint")
	}
	out := append([]byte(nil), enc[:payOff-1]...)
	out = append(out, byte(len(payload)))
	out = append(out, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	out = append(out, crc[:]...)
	out = append(out, 0)
	return out
}

// TestBinaryBitFlipSweep flips every bit of a valid encoding. Each
// flip must either fail decoding or (never, in practice) decode to a
// different record stream — a clean decode to the original bytes would
// mean the flip was silently absorbed.
func TestBinaryBitFlipSweep(t *testing.T) {
	recs := sampleRecords()
	enc := encodeBinary(t, recs)
	for i := 0; i < len(enc); i++ {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), enc...)
			bad[i] ^= 1 << bit
			got, err := decodeBinary(bad)
			if err != nil {
				continue
			}
			if len(got) == len(recs) {
				same := true
				for j := range recs {
					if got[j] != recs[j] {
						same = false
						break
					}
				}
				if same {
					t.Fatalf("flip of byte %d bit %d decoded to the original stream", i, bit)
				}
			}
		}
	}
}

func TestBinaryWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	rec := trace.Record{PC: 1, Target: 2, Kind: trace.CondBranch, Taken: true}
	if err := w.Write(&rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := w.Write(&rec); err == nil {
		t.Fatal("Write after Close accepted")
	}
	for _, bad := range []trace.Record{
		{PC: 1, Target: 2, Kind: trace.Kind(9), Taken: true},
		{PC: 1, Target: 2, Kind: trace.Return, Taken: false},
	} {
		var b bytes.Buffer
		w := NewBinaryWriter(&b)
		if err := w.Write(&bad); err == nil {
			t.Errorf("writer accepted %+v", bad)
		}
	}
}

// TestConvertRoundTrips locks the transcoding bijection: canonical
// text <-> binary preserves the record stream, and text->binary->text
// of a canonical file is byte-exact.
func TestConvertRoundTrips(t *testing.T) {
	recs := sampleRecords()
	var text bytes.Buffer
	if err := WriteAll(&text, FormatText, recs); err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	n, detected, err := Convert(&bin, bytes.NewReader(text.Bytes()), FormatAuto, FormatBinary)
	if err != nil || n != len(recs) || detected != FormatText {
		t.Fatalf("text->binary: n=%d detected=%s err=%v", n, detected, err)
	}
	if want := encodeBinary(t, recs); !bytes.Equal(bin.Bytes(), want) {
		t.Fatal("text->binary differs from direct binary encoding")
	}
	var text2 bytes.Buffer
	if _, _, err := Convert(&text2, bytes.NewReader(bin.Bytes()), FormatAuto, FormatText); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text.Bytes(), text2.Bytes()) {
		t.Fatalf("text->binary->text is not bit-exact:\n%q\nvs\n%q", text.String(), text2.String())
	}
	if _, _, err := Convert(&bin, bytes.NewReader(text.Bytes()), FormatAuto, FormatAuto); err == nil {
		t.Fatal("Convert accepted FormatAuto as output")
	}
}

func TestFingerprint(t *testing.T) {
	recs := sampleRecords()
	a, b := Fingerprint(recs), Fingerprint(recs)
	if a != b || len(a) != 64 {
		t.Fatalf("fingerprint unstable or malformed: %q vs %q", a, b)
	}
	recs[0].Instrs++
	if c := Fingerprint(recs); c == a {
		t.Fatal("fingerprint ignores record contents")
	}
}
