package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// FuzzDecode is the codec's safety net: arbitrary bytes must never
// panic, every failure must carry one of the typed sentinels, and —
// because the encoding is canonical — every successful decode must
// re-encode to exactly the input bytes.
func FuzzDecode(f *testing.F) {
	seed := func(a *Artifact) {
		data, err := Encode(a)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed(testArtifact())
	seed(&Artifact{Meta: Meta{App: "kafka", Input: 1, Records: 42, Key: "k"}})
	seed(&Artifact{Meta: Meta{App: "nginx"}, Train: testTrain(), WindowInstrs: 99})
	f.Add([]byte{})
	f.Add([]byte("WSPA"))
	f.Add([]byte("WSPA\x01\x00\x01\x00META\x00\x00\x00\x00"))
	// A META-only artifact (App "", Records 0, Key "") whose Input is a
	// ten-byte varint ending in 0x00, under a valid CRC: a non-minimal
	// encoding of 0 that must be refused, not decoded into an artifact
	// that re-encodes shorter.
	padded := []byte{0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 0x00, 0x00}
	raw := binary.LittleEndian.AppendUint32([]byte("WSPA\x01\x00\x01\x00META"), uint32(len(padded)))
	f.Add(binary.LittleEndian.AppendUint32(append(raw, padded...), crc32.ChecksumIEEE(padded)))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		again, err := Encode(a)
		if err != nil {
			t.Fatalf("decoded artifact fails to encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decode/encode not identity:\nin  %x\nout %x", data, again)
		}
	})
}
