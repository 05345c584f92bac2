package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/hint"
	"github.com/whisper-sim/whisper/internal/profiler"
)

// testProfile builds a small but fully-populated profile covering every
// encoded field: plain stats, hard branches with non-trivial histograms,
// and totals.
func testProfile() *profiler.Profile {
	p := &profiler.Profile{
		Lengths:   []int{8, 16, 64},
		Stats:     map[uint64]*profiler.BranchStats{},
		Hard:      map[uint64]*profiler.HardProfile{},
		Records:   60000,
		Instrs:    345678,
		CondExecs: 23456,
		Mispreds:  1234,
	}
	p.Stats[0x401000] = &profiler.BranchStats{Execs: 100, Misp: 7, Taken: 60}
	p.Stats[0x401080] = &profiler.BranchStats{Execs: 4000, Misp: 900, Taken: 2100}
	p.Stats[0xffffffffffff0000] = &profiler.BranchStats{Execs: 1, Misp: 1, Taken: 0}
	for _, pc := range []uint64{0x401080, 0x77018843} {
		hp := &profiler.HardProfile{
			PC:        pc,
			T:         make([][256]uint32, 3),
			NT:        make([][256]uint32, 3),
			VT:        make([][256]uint32, 3),
			VNT:       make([][256]uint32, 3),
			Execs:     4000,
			Misp:      900,
			MeasExecs: 3990,
			MispMeas:  890,
			MispVal:   440,
		}
		for i := 0; i < 3; i++ {
			hp.T[i][0] = 5
			hp.T[i][17] = uint32(pc % 97)
			hp.NT[i][255] = math.MaxUint32
			hp.VT[i][128] = 1
			// VNT[i] stays all-zero: the all-zero histogram is its own
			// interesting RLE case.
		}
		p.Hard[pc] = hp
	}
	return p
}

func testTrain() *core.TrainResult {
	params := core.DefaultParams()
	params.ExploreFraction = 0.2
	return &core.TrainResult{
		Hints: map[uint64]core.Hint{
			0x401080: {PC: 0x401080, LengthIdx: 2, Formula: 0x7abc, Bias: hint.BiasNone,
				ProfiledMisp: 120, BaselineMisp: 900, ValMisp: 70},
			0x77018843: {PC: 0x77018843, Bias: hint.BiasTaken,
				ProfiledMisp: 0, BaselineMisp: 55, ValMisp: 0},
		},
		Params:       params,
		Lengths:      []int{8, 16, 64},
		Trained:      2,
		Duration:     1234567 * time.Nanosecond,
		FormulaEvals: 98765,
	}
}

func testArtifact() *Artifact {
	return &Artifact{
		Meta:         Meta{App: "mysql", Input: 3, Records: 60000, Key: "profile|v1|test"},
		Profile:      testProfile(),
		Train:        testTrain(),
		WindowInstrs: 345678,
	}
}

// TestRoundTrip checks Decode(Encode(a)) is a and the bytes are stable.
func TestRoundTrip(t *testing.T) {
	for name, a := range map[string]*Artifact{
		"full":         testArtifact(),
		"profile-only": {Meta: Meta{App: "kafka"}, Profile: testProfile()},
		"train-only":   {Meta: Meta{App: "nginx", Records: 1}, Train: testTrain(), WindowInstrs: 7},
		"meta-only":    {Meta: Meta{App: "", Input: 0, Records: 0, Key: "k"}},
		"empty-maps": {Meta: Meta{App: "x"}, Profile: &profiler.Profile{
			Lengths: []int{8},
			Stats:   map[uint64]*profiler.BranchStats{},
			Hard:    map[uint64]*profiler.HardProfile{},
		}},
	} {
		t.Run(name, func(t *testing.T) {
			data, err := Encode(a)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got, err := Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(got, a) {
				t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, a)
			}
			again, err := Encode(got)
			if err != nil {
				t.Fatalf("re-Encode: %v", err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("re-encode differs: %d vs %d bytes", len(data), len(again))
			}
		})
	}
}

func TestFileRoundTrip(t *testing.T) {
	a := testArtifact()
	path := filepath.Join(t.TempDir(), "artifact.wspa")
	if err := WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Fatal("file round trip mismatch")
	}
	// No temp residue after the atomic rename.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("expected 1 file in dir, found %d", len(ents))
	}
}

// TestTypedErrors feeds the reader systematic mutations of a valid file
// (the same shapes the fuzzer generates) and checks each is rejected
// with the right sentinel.
func TestTypedErrors(t *testing.T) {
	valid, err := Encode(testArtifact())
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return f(b)
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short-header", valid[:5], ErrTruncated},
		{"bad-magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), ErrBadMagic},
		{"future-version", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], FormatVersion+1)
			return b
		}), ErrVersion},
		{"version-zero", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], 0)
			return b
		}), ErrVersion},
		{"truncated-mid-section", valid[:len(valid)/2], ErrTruncated},
		{"truncated-by-one", valid[:len(valid)-1], ErrTruncated},
		{"payload-bitflip", mutate(func(b []byte) []byte { b[20] ^= 0x40; return b }), ErrCorrupt},
		{"crc-bitflip", mutate(func(b []byte) []byte { b[len(b)-1] ^= 1; return b }), ErrCorrupt},
		{"trailing-garbage", append(append([]byte(nil), valid...), 0xAA), ErrCorrupt},
		{"zero-sections", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[6:8], 0)
			return b
		}), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Decode => %v, want %v", err, tc.want)
			}
		})
	}
}

// TestSectionOrderRejected ensures a structurally-valid file with its
// sections swapped is rejected: within a version there is exactly one
// encoding of every artifact.
func TestSectionOrderRejected(t *testing.T) {
	a := testArtifact()
	data, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the sections and rebuild the file with PROF and HINT swapped.
	type sec struct{ raw []byte }
	var secs []sec
	off := 8
	for off < len(data) {
		size := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		end := off + 8 + size + 4
		secs = append(secs, sec{raw: data[off:end]})
		off = end
	}
	if len(secs) != 3 {
		t.Fatalf("expected 3 sections, got %d", len(secs))
	}
	swapped := append([]byte(nil), data[:8]...)
	swapped = append(swapped, secs[0].raw...)
	swapped = append(swapped, secs[2].raw...)
	swapped = append(swapped, secs[1].raw...)
	if _, err := Decode(swapped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("swapped sections => %v, want ErrCorrupt", err)
	}
	// A file that leads with a non-META section is also rejected.
	noMeta := append([]byte(nil), data[:8]...)
	binary.LittleEndian.PutUint16(noMeta[6:8], 2)
	noMeta = append(noMeta, secs[1].raw...)
	noMeta = append(noMeta, secs[2].raw...)
	if _, err := Decode(noMeta); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing META => %v, want ErrCorrupt", err)
	}
}

// TestOverlongSectionTruncated: a section header that claims the
// largest allowed payload, followed by a few bytes, is ErrTruncated,
// and Decode allocates nothing for the bytes it claims.
func TestOverlongSectionTruncated(t *testing.T) {
	data := binary.LittleEndian.AppendUint32([]byte("WSPA\x01\x00\x01\x00META"), maxSectionBytes)
	data = append(data, 1, 2, 3, 4, 5)
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		if _, err := Decode(data); !errors.Is(err, ErrTruncated) {
			t.Fatalf("Decode => %v, want ErrTruncated", err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > 4096 {
		t.Fatalf("Decode allocated %d bytes per call for a %d-byte claim", perCall, maxSectionBytes)
	}
}

// TestNonMinimalVarintRejected hand-crafts a META section whose Input
// field uses a padded two-byte varint for a one-byte value.
func TestNonMinimalVarintRejected(t *testing.T) {
	// Canonical META: app "", input 3, records 0, key "".
	payload := []byte{0, 3, 0, 0}
	bad := []byte{0, 0x83, 0x00, 0, 0} // 3 encoded as 0x83 0x00
	for _, tc := range []struct {
		payload []byte
		wantErr bool
	}{{payload, false}, {bad, true}} {
		var file []byte
		file = append(file, fileMagic[:]...)
		file = binary.LittleEndian.AppendUint16(file, FormatVersion)
		file = binary.LittleEndian.AppendUint16(file, 1)
		file = append(file, secMeta[:]...)
		file = binary.LittleEndian.AppendUint32(file, uint32(len(tc.payload)))
		file = append(file, tc.payload...)
		file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(tc.payload))
		_, err := Decode(file)
		if tc.wantErr && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("padded varint => %v, want ErrCorrupt", err)
		}
		if !tc.wantErr && err != nil {
			t.Fatalf("canonical payload rejected: %v", err)
		}
	}
}

func TestFingerprint(t *testing.T) {
	p := testProfile()
	f1, err := Fingerprint(p)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Fingerprint(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("fingerprint not deterministic")
	}
	p.Hard[0x401080].T[0][3]++
	f3, err := Fingerprint(p)
	if err != nil {
		t.Fatal(err)
	}
	if f3 == f1 {
		t.Fatal("fingerprint ignores histogram content")
	}
}

// TestCache exercises the load/save flows, hit/miss accounting, and the
// corrupt-entry fallback.
func TestCache(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LoadProfile("k1"); ok {
		t.Fatal("hit on empty cache")
	}
	prof := testProfile()
	if err := c.SaveProfile("k1", Meta{App: "mysql", Input: 0, Records: 60000}, prof); err != nil {
		t.Fatal(err)
	}
	got, ok := c.LoadProfile("k1")
	if !ok {
		t.Fatal("miss after save")
	}
	if !reflect.DeepEqual(got, prof) {
		t.Fatal("cached profile differs")
	}
	// Different key: miss, even though a file exists.
	if _, ok := c.LoadProfile("k2"); ok {
		t.Fatal("hit for unsaved key")
	}

	tr := testTrain()
	if err := c.SaveTrain("t1", Meta{App: "mysql"}, tr, 345678); err != nil {
		t.Fatal(err)
	}
	gtr, ok := c.LoadTrain("t1")
	if !ok {
		t.Fatal("train miss after save")
	}
	if !reflect.DeepEqual(gtr, tr) {
		t.Fatal("cached train result differs")
	}

	st := c.Stats()
	if st.ProfileHits != 1 || st.ProfileMisses != 2 || st.TrainHits != 1 || st.TrainMisses != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}

	// Corrupt the profile entry on disk: the next load must miss,
	// count a rejection, and remove the bad file.
	path := c.path("profile", "k1")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LoadProfile("k1"); ok {
		t.Fatal("hit on corrupt entry")
	}
	if c.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", c.Stats().Rejected)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt entry not removed")
	}

	// A future-version entry is a miss but is left in place.
	if err := c.SaveProfile("k3", Meta{}, prof); err != nil {
		t.Fatal(err)
	}
	p3 := c.path("profile", "k3")
	data, err = os.ReadFile(p3)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(data[4:6], FormatVersion+1)
	if err := os.WriteFile(p3, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LoadProfile("k3"); ok {
		t.Fatal("hit on future-version entry")
	}
	if _, err := os.Stat(p3); err != nil {
		t.Fatal("future-version entry should not be deleted")
	}
}

func TestOpenCacheEmptyDir(t *testing.T) {
	if _, err := OpenCache(""); err == nil {
		t.Fatal("OpenCache(\"\") should fail")
	}
}
