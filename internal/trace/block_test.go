package trace

import "testing"

func sampleRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			PC:     0x4000 + uint64(i)*4,
			Target: 0x8000 + uint64(i)*8,
			Kind:   Kind(i % 5),
			Taken:  i%3 == 0,
			Instrs: uint32(i % 11),
		}
	}
	return recs
}

func TestBlockRoundTrip(t *testing.T) {
	b := NewBlock(8)
	if b.Cap() != 8 {
		t.Fatalf("cap %d", b.Cap())
	}
	recs := sampleRecords(8)
	for i := range recs {
		b.Append(&recs[i])
	}
	if b.N != 8 {
		t.Fatalf("N %d", b.N)
	}
	var rec Record
	for i := range recs {
		b.Record(i, &rec)
		if rec != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, rec, recs[i])
		}
	}
	got := b.Records()
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("Records()[%d] mismatch", i)
		}
	}
	b.Reset()
	if b.N != 0 {
		t.Fatal("reset")
	}
}

func TestNewBlockDefaultsSize(t *testing.T) {
	if got := NewBlock(0).Cap(); got != DefaultBlockSize {
		t.Fatalf("cap %d != %d", got, DefaultBlockSize)
	}
	if got := NewBlock(-5).Cap(); got != DefaultBlockSize {
		t.Fatalf("cap %d != %d", got, DefaultBlockSize)
	}
}

// TestFillDrainsStream checks the generic Next-based Fill path,
// including the partial tail block.
func TestFillDrainsStream(t *testing.T) {
	recs := sampleRecords(25)
	s := NewSliceStream(recs)
	b := NewBlock(7)
	var got []Record
	for Fill(s, b) > 0 {
		got = append(got, b.Records()...)
	}
	if len(got) != len(recs) {
		t.Fatalf("drained %d of %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// fillerStream exercises the BlockFiller delegation path.
type fillerStream struct {
	recs []Record
	pos  int
}

func (f *fillerStream) Next(rec *Record) bool {
	if f.pos >= len(f.recs) {
		return false
	}
	*rec = f.recs[f.pos]
	f.pos++
	return true
}

func (f *fillerStream) FillBlock(b *Block) int {
	b.Reset()
	for f.pos < len(f.recs) && b.N < b.Cap() {
		b.Append(&f.recs[f.pos])
		f.pos++
	}
	return b.N
}

func TestFillUsesBlockFiller(t *testing.T) {
	recs := sampleRecords(10)
	f := &fillerStream{recs: recs}
	b := NewBlock(4)
	var got []Record
	for Fill(f, b) > 0 {
		got = append(got, b.Records()...)
	}
	if len(got) != len(recs) {
		t.Fatalf("drained %d of %d", len(got), len(recs))
	}
}

// TestSetCapBoundsFill: after SetCap(n) a fill loads at most n records
// on both fill paths, and SetCap back to the allocated size restores
// whole blocks, with no record lost or repeated across the cuts.
func TestSetCapBoundsFill(t *testing.T) {
	recs := sampleRecords(30)
	for name, s := range map[string]Stream{
		"next":   NewSliceStream(recs),
		"filler": &fillerStream{recs: recs},
	} {
		b := NewBlock(8)
		var got []Record
		for _, n := range []int{3, 8, 1, 8, 8, 8} {
			b.SetCap(n)
			if b.Cap() != n {
				t.Fatalf("%s: cap %d after SetCap(%d)", name, b.Cap(), n)
			}
			if filled := Fill(s, b); filled > n {
				t.Fatalf("%s: filled %d records into a block of %d", name, filled, n)
			}
			got = append(got, b.Records()...)
		}
		if len(got) != len(recs) {
			t.Fatalf("%s: drained %d of %d", name, len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("%s: record %d mismatch", name, i)
			}
		}
	}
}
