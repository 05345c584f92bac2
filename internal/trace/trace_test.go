package trace

import (
	"testing"

	"github.com/whisper-sim/whisper/internal/xrand"
)

func randomRecords(seed uint64, n int) []Record {
	r := xrand.New(seed)
	recs := make([]Record, n)
	pc := uint64(0x400000)
	for i := range recs {
		pc += uint64(4 * (1 + r.Intn(32)))
		recs[i] = Record{
			PC:     pc,
			Target: pc + uint64(int64(r.Intn(8192))-4096),
			Kind:   Kind(r.Intn(int(numKinds))),
			Taken:  r.Bool(0.6),
			Instrs: uint32(r.Intn(64)),
		}
	}
	return recs
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		CondBranch: "cond", UncondDirect: "jmp", Call: "call",
		Return: "ret", IndirectJump: "ijmp",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Fatal("unknown kind string")
	}
	if Kind(99).Valid() {
		t.Fatal("Kind(99) should be invalid")
	}
}

func TestSliceStream(t *testing.T) {
	recs := randomRecords(1, 10)
	s := NewSliceStream(recs)
	got := Collect(s, 0)
	if len(got) != 10 {
		t.Fatalf("collected %d records", len(got))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	var r Record
	if s.Next(&r) {
		t.Fatal("stream not exhausted")
	}
	s.Reset()
	if !s.Next(&r) || r != recs[0] {
		t.Fatal("Reset did not rewind")
	}
}

func TestCollectMax(t *testing.T) {
	s := NewSliceStream(randomRecords(2, 100))
	if got := Collect(s, 7); len(got) != 7 {
		t.Fatalf("Collect(7) returned %d", len(got))
	}
}
