package traceio

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/whisper-sim/whisper/internal/trace"
)

// sampleRecords is a small stream exercising every kind, both
// directions, zero and large instruction runs, and backward deltas.
func sampleRecords() []trace.Record {
	return []trace.Record{
		{PC: 0x400010, Target: 0x400070, Kind: trace.CondBranch, Taken: true, Instrs: 5},
		{PC: 0x400070, Target: 0x400088, Kind: trace.CondBranch, Taken: false, Instrs: 0},
		{PC: 0x400090, Target: 0x401000, Kind: trace.Call, Taken: true, Instrs: 3},
		{PC: 0x401040, Target: 0x3f0000, Kind: trace.UncondDirect, Taken: true, Instrs: 12},
		{PC: 0x3f0010, Target: 0x400098, Kind: trace.Return, Taken: true, Instrs: 2},
		{PC: 0x4000a0, Target: 0xdeadbeefcafe, Kind: trace.IndirectJump, Taken: true, Instrs: 1<<32 - 1},
		{PC: 0xdeadbeefcafe, Target: 0x400010, Kind: trace.CondBranch, Taken: true, Instrs: 7},
	}
}

// parseText decodes a text trace from a string.
func parseText(t *testing.T, in string) ([]trace.Record, error) {
	t.Helper()
	r := NewTextReader(strings.NewReader(in))
	var recs []trace.Record
	var rec trace.Record
	for r.Next(&rec) {
		recs = append(recs, rec)
	}
	return recs, r.Err()
}

func TestTextWriterReaderRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteAll(&buf, FormatText, recs); err != nil {
		t.Fatal(err)
	}
	got, detected, err := ReadAll(bytes.NewReader(buf.Bytes()), FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if detected != FormatText {
		t.Fatalf("detected %s, want text", detected)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
	// Canonical: re-encoding the parsed stream reproduces the bytes.
	var buf2 bytes.Buffer
	if err := WriteAll(&buf2, FormatText, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("canonical text not stable:\n%q\nvs\n%q", buf.String(), buf2.String())
	}
}

// TestTextReaderTolerance locks what the importer is lenient about:
// comments, blank lines, flexible whitespace, 0x prefixes, letter case
// and numeric direction flags.
func TestTextReaderTolerance(t *testing.T) {
	in := strings.Join([]string{
		"# an LBR dump, massaged",
		"",
		"0x400010  0x400070   COND t 5",
		"  400070 400088 cond N 0   # trailing comment",
		"\t0X400090\t401000\tCall\t1\t3",
		"401040 3f0000 JMP T 12",
	}, "\n")
	recs, err := parseText(t, in)
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Record{
		{PC: 0x400010, Target: 0x400070, Kind: trace.CondBranch, Taken: true, Instrs: 5},
		{PC: 0x400070, Target: 0x400088, Kind: trace.CondBranch, Taken: false, Instrs: 0},
		{PC: 0x400090, Target: 0x401000, Kind: trace.Call, Taken: true, Instrs: 3},
		{PC: 0x401040, Target: 0x3f0000, Kind: trace.UncondDirect, Taken: true, Instrs: 12},
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, recs[i], want[i])
		}
	}
}

// TestTextReaderErrors is the table-driven error-path suite: every
// malformed record must stop the stream with a message carrying the
// exact 1-based line number of the offending line.
func TestTextReaderErrors(t *testing.T) {
	const good = "400010 400070 cond T 5\n"
	cases := []struct {
		name string
		in   string
		want string // substring of the error, including "line N"
	}{
		{"bad field count short", good + "400070 400088 cond\n", "line 2: record has 3 fields, want 5"},
		{"bad field count long", good + "400070 400088 cond N 0 extra\n", "line 2: record has 6 fields, want 5"},
		{"mid-stream truncation", good + good + "4000", "line 3: record has 1 fields, want 5"},
		{"non-hex from PC", "40zz10 400070 cond T 5\n", "line 1: bad from PC \"40zz10\""},
		{"non-hex target PC", good + "400070 0xnope cond T 5\n", "line 2: bad target PC \"0xnope\""},
		{"empty hex", "0x 400070 cond T 5\n", "line 1: bad from PC"},
		{"hex overflow", "1ffffffffffffffff 400070 cond T 5\n", "line 1: bad from PC"},
		{"unknown branch kind", good + "400070 400088 branch T 5\n", "line 2: unknown branch kind \"branch\""},
		{"bad taken flag", "400010 400070 cond maybe 5\n", "line 1: bad taken flag \"maybe\""},
		{"not-taken call", good + "400090 401000 call N 3\n", "line 2: call branch marked not-taken"},
		{"not-taken return", "3f0010 400098 ret 0 2\n", "line 1: ret branch marked not-taken"},
		{"bad instrs", "400010 400070 cond T five\n", "line 1: bad instruction count \"five\""},
		{"instrs overflow", "400010 400070 cond T 4294967296\n", "line 1: bad instruction count"},
		{"negative instrs", "400010 400070 cond T -1\n", "line 1: bad instruction count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, err := parseText(t, tc.in)
			if err == nil {
				t.Fatalf("accepted %q (%d records)", tc.in, len(recs))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %T is not a *ParseError", err)
			}
		})
	}
}

// TestTextErrorLineCountsComments: line numbers refer to physical input
// lines, comments and blanks included.
func TestTextErrorLineCountsComments(t *testing.T) {
	in := "# header\n\n400010 400070 cond T 5\n# note\nbogus line here broke it\n"
	_, err := parseText(t, in)
	if err == nil || !strings.Contains(err.Error(), "line 5:") {
		t.Fatalf("want a line 5 error, got %v", err)
	}
}

// TestTextReaderStopsAtError: records before the bad line are
// delivered, nothing after it is.
func TestTextReaderStopsAtError(t *testing.T) {
	in := "400010 400070 cond T 5\nbroken\n400090 401000 call T 3\n"
	recs, err := parseText(t, in)
	if err == nil {
		t.Fatal("want error")
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records before the error, want 1", len(recs))
	}
}

// TestTextWriterRejectsInvalid: the canonical writer refuses records
// the readers would reject, keeping the formats' valid ranges aligned.
func TestTextWriterRejectsInvalid(t *testing.T) {
	for _, rec := range []trace.Record{
		{PC: 1, Target: 2, Kind: trace.Kind(9), Taken: true},
		{PC: 1, Target: 2, Kind: trace.Call, Taken: false},
	} {
		var buf bytes.Buffer
		w := NewTextWriter(&buf)
		if err := w.Write(&rec); err == nil {
			t.Errorf("writer accepted %+v", rec)
		}
	}
}

// TestTextEmptyInputs: empty and comment-only files decode to zero
// records without error (CLI layers reject empty traces themselves).
func TestTextEmptyInputs(t *testing.T) {
	for _, in := range []string{"", "\n\n", "# nothing here\n", "   \n# x"} {
		recs, err := parseText(t, in)
		if err != nil || len(recs) != 0 {
			t.Fatalf("%q: got %d records, err %v", in, len(recs), err)
		}
	}
}

func TestParseFormat(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Format
		ok   bool
	}{
		{"auto", FormatAuto, true}, {"", FormatAuto, true},
		{"text", FormatText, true}, {"txt", FormatText, true},
		{"binary", FormatBinary, true}, {"wspt", FormatBinary, true}, {"bin", FormatBinary, true},
		{"wbt", 0, false}, {"protobuf", 0, false},
	} {
		got, err := ParseFormat(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseFormat(%q) accepted", tc.in)
		}
	}
}
