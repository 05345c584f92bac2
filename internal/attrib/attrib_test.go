package attrib

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	c.Observe(0x40, true, true) // must not panic
	if c.Len() != 0 || c.Capacity() != 0 {
		t.Fatalf("nil collector reports state: len=%d cap=%d", c.Len(), c.Capacity())
	}
	if _, ok := c.Lookup(0x40); ok {
		t.Fatal("nil collector Lookup returned ok")
	}
	if got := c.Ranked(); got != nil {
		t.Fatalf("nil collector Ranked = %v", got)
	}
}

func TestObserveCounts(t *testing.T) {
	c := NewCollector(0)
	if c.Capacity() != DefaultCapacity {
		t.Fatalf("default capacity = %d, want %d", c.Capacity(), DefaultCapacity)
	}
	c.Observe(0x10, true, true)
	c.Observe(0x10, true, false)
	c.Observe(0x10, false, true)
	c.Observe(0x20, false, false)

	if c.CondExecs != 4 || c.CondMisp != 2 {
		t.Fatalf("totals = %d execs %d misp, want 4/2", c.CondExecs, c.CondMisp)
	}
	b, ok := c.Lookup(0x10)
	if !ok || b.Execs != 3 || b.Taken != 2 || b.Misp != 2 {
		t.Fatalf("0x10 = %+v ok=%v, want {3 2 2} true", b, ok)
	}
	if got := b.MispRate(); got != 2.0/3.0 {
		t.Fatalf("MispRate = %v", got)
	}
	if (&Branch{}).MispRate() != 0 {
		t.Fatal("empty MispRate != 0")
	}
}

func TestOverflowDropNew(t *testing.T) {
	c := NewCollector(2)
	c.Observe(0x10, true, true)
	c.Observe(0x20, true, false)
	c.Observe(0x30, false, true) // over capacity: folds into overflow
	c.Observe(0x30, true, true)
	c.Observe(0x10, true, false) // existing PC still tracked exactly

	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, ok := c.Lookup(0x30); ok {
		t.Fatal("overflowed PC tracked exactly")
	}
	if c.Overflow.Execs != 2 || c.Overflow.Taken != 1 || c.Overflow.Misp != 2 {
		t.Fatalf("overflow = %+v", c.Overflow)
	}
	if c.OverflowPCs != 2 {
		t.Fatalf("overflow PCs = %d, want 2 (not deduplicated)", c.OverflowPCs)
	}
	// Totals still see everything.
	if c.CondExecs != 5 || c.CondMisp != 3 {
		t.Fatalf("totals = %d/%d, want 5/3", c.CondExecs, c.CondMisp)
	}
}

func TestRankedOrder(t *testing.T) {
	c := NewCollector(0)
	// 0x30: 2 misp; 0x10 and 0x20: 1 misp each, 0x20 more execs.
	c.Observe(0x30, true, true)
	c.Observe(0x30, true, true)
	c.Observe(0x10, true, true)
	c.Observe(0x20, true, true)
	c.Observe(0x20, false, false)
	c.Observe(0x40, false, false) // 0 misp, sorts last

	want := []uint64{0x30, 0x20, 0x10, 0x40}
	rows := c.Ranked()
	if len(rows) != len(want) {
		t.Fatalf("ranked %d rows, want %d", len(rows), len(want))
	}
	for i, pc := range want {
		if rows[i].PC != pc {
			t.Fatalf("rank %d = %#x, want %#x (rows %+v)", i, rows[i].PC, pc, rows)
		}
	}
	if top := c.TopK(2); len(top) != 2 || top[0].PC != 0x30 || top[1].PC != 0x20 {
		t.Fatalf("TopK(2) = %+v", top)
	}
	if got := c.TopK(0); len(got) != 4 {
		t.Fatalf("TopK(0) = %d rows, want all", len(got))
	}
}

func buildReport(t *testing.T) *Report {
	t.Helper()
	base := NewCollector(0)
	whisper := NewCollector(0)
	// 0x100: hot, hinted, improved. 0x200: unhinted. 0x300: hinted, dead.
	for i := 0; i < 10; i++ {
		base.Observe(0x100, i%2 == 0, i < 8)
		whisper.Observe(0x100, i%2 == 0, i < 2)
	}
	for i := 0; i < 6; i++ {
		base.Observe(0x200, true, i < 3)
		whisper.Observe(0x200, true, i < 3)
	}
	return Build(Inputs{
		Workload:      "unit",
		Fingerprint:   "deadbeef",
		Records:       16,
		Instrs:        1600,
		WarmupRecords: 4,
		BaselineName:  "tage64",
		WhisperName:   "whisper",
		Base:          base,
		Whisper:       whisper,
		HintedPCs:     []uint64{0x100, 0x300},
		Trained:       3,
		Placed:        2,
		Dropped:       1,
		Classes:       map[uint64]string{0x100: "capacity"},
		TopN:          10,
	})
}

func TestBuildReport(t *testing.T) {
	r := buildReport(t)
	if r.Schema != ReportSchema || r.Workload != "unit" {
		t.Fatalf("header = %+v", r)
	}
	if r.Baseline.CondMisp != 11 || r.Whisper.CondMisp != 5 {
		t.Fatalf("summaries = %+v / %+v", r.Baseline, r.Whisper)
	}
	if r.Baseline.MPKI != 6.875 {
		t.Fatalf("baseline MPKI = %v", r.Baseline.MPKI)
	}
	if len(r.Branches) != 2 || r.Branches[0].PC != "0x00000100" {
		t.Fatalf("branches = %+v", r.Branches)
	}
	b0 := r.Branches[0]
	if b0.BaseMisp != 8 || b0.WhisperMisp != 2 || !b0.Hinted || b0.Class != "capacity" {
		t.Fatalf("top branch = %+v", b0)
	}
	if r.Branches[1].Hinted || r.Branches[1].Class != "" {
		t.Fatalf("second branch = %+v", r.Branches[1])
	}
	if r.TopShare != 100 {
		t.Fatalf("top share = %v", r.TopShare)
	}

	hs := r.HintStats
	if hs.Trained != 3 || hs.Placed != 2 || hs.Dropped != 1 {
		t.Fatalf("hint program = %+v", hs)
	}
	if hs.CoveredPCs != 2 || hs.LivePCs != 1 || hs.DeadPCs != 1 {
		t.Fatalf("coverage = %+v", hs)
	}
	if hs.Corrected != 6 || hs.Regressed != 0 || hs.BaseMispCovered != 8 {
		t.Fatalf("effectiveness = %+v", hs)
	}
	if len(hs.Hints) != 2 || hs.Hints[0].PC != "0x00000100" || !hs.Hints[1].Dead {
		t.Fatalf("scoreboard = %+v", hs.Hints)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := buildReport(t)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("report JSON invalid")
	}
	got, err := DecodeReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := got.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("decode→re-encode not byte-identical:\n%s\nvs\n%s", buf.Bytes(), buf2.Bytes())
	}
}

func TestDecodeReportErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"bad json", "{"},
		{"future schema", `{"schema": 99, "workload": "x"}`},
		{"zero schema", `{"workload": "x"}`},
		{"no workload", `{"schema": 1}`},
	}
	for _, tc := range cases {
		if _, err := DecodeReport([]byte(tc.in)); err == nil {
			t.Errorf("%s: DecodeReport accepted %q", tc.name, tc.in)
		}
	}
}

func TestReportRendering(t *testing.T) {
	r := buildReport(t)
	var buf bytes.Buffer
	r.SummaryLines(&buf)
	out := buf.String()
	for _, want := range []string{
		"workload unit: 16 records, 1600 instructions (4 warm-up records)",
		"trace fingerprint deadbeef",
		"MPKI 6.875",
		"reduction 54.5%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	bt := r.BranchTable().String()
	for _, want := range []string{"0x00000100", "capacity", "yes"} {
		if !strings.Contains(bt, want) {
			t.Errorf("branch table missing %q:\n%s", want, bt)
		}
	}
	ht := r.HintTable().String()
	for _, want := range []string{"0x00000100", "live", "dead", "coverage"} {
		if !strings.Contains(ht, want) {
			t.Errorf("hint table missing %q:\n%s", want, ht)
		}
	}
}
