package plot

import (
	"strings"
	"testing"

	"github.com/whisper-sim/whisper/internal/stats"
)

func TestHBarBasics(t *testing.T) {
	out := HBar("chart", []string{"a", "bb"}, []float64{1, 2}, 10)
	if !strings.Contains(out, "chart") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	// The larger value must have a longer bar.
	aBar := strings.Count(lines[1], "█")
	bBar := strings.Count(lines[2], "█")
	if bBar <= aBar {
		t.Fatalf("bars not proportional: a=%d b=%d", aBar, bBar)
	}
	if bBar != 10 {
		t.Fatalf("max bar %d cells, want full width 10", bBar)
	}
	if !strings.Contains(lines[1], "1.00") || !strings.Contains(lines[2], "2.00") {
		t.Fatal("values not annotated")
	}
}

func TestHBarNegativeAxis(t *testing.T) {
	out := HBar("", []string{"pos", "neg"}, []float64{3, -3}, 20)
	if !strings.Contains(out, "│") {
		t.Fatal("zero axis missing with negative values")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Positive bar right of axis, negative bar left of axis.
	pos := lines[0]
	neg := lines[1]
	if strings.Index(pos, "█") < strings.Index(pos, "│") {
		t.Fatalf("positive bar left of axis: %q", pos)
	}
	if strings.Index(neg, "█") > strings.Index(neg, "│") {
		t.Fatalf("negative bar right of axis: %q", neg)
	}
}

func TestHBarMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HBar("", []string{"a"}, []float64{1, 2}, 10)
}

func TestHBarEmptyAndZero(t *testing.T) {
	if out := HBar("t", nil, nil, 10); !strings.Contains(out, "t") {
		t.Fatal("empty chart lost title")
	}
	out := HBar("", []string{"z"}, []float64{0}, 10)
	if strings.Contains(out, "█") {
		t.Fatal("zero value drew a bar")
	}
}

func tbl() *stats.Table {
	t := stats.NewTable("Fig X", "app", "red %", "note")
	t.AddRow("mysql", "15.8", "hello")
	t.AddRow("kafka", "6.7", "world")
	t.AddRow("Avg", "11.2", "")
	return t
}

func TestTableColumn(t *testing.T) {
	out, err := TableColumn(tbl(), 1, false, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mysql") || !strings.Contains(out, "kafka") {
		t.Fatal("labels missing")
	}
	if strings.Contains(out, "Avg") {
		t.Fatal("Avg row not skipped")
	}
	withAvg, err := TableColumn(tbl(), 1, true, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(withAvg, "Avg") {
		t.Fatal("Avg row missing with keepAvg")
	}
}

func TestTableColumnErrors(t *testing.T) {
	if _, err := TableColumn(tbl(), 0, false, 20); err == nil {
		t.Fatal("column 0 accepted")
	}
	if _, err := TableColumn(tbl(), 9, false, 20); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if _, err := TableColumn(tbl(), 2, false, 20); err == nil {
		t.Fatal("non-numeric column accepted")
	}
}

func TestRenderSkipsNonNumeric(t *testing.T) {
	out := Render(tbl(), 20)
	if !strings.Contains(out, "red %") {
		t.Fatal("numeric column missing")
	}
	if strings.Contains(out, "note") {
		t.Fatal("non-numeric column rendered")
	}
}
