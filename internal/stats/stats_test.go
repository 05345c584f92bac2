package stats

import (
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "app", "mpki")
	tb.AddRow("mysql", "4.5")
	tb.AddRow("kafka", "0.5")
	out := tb.String()
	for _, want := range []string{"Fig X", "app", "mpki", "mysql", "4.5", "kafka"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("t", "a", "b", "c")
	tb.AddRow("x")
	if len(tb.Rows[0]) != 3 {
		t.Fatalf("row not padded: %v", tb.Rows[0])
	}
}

func TestTableRowTooLongPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb := NewTable("t", "a")
	tb.AddRow("x", "y")
}

func TestTableCSVQuoting(t *testing.T) {
	tb := NewTable("t", "name", "val")
	tb.AddRow(`has "quote"`, "a,b")
	csv := tb.CSV()
	if !strings.Contains(csv, `"has ""quote"""`) {
		t.Fatalf("bad quote escaping: %s", csv)
	}
	if !strings.Contains(csv, `"a,b"`) {
		t.Fatalf("bad comma quoting: %s", csv)
	}
}

func TestFormatFloatNegativeZero(t *testing.T) {
	if got := FormatFloat(-0.0001, 1); got != "0.0" {
		t.Fatalf("FormatFloat(-0.0001, 1) = %q", got)
	}
}
