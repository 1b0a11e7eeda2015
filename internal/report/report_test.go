package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("short", 1)
	tb.AddRow("a-much-longer-name", 23456)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d, want 2", tb.Rows())
	}
	if !strings.HasPrefix(lines[0], "demo") {
		t.Fatalf("missing title: %q", lines[0])
	}
	// Columns align: "value" header starts at the same offset as 1.
	hIdx := strings.Index(lines[1], "value")
	rIdx := strings.Index(lines[3], "1")
	if hIdx != rIdx {
		t.Fatalf("misaligned columns: header at %d, row at %d\n%s", hIdx, rIdx, out)
	}
}

func TestFloatFormatting(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{3.14159, "3.142"},
		{12345, "12345"},
		{1.5e9, "1.5e+09"},
		{0.0001, "0.0001"},
	}
	for _, c := range cases {
		if got := formatFloat(c.v); got != c.want {
			t.Fatalf("formatFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestEmptyTable(t *testing.T) {
	tb := NewTable("empty", "a")
	out := tb.String()
	if !strings.Contains(out, "a") {
		t.Fatalf("missing header: %q", out)
	}
}
