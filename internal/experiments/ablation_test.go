package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestIOLatencyTradeoffMonotone(t *testing.T) {
	tb := IOLatency()
	if tb.Rows() != 4 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	// Parse Q and L columns: as a grows, Q falls and L rises — the §6.3
	// trade-off. (Columns: a, b, Q, L.)
	var prevQ, prevL float64
	for i, f := range rowFields(t, tb) {
		q, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		l, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if q > prevQ*1.0001 {
				t.Fatalf("Q not non-increasing in a: %v then %v", prevQ, q)
			}
			if l < prevL*0.999 {
				t.Fatalf("L not non-decreasing in a: %v then %v", prevL, l)
			}
		}
		prevQ, prevL = q, l
	}
}

func TestDeltaAblationImprovesUnfavorableCounts(t *testing.T) {
	tb := DeltaAblation()
	if tb.Rows() != 12 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	// For every p block, the δ=10% row must be at least as good as δ=0.
	rows := rowFields(t, tb)
	for i := 0; i < len(rows); i += 4 {
		last := rows[i+3]
		ratio, err := strconv.ParseFloat(last[len(last)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio > 1.0001 {
			t.Fatalf("δ=10%% worse than δ=0: %v", last)
		}
	}
}

func TestStepAblationRows(t *testing.T) {
	tb := StepAblation()
	if tb.Rows() != 4 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	if !strings.Contains(tb.String(), "true") {
		t.Fatal("the optimal step must fit in memory")
	}
}
