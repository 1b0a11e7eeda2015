package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/machine"
	"cosma/internal/report"
	"cosma/internal/workload"
)

func TestCommVolumeCOSMAWinsEverywhere(t *testing.T) {
	// The paper's headline: COSMA communicates least in ALL 12 scenarios.
	for _, shape := range []workload.Shape{workload.Square, workload.LargeK, workload.LargeM, workload.Flat} {
		for _, regime := range []workload.Regime{workload.StrongScaling, workload.LimitedMemory, workload.ExtraMemory} {
			for _, p := range workload.CoreCounts() {
				c := workload.Generate(shape, regime, p)
				if !feasible(c) {
					continue
				}
				var cosma float64
				best := -1.0
				for i, r := range Runners() {
					v := perUsedRecv(r.Model(c.M, c.N, c.K, c.P, c.S), c.P)
					if i == 0 {
						cosma = v
						continue
					}
					if best < 0 || v < best {
						best = v
					}
				}
				if cosma > best*1.02 {
					t.Errorf("%v: COSMA %.3g words/rank worse than best baseline %.3g", c, cosma, best)
				}
			}
		}
	}
}

func TestCommVolumeTablesNonEmpty(t *testing.T) {
	for _, shape := range []workload.Shape{workload.Square, workload.LargeK, workload.LargeM, workload.Flat} {
		for _, regime := range []workload.Regime{workload.StrongScaling, workload.LimitedMemory, workload.ExtraMemory} {
			tb := CommVolume(shape, regime)
			if tb.Rows() == 0 {
				t.Errorf("%v/%v: empty table", shape, regime)
			}
		}
	}
}

func TestTable4CompleteAndCOSMAWins(t *testing.T) {
	tb := Table4()
	if tb.Rows() != 12 {
		t.Fatalf("Table 4 has %d rows, want 12", tb.Rows())
	}
	out := tb.String()
	if !strings.Contains(out, "square") || !strings.Contains(out, "largeK") {
		t.Fatalf("missing shapes:\n%s", out)
	}
}

func TestTable3HasThreeTables(t *testing.T) {
	tabs := Table3()
	if len(tabs) != 3 {
		t.Fatalf("Table3 returned %d tables", len(tabs))
	}
	for _, tb := range tabs {
		if tb.Rows() != 4 {
			t.Fatalf("table %q has %d rows", tb.Title, tb.Rows())
		}
	}
}

func TestFig3ShowsReduction(t *testing.T) {
	out := Fig3().String()
	if !strings.Contains(out, "COSMA") || !strings.Contains(out, "3D") {
		t.Fatalf("Fig3 table malformed:\n%s", out)
	}
}

func TestFig5ShowsIdleRankWin(t *testing.T) {
	tb := Fig5()
	if tb.Rows() != 2 {
		t.Fatalf("Fig5 rows = %d", tb.Rows())
	}
	if !strings.Contains(tb.String(), "4×4×4") {
		t.Fatalf("Fig5 should fit [4×4×4]:\n%s", tb.String())
	}
}

func TestSeqIORatiosApproachOne(t *testing.T) {
	tb := SeqIO()
	if tb.Rows() != 5 {
		t.Fatalf("SeqIO rows = %d", tb.Rows())
	}
}

func TestFig12AndFig13NonEmpty(t *testing.T) {
	if Fig12().Rows() == 0 {
		t.Fatal("Fig12 empty")
	}
	if Fig13().Rows() == 0 {
		t.Fatal("Fig13 empty")
	}
}

func TestUnfavorableStability(t *testing.T) {
	tb := Unfavorable()
	if tb.Rows() != 8 {
		t.Fatalf("Unfavorable rows = %d, want 8 (4 algos × 2 p)", tb.Rows())
	}
}

func TestValidateModelsAccurate(t *testing.T) {
	tb := Validate()
	if tb.Rows() < 12 {
		t.Fatalf("Validate rows = %d", tb.Rows())
	}
	// Every executed/model ratio must be within [0.2, 3.5] (CARMA's
	// closed-form model is the loosest).
	for _, fields := range rowFields(t, tb) {
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad ratio %q", fields[len(fields)-1])
		}
		if v < 0.2 || v > 3.5 {
			t.Errorf("model far from measurement: %v", fields)
		}
	}
}

// rowFields splits a table's rendered data rows (after the title,
// header and rule lines) into their whitespace-separated cells. The
// tables parsed this way have no blank inside a cell.
func rowFields(t *testing.T, tb *report.Table) [][]string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(tb.String()), "\n")
	if len(lines) != 3+tb.Rows() {
		t.Fatalf("rendered %d lines for %d rows:\n%s", len(lines), tb.Rows(), tb)
	}
	var rows [][]string
	for _, line := range lines[3:] {
		rows = append(rows, strings.Fields(line))
	}
	return rows
}

func TestTable1FourRows(t *testing.T) {
	if got := Table1().Rows(); got != 4 {
		t.Fatalf("Table1 rows = %d", got)
	}
}

func TestPercentOfPeakComputeOnlyIsFull(t *testing.T) {
	// A perfectly balanced, communication-free model spends exactly
	// 2mnk/p flops per rank: it reaches 100% of peak.
	net := machine.PizDaintNet()
	m, n, k, p := 10000, 10000, 5000, 64
	flops := 2 * float64(m) * float64(n) * float64(k) / float64(p)
	pct := PercentOfPeak(net, m, n, k, p, net.Time(flops, 0, 0))
	if math.Abs(pct-100) > 1e-9 {
		t.Fatalf("compute-only %%-peak = %v, want 100", pct)
	}
}

func TestPercentOfPeakFallsWithTraffic(t *testing.T) {
	net := machine.PizDaintNet()
	m, n, k, p := 4096, 4096, 4096, 256
	flops := 2.0 * 4096 * 4096 * 4096 / 256
	light := PercentOfPeak(net, m, n, k, p, net.Time(flops, 1e6, 10))
	heavy := PercentOfPeak(net, m, n, k, p, net.Time(flops, 1e9, 10))
	if heavy >= light {
		t.Fatalf("more words should lower %%-peak: %v vs %v", heavy, light)
	}
}

func TestSplitInputOutput(t *testing.T) {
	net := machine.NetworkParams{Alpha: 0, Beta: 1 / 3.6e7, Gamma: 1 / 36.8e9}
	mod := algo.Model{MaxFlops: 3.68e9, MaxRecv: 3.2e8, MaxMsgs: 0}
	compute, input, output := splitInputOutput(net, mod, mod.MaxRecv/2)
	if math.Abs(input-output) > 1e-9 {
		t.Fatalf("half output split uneven: in %v out %v", input, output)
	}
	serial := net.Time(mod.MaxFlops, mod.MaxRecv, mod.MaxMsgs)
	if math.Abs(serial-(compute+input+output)) > 1e-12 {
		t.Fatalf("categories sum to %v, serial time %v", compute+input+output, serial)
	}
	if ov := net.TimeOverlap(mod.MaxFlops, mod.MaxRecv, mod.MaxMsgs); ov > serial {
		t.Fatalf("overlap %v slower than serial %v", ov, serial)
	}
	// More output words than the model receives: clamped to MaxRecv.
	_, input, output = splitInputOutput(net, mod, 1e12)
	if input != 0 || output != net.Beta*mod.MaxRecv {
		t.Fatalf("clamped split: input %v output %v, want 0 and %v", input, output, net.Beta*mod.MaxRecv)
	}
	// Latency is charged to the input category.
	net.Alpha = 1e-3
	mod.MaxMsgs = 1000
	_, input, _ = splitInputOutput(net, mod, mod.MaxRecv)
	if math.Abs(input-1) > 1e-12 {
		t.Fatalf("latency-only input = %v, want 1", input)
	}
}
