package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestMain(m *testing.M) {
	// The wire workload re-executes this binary as its second process.
	if spec := os.Getenv(wireWorkerEnv); spec != "" {
		os.Exit(wireWorker(spec))
	}
	os.Exit(m.Run())
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.2, trace: trace, tiny: true, workDir: t.TempDir()}
}

// definition reads the repository's BENCHMARK.json.
func definition(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range def.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// TestEveryWorkloadEmitsItsMetrics runs every workload at tiny sizes in
// both modes: each must be correct, emit exactly the metric set
// BENCHMARK.json names for its mode with the same units, and report the
// same traffic counts traced and untraced.
func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	e2e, layers := definition(t)
	if len(e2e) != len(endToEnd) || len(layers) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the program %d/%d",
			len(e2e), len(layers), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var comm [2][2]int64
			for i, trace := range []bool{false, true} {
				r, err := execute(tinyConfig(t, w.name, trace))
				if err != nil {
					t.Fatal(err)
				}
				res := r.result()
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v, %d of %d failed", trace, res.Correct, res.Failed, res.Attempted)
				}
				want := e2e
				if trace {
					want = layers
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("trace=%v: no %s", trace, name)
					case m.Unit != unit:
						t.Errorf("trace=%v: %s in %q, BENCHMARK.json says %q", trace, name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("trace=%v: %s = %v", trace, name, m.Value)
					}
				}
				comm[i] = [2]int64{r.words, r.msgs}
				if trace && w.name != "wire-square" {
					// The timing transport's own counts equal the Report's.
					if got := [2]int64{int64(res.Metrics["machine.words_max"].Value), int64(res.Metrics["machine.msgs_max"].Value)}; got != comm[i] {
						t.Errorf("machine.words_max/msgs_max = %v, comm = %v", got, comm[i])
					}
				}
			}
			if comm[0] != comm[1] || comm[0][0] <= 0 {
				t.Errorf("comm words/messages untraced %v, traced %v", comm[0], comm[1])
			}
		})
	}
}

// TestWrongProductCountsAsFailure alters one product inside the harness:
// every workload must count it as a failed operation.
func TestWrongProductCountsAsFailure(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := tinyConfig(t, w.name, false)
			cfg.corrupt = true
			r, err := execute(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res := r.result(); res.Correct || res.Failed != 1 {
				t.Fatalf("correct=%v with %d failures, want one failure", res.Correct, res.Failed)
			}
		})
	}
}

func TestTailAndQuartiles(t *testing.T) {
	var s samples
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	if v, pct := s.tail(); math.Abs(v-90.1) > 1e-9 || pct != 90 {
		t.Errorf("tail = %v at p%v, want 90.1 at p90", v, pct)
	}
	if n := tailOps(950); n != 200 {
		t.Errorf("tailOps(p95) = %d", n)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	c := comparison{better: "lower", bound: 0.1,
		a: []float64{10, 10.1, 9.9, 10, 10.05}, b: []float64{12, 12.1, 11.9, 12, 12.05}}
	if v := c.verdict(); v != "REGRESSED" {
		t.Errorf("20%% slower: verdict %q", v)
	}
	c.a, c.b = c.b, c.a
	if v := c.verdict(); v != "better" {
		t.Errorf("20%% faster: verdict %q", v)
	}
}
