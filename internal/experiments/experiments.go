package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cosma/internal/algo"
	_ "cosma/internal/baselines" // registers the baseline algorithms
	"cosma/internal/bound"
	"cosma/internal/core"
	"cosma/internal/costmodel"
	"cosma/internal/grid"
	"cosma/internal/machine"
	"cosma/internal/matrix"
	"cosma/internal/report"
	"cosma/internal/seq"
	"cosma/internal/workload"
)

// Runners returns the four algorithms in the paper's comparison order.
func Runners() []algo.Runner { return RunnersNet(nil) }

// RunnersNet returns the comparison algorithms configured to execute on
// the given network (nil for the counting transport), drawn from the
// name-keyed algorithm registry (importing core and baselines registers
// them).
func RunnersNet(net *machine.NetworkParams) []algo.Runner {
	return algo.Comparison(algo.Config{Network: net})
}

// RunnersOverlap returns the comparison algorithms with round-loop
// pipelining enabled, so timed comparisons pit overlapped COSMA against
// overlapped SUMMA (the algorithms without a pipelined path run
// synchronously, as ever).
func RunnersOverlap(net *machine.NetworkParams) []algo.Runner {
	return algo.Comparison(algo.Config{Network: net, Overlap: true})
}

const wordsToMB = 8.0 / 1e6

// paperNet prices the paper-scale figure tables (Figures 8–13, Table 4
// and the unfavorable-p comparison) at the paper's Piz Daint constants,
// so they reproduce §8's testbed whatever network the timed experiments
// run on. Communication and computation are charged serially (Time),
// identically for every algorithm; Figure 12 quantifies the overlap
// gain (§7.3) separately.
var paperNet = machine.PizDaintNet()

// modelTime is the serial α-β-γ runtime of a model's busiest rank on
// paperNet.
func modelTime(mod algo.Model) float64 {
	return paperNet.Time(mod.MaxFlops, mod.MaxRecv, mod.MaxMsgs)
}

// PercentOfPeak is the share of p cores' aggregate peak (1/γ flop/s
// each) that an m×n×k multiplication reaches when it takes t seconds:
// the 2mnk useful flops against what the cores could have done in t.
func PercentOfPeak(net machine.NetworkParams, m, n, k, p int, t float64) float64 {
	useful := 2 * float64(m) * float64(n) * float64(k)
	return 100 * useful * net.Gamma / (t * float64(p))
}

// perUsedRecv converts a model's all-rank average received words into the
// average over ranks that actually work. Idle ranks (CARMA's power-of-two
// remainder, COSMA's fitted-out δ share) would otherwise dilute the
// figure, hiding the extra traffic the active ranks carry.
func perUsedRecv(mod algo.Model, p int) float64 {
	if mod.Used <= 0 {
		return mod.AvgRecv
	}
	return mod.AvgRecv * float64(p) / float64(mod.Used)
}

// feasible reports whether a configuration satisfies the distributed
// model's pS ≥ mn + mk + nk requirement (§6).
func feasible(c workload.Config) bool {
	return float64(c.P)*float64(c.S) >= c.InputWords()
}

// CommVolume regenerates a Figure 6/7-style panel: average received MB
// per core for every algorithm across the core-count sweep, using the
// structural models at paper scale.
func CommVolume(shape workload.Shape, regime workload.Regime) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Communication volume per core [MB] — %s, %s (Figures 6/7)", shape, regime),
		"cores", "COSMA", "ScaLAPACK", "CTF", "CARMA", "LowerBound")
	for _, p := range workload.CoreCounts() {
		c := workload.Generate(shape, regime, p)
		if !feasible(c) {
			continue
		}
		row := []interface{}{p}
		for _, r := range Runners() {
			mod := r.Model(c.M, c.N, c.K, c.P, c.S)
			row = append(row, perUsedRecv(mod, c.P)*wordsToMB)
		}
		row = append(row, bound.ParallelLowerBound(c.M, c.N, c.K, c.P, c.S)*wordsToMB)
		t.AddRow(row...)
	}
	return t
}

// PctPeak regenerates a Figure 8/10-style panel: % of peak flop/s for
// every algorithm across the sweep under the performance model.
func PctPeak(shape workload.Shape, regime workload.Regime) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("%% of peak performance — %s, %s (Figures 8/10)", shape, regime),
		"cores", "COSMA", "ScaLAPACK", "CTF", "CARMA")
	for _, p := range workload.CoreCounts() {
		c := workload.Generate(shape, regime, p)
		if !feasible(c) {
			continue
		}
		row := []interface{}{p}
		for _, r := range Runners() {
			rt := modelTime(r.Model(c.M, c.N, c.K, c.P, c.S))
			row = append(row, PercentOfPeak(paperNet, c.M, c.N, c.K, c.P, rt))
		}
		t.AddRow(row...)
	}
	return t
}

// Runtime regenerates a Figure 9/11-style panel: total simulated runtime
// in milliseconds.
func Runtime(shape workload.Shape, regime workload.Regime) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Total runtime [ms] — %s, %s (Figures 9/11)", shape, regime),
		"cores", "COSMA", "ScaLAPACK", "CTF", "CARMA")
	for _, p := range workload.CoreCounts() {
		c := workload.Generate(shape, regime, p)
		if !feasible(c) {
			continue
		}
		row := []interface{}{p}
		for _, r := range Runners() {
			row = append(row, modelTime(r.Model(c.M, c.N, c.K, c.P, c.S))*1e3)
		}
		t.AddRow(row...)
	}
	return t
}

// Table4 regenerates Table 4: for each shape and regime, the mean over
// the core-count sweep of the per-rank communication volume of each
// algorithm, and COSMA's speedup over the second-best algorithm under the
// performance model (min / geometric mean / max over the sweep).
func Table4() *report.Table {
	t := report.NewTable(
		"Table 4: mean comm volume per rank [MB] and COSMA speedup vs second-best",
		"shape", "benchmark", "ScaLAPACK", "CTF", "CARMA", "COSMA",
		"min", "mean", "max")
	for _, shape := range []workload.Shape{workload.Square, workload.LargeK, workload.LargeM, workload.Flat} {
		for _, regime := range []workload.Regime{workload.StrongScaling, workload.LimitedMemory, workload.ExtraMemory} {
			sums := make(map[string]float64)
			var points int
			minSp, maxSp := math.Inf(1), 0.0
			logSum := 0.0
			for _, p := range workload.CoreCounts() {
				c := workload.Generate(shape, regime, p)
				if !feasible(c) {
					continue
				}
				points++
				var cosmaT float64
				secondBest := math.Inf(1)
				for _, r := range Runners() {
					mod := r.Model(c.M, c.N, c.K, c.P, c.S)
					sums[r.Name()] += perUsedRecv(mod, c.P) * wordsToMB
					rt := modelTime(mod)
					if r.Name() == (&core.COSMA{}).Name() {
						cosmaT = rt
					} else if rt < secondBest {
						secondBest = rt
					}
				}
				sp := secondBest / cosmaT
				if sp < minSp {
					minSp = sp
				}
				if sp > maxSp {
					maxSp = sp
				}
				logSum += math.Log(sp)
			}
			if points == 0 {
				continue
			}
			names := []string{"ScaLAPACK/SUMMA-2D", "CTF/2.5D", "CARMA-recursive", "COSMA"}
			row := []interface{}{shape.String(), regime.String()}
			for _, n := range names {
				row = append(row, sums[n]/float64(points))
			}
			row = append(row, minSp, math.Exp(logSum/float64(points)), maxSp)
			t.AddRow(row...)
		}
	}
	return t
}

// Table3 regenerates Table 3: the closed-form Q and L of every
// decomposition in the general case and the two special cases.
func Table3() []*report.Table {
	general := report.NewTable(
		"Table 3 (general): per-processor I/O cost Q and latency L — m=n=k=16384, p=1024, S=2^27",
		"algorithm", "Q [words]", "L [msgs]")
	params := costmodel.Params{M: 16384, N: 16384, K: 16384, P: 1024, S: 1 << 27}
	for _, c := range costmodel.All(params) {
		general.AddRow(c.Algorithm, c.Q, c.L)
	}

	square := report.NewTable(
		"Table 3 (square, limited memory): m=n=k=4096, S=2n²/p, p=64",
		"algorithm", "Q [words]", "Q/(2n²/√p)")
	ref := 2.0 * 4096 * 4096 / 8
	for _, c := range costmodel.SquareLimited(4096, 64) {
		square.AddRow(c.Algorithm, c.Q, c.Q/ref)
	}

	tall := report.NewTable(
		"Table 3 (tall, extra memory): m=n=√p, k=p^1.5/4, p=4096",
		"algorithm", "Q [words]", "Q/p")
	for _, c := range costmodel.TallExtra(4096) {
		tall.AddRow(c.Algorithm, c.Q, c.Q/4096)
	}
	return []*report.Table{general, square, tall}
}

// Fig3 quantifies Figure 3's bottom-up-vs-top-down message on p = 8: a
// fixed [2×2×2] 3D split against COSMA's fitted grid. For square,
// ample-memory problems the two coincide (the cubic domain is optimal);
// for tall matrices the top-down split pays broadcast traffic on the
// small faces that the bottom-up schedule avoids entirely — the regime
// where the paper reports its largest reductions.
func Fig3() *report.Table {
	const p, s = 8, 1 << 21
	topDown := grid.Grid{Pm: 2, Pn: 2, Pk: 2}
	t := report.NewTable(
		fmt.Sprintf("Figure 3: top-down 3D vs bottom-up COSMA traffic, p=%d, S=2^21", p),
		"shape", "m", "n", "k", "3D words/rank", "COSMA grid", "COSMA words/rank", "reduction")
	cases := []struct {
		name    string
		m, n, k int
	}{
		{"square", 1 << 10, 1 << 10, 1 << 10},
		{"largeK", 128, 128, 1 << 20},
		{"flat", 1 << 12, 1 << 12, 64},
	}
	for _, c := range cases {
		v3 := topDown.ModelVolume(c.m, c.n, c.k)
		bottomUp := grid.Fit(c.m, c.n, c.k, p, s, core.DefaultDelta)
		vC := bottomUp.ModelVolume(c.m, c.n, c.k) * float64(bottomUp.Ranks()) / float64(p)
		t.AddRow(c.name, c.m, c.n, c.k, v3, bottomUp.String(), vC,
			fmt.Sprintf("%.1f%%", 100*(1-vC/v3)))
	}
	return t
}

// Fig5 regenerates Figure 5: processor grids for a square problem on 65
// ranks, with and without the idle-rank optimization.
func Fig5() *report.Table {
	m := 4096
	s := 1 << 22
	full := grid.Fit(m, m, m, 65, s, 0) // δ = 0: must use all 65
	tuned := grid.Fit(m, m, m, 65, s, core.DefaultDelta)
	t := report.NewTable(
		"Figure 5: grid fitting for p=65, square n=4096",
		"strategy", "grid", "ranks used", "words/rank", "work/rank")
	dmF, dnF, dkF := full.LocalDims(m, m, m)
	dmT, dnT, dkT := tuned.LocalDims(m, m, m)
	t.AddRow("all 65 ranks", full.String(), full.Ranks(),
		full.ModelVolume(m, m, m), float64(dmF)*float64(dnF)*float64(dkF))
	t.AddRow("δ=3% idle allowed", tuned.String(), tuned.Ranks(),
		tuned.ModelVolume(m, m, m), float64(dmT)*float64(dnT)*float64(dkT))
	return t
}

// SeqIO regenerates the Listing 1 / Theorem 1 experiment: the measured
// vertical I/O of the executed sequential schedule against the lower
// bound, across memory sizes.
func SeqIO() *report.Table {
	t := report.NewTable(
		"Sequential I/O: Listing 1 measured vs Theorem 1 bound (m=n=k=96)",
		"S [words]", "tile a×b", "measured Q", "bound 2mnk/√S+mn", "ratio", "gap √S/(√(S+1)−1)")
	rng := rand.New(rand.NewSource(42))
	n := 96
	a := matrix.Random(n, n, rng)
	b := matrix.Random(n, n, rng)
	for _, s := range []int{16, 64, 256, 1024, 4096} {
		res := seq.Multiply(a, b, s)
		lb := bound.SequentialLowerBound(n, n, n, s)
		t.AddRow(s, fmt.Sprintf("%d×%d", res.TileA, res.TileB),
			float64(res.IO()), lb, float64(res.IO())/lb, bound.SequentialGap(s))
	}
	return t
}

// Fig12 regenerates Figure 12: the communication/computation breakdown of
// COSMA for each shape at the smallest and largest strong-scaling core
// counts, with and without overlap.
func Fig12() *report.Table {
	t := report.NewTable(
		"Figure 12: COSMA time breakdown [ms], strong scaling",
		"shape", "cores", "compute", "input A/B", "output C", "total no-overlap", "total overlap")
	cosma := &core.COSMA{}
	for _, shape := range []workload.Shape{workload.Square, workload.LargeK, workload.LargeM, workload.Flat} {
		for _, p := range []int{2048, 18432} {
			c := workload.Generate(shape, workload.StrongScaling, p)
			if !feasible(c) {
				continue
			}
			mod := cosma.Model(c.M, c.N, c.K, c.P, c.S)
			g := grid.Fit(c.M, c.N, c.K, c.P, c.S, core.DefaultDelta)
			dm, dn, _ := g.LocalDims(c.M, c.N, c.K)
			outWords := float64(dm) * float64(dn) * float64(g.Pk-1) / float64(g.Pk) * 2
			compute, input, output := splitInputOutput(paperNet, mod, outWords)
			t.AddRow(shape.String(), p, compute*1e3, input*1e3, output*1e3,
				modelTime(mod)*1e3,
				paperNet.TimeOverlap(mod.MaxFlops, mod.MaxRecv, mod.MaxMsgs)*1e3)
		}
	}
	return t
}

// splitInputOutput splits a model's serial runtime on net into Figure
// 12's categories: computation, input (A and B panels, plus every
// message's latency) and output (reducing C), assuming outWords of the
// model's MaxRecv words carry C. outWords is clamped to MaxRecv.
func splitInputOutput(net machine.NetworkParams, mod algo.Model, outWords float64) (compute, input, output float64) {
	outWords = math.Min(outWords, mod.MaxRecv)
	return net.Gamma * mod.MaxFlops,
		net.Beta*(mod.MaxRecv-outWords) + net.Alpha*mod.MaxMsgs,
		net.Beta * outWords
}

// Fig13 regenerates Figures 13/14: the distribution (min / median / max
// over core counts) of achieved % of peak for every algorithm in every
// scenario.
func Fig13() *report.Table {
	t := report.NewTable(
		"Figures 13/14: distribution of % peak across core counts",
		"shape", "benchmark", "algorithm", "min", "median", "max")
	for _, shape := range []workload.Shape{workload.Square, workload.LargeK, workload.LargeM, workload.Flat} {
		for _, regime := range []workload.Regime{workload.StrongScaling, workload.LimitedMemory, workload.ExtraMemory} {
			for _, r := range Runners() {
				var samples []float64
				for _, p := range workload.CoreCounts() {
					c := workload.Generate(shape, regime, p)
					if !feasible(c) {
						continue
					}
					rt := modelTime(r.Model(c.M, c.N, c.K, c.P, c.S))
					samples = append(samples, PercentOfPeak(paperNet, c.M, c.N, c.K, c.P, rt))
				}
				if len(samples) == 0 {
					continue
				}
				sort.Float64s(samples)
				t.AddRow(shape.String(), regime.String(), r.Name(),
					samples[0], samples[len(samples)/2], samples[len(samples)-1])
			}
		}
	}
	return t
}

// Unfavorable regenerates the §9 "unfavorable number of processors"
// comparison: p = 9216 vs 9217 for COSMA (stable thanks to grid fitting)
// and the 2.5D decomposition (unstable).
func Unfavorable() *report.Table {
	n := 16384
	s := workload.MemoryWordsPerCore
	t := report.NewTable(
		"Unfavorable processor count: m=n=k=16384",
		"algorithm", "p", "grid", "time [ms]", "words/rank")
	for _, p := range []int{9216, 9217} {
		for _, r := range Runners() {
			mod := r.Model(n, n, n, p, s)
			t.AddRow(r.Name(), p, mod.Grid, modelTime(mod)*1e3, mod.AvgRecv)
		}
	}
	return t
}

// Validate executes all four algorithms on the machine simulator at a
// small scale and reports measured vs modeled per-rank traffic — the
// evidence that the paper-scale model numbers are trustworthy.
func Validate() *report.Table {
	t := report.NewTable(
		"Model validation: measured (executed) vs modeled received words/rank",
		"algorithm", "m", "n", "k", "p", "measured", "model", "ratio")
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ m, k, n, p, s int }{
		{32, 32, 32, 8, 1 << 20},
		{16, 128, 16, 16, 1 << 20},
		{64, 16, 32, 16, 1 << 20},
		{48, 48, 48, 16, 2000},
	}
	for _, c := range cases {
		a := matrix.Random(c.m, c.k, rng)
		b := matrix.Random(c.k, c.n, rng)
		for _, r := range Runners() {
			_, rep, err := r.Run(a, b, c.p, c.s)
			if err != nil {
				continue // e.g. Cannon-style restrictions
			}
			ratio := 0.0
			if rep.Model.AvgRecv > 0 {
				ratio = rep.AvgRecv / rep.Model.AvgRecv
			}
			t.AddRow(r.Name(), c.m, c.n, c.k, c.p, rep.AvgRecv, rep.Model.AvgRecv, ratio)
		}
	}
	return t
}

// Table1 regenerates the qualitative Table 1 comparison, augmented with
// concrete model volumes on a representative problem.
func Table1() *report.Table {
	t := report.NewTable(
		"Table 1: decomposition comparison (concrete volumes for square n=16384, p=1024, S=2^27)",
		"algorithm", "step 1", "step 2", "words/rank")
	c := workload.Generate(workload.Square, workload.StrongScaling, 1024)
	steps := map[string][2]string{
		"COSMA":              {"find optimal sequential schedule", "map sequential domain to matrices"},
		"ScaLAPACK/SUMMA-2D": {"split m and n", "map matrices to grid"},
		"CTF/2.5D":           {"split m, n, k", "map matrices to grid"},
		"CARMA-recursive":    {"split largest dim recursively", "map matrices to recursion tree"},
	}
	for _, r := range Runners() {
		mod := r.Model(c.M, c.N, c.K, c.P, c.S)
		s := steps[r.Name()]
		t.AddRow(r.Name(), s[0], s[1], mod.AvgRecv)
	}
	return t
}
