package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchFile is the part of BENCHMARK.json the comparison reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the quartiles as Python's statistics.quantiles(v,
// n=4) computes them (the "exclusive" method), so spreads printed here
// match a check written with it.
func quartiles(v []float64) (q [3]float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// comparison is one (workload, metric) row of a compare.
type comparison struct {
	workload, metric string
	a, b             []float64
	better           string
	bound            float64 // 0: no bound (per-layer)
}

// spread is the quartile distance over the median.
func spread(v []float64) float64 {
	q := quartiles(v)
	return (q[2] - q[0]) / math.Abs(samples(v).median())
}

// wins is the share of pairs (i-th run of each set) the second set won,
// ties counting for neither.
func (c comparison) wins() float64 {
	n := min(len(c.a), len(c.b))
	won := 0
	for i := 0; i < n; i++ {
		if d := c.b[i] - c.a[i]; (c.better == "lower" && d < 0) || (c.better == "higher" && d > 0) {
			won++
		}
	}
	return float64(won) / float64(n)
}

// allBetter reports whether every run of the second set beats every run
// of the first.
func (c comparison) allBetter() bool {
	a, b := samples(c.a).sorted(), samples(c.b).sorted()
	if c.better == "lower" {
		return b[len(b)-1] < a[0]
	}
	return b[0] > a[len(a)-1]
}

// verdict judges the second set against the first: worse by more than
// the bound is a regression; a gain needs nine tenths of the pairs and a
// median shift beyond the first set's own quartile spread; with either
// set's spread wider than the bound the row is unresolved unless every
// second run beats every first one.
func (c comparison) verdict() string {
	ma, mb := samples(c.a).median(), samples(c.b).median()
	if ma == mb {
		return "same"
	}
	if ma == 0 {
		return "changed from 0"
	}
	worse := (mb - ma) / math.Abs(ma)
	if c.better == "higher" {
		worse = -worse
	}
	if c.bound == 0 {
		return "no bound"
	}
	qa := quartiles(c.a)
	switch {
	case worse > c.bound:
		return "REGRESSED"
	case spread(c.a) > c.bound || spread(c.b) > c.bound:
		if c.allBetter() {
			return "better"
		}
		return "unresolved"
	case worse < 0 && c.wins() >= 0.9 && math.Abs(mb-ma) > qa[2]-qa[0]:
		return "better"
	}
	return "same"
}

// compareMain prints, for every (workload, metric) both result sets
// hold, each set's median and quartiles, the share of pairs the second
// set won and a verdict against the bounds in BENCHMARK.json. It exits
// 1 when any row regressed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--bench BENCHMARK.json] first.jsonl second.jsonl")
		return 2
	}
	var def benchFile
	data, err := os.ReadFile(*bench)
	if err == nil {
		err = json.Unmarshal(data, &def)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	sets := make([][]record, 2)
	for i, path := range fs.Args() {
		if sets[i], err = readRecords(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
			return 2
		}
	}
	rows := compareSets(sets[0], sets[1], def)
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tmetric\tfirst median [q1, q3]\tsecond median [q1, q3]\tspreads\tbound\tsecond won\tverdict")
	regressed := false
	for _, c := range rows {
		qa, qb := quartiles(c.a), quartiles(c.b)
		v := c.verdict()
		regressed = regressed || v == "REGRESSED"
		fmt.Fprintf(w, "%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%.3f / %.3f\t%g\t%.0f%% of %d\t%s\n",
			c.workload, c.metric, samples(c.a).median(), qa[0], qa[2], samples(c.b).median(), qb[0], qb[2],
			spread(c.a), spread(c.b), c.bound, 100*c.wins(), min(len(c.a), len(c.b)), v)
	}
	w.Flush()
	if regressed {
		return 1
	}
	return 0
}

// compareSets pairs the two sets' runs per workload and mode, in file
// order, and builds one row per metric both hold.
func compareSets(first, second []record, def benchFile) []comparison {
	type key struct {
		workload string
		trace    bool
	}
	group := func(recs []record) (map[key][]record, []key) {
		m := make(map[key][]record)
		var order []key
		for _, r := range recs {
			k := key{r.Workload, r.Trace}
			if _, ok := m[k]; !ok {
				order = append(order, k)
			}
			m[k] = append(m[k], r)
		}
		return m, order
	}
	ga, order := group(first)
	gb, _ := group(second)
	var rows []comparison
	for _, k := range order {
		ra, rb := ga[k], gb[k]
		if len(rb) == 0 {
			continue
		}
		names := make([]string, 0)
		for n := range ra[0].Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			c := comparison{workload: k.workload, metric: n, better: "lower"}
			if m, ok := lookup(n); ok {
				c.better = m.better
			}
			for _, e := range def.EndToEnd {
				if e.Name == n && !k.trace {
					c.better, c.bound = e.Better, e.Bound
				}
			}
			for _, r := range ra {
				if m, ok := r.Metrics[n]; ok {
					c.a = append(c.a, m.Value)
				}
			}
			for _, r := range rb {
				if m, ok := r.Metrics[n]; ok {
					c.b = append(c.b, m.Value)
				}
			}
			if len(c.a) > 0 && len(c.b) > 0 {
				rows = append(rows, c)
			}
		}
	}
	return rows
}
