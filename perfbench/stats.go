package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is a set of timings in milliseconds. Every summary reads all
// of them: the benchmark reports medians and quartiles, never best-of-N.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) with linear interpolation
// between closest ranks; NaN for an empty set.
func (s samples) quantile(q float64) float64 {
	c := s.sorted()
	if len(c) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	if lo >= len(c)-1 {
		return c[len(c)-1]
	}
	return c[lo] + (pos-float64(lo))*(c[lo+1]-c[lo])
}

func (s samples) median() float64 { return s.quantile(0.5) }

// tailPermille are the percentiles a tail is read at, in tenths of a
// percent. The ladder tops out at p95: on a shared two-core box the
// hypervisor steals CPU time in bursts, and a p99 reads those bursts
// more than the program (README.md has the measured spreads); describe
// still prints the p99.
var tailPermille = []int{950, 900, 750, 500}

// tail returns the highest of tailPermille that has at least ten
// samples beyond it, and that percentile. With fewer than twenty samples
// it returns the median, labelled p50.
func (s samples) tail() (value, pct float64) {
	for _, p := range tailPermille {
		if len(s)*(1000-p) >= 10*1000 {
			return s.quantile(float64(p) / 1000), float64(p) / 10
		}
	}
	return s.median(), 50
}

// tailOps is how many samples a tail at p tenths of a percent needs.
func tailOps(permille int) int { return 10 * 1000 / (1000 - permille) }

// describe is the human-readable spread of a timing set.
func (s samples) describe() string {
	v, pct := s.tail()
	return fmt.Sprintf("n=%d q1=%.4g median=%.4g q3=%.4g p90=%.4g p95=%.4g p99=%.4g tail=p%g:%.4g", len(s),
		s.quantile(0.25), s.median(), s.quantile(0.75), s.quantile(0.9), s.quantile(0.95), s.quantile(0.99), pct, v)
}
