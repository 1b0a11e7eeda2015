package costmodel

import (
	"fmt"
	"math"
)

// Costs holds one algorithm's Table 3 row for specific parameters.
type Costs struct {
	Algorithm string
	Q         float64 // per-processor I/O (communication) cost in words
	L         float64 // latency cost (number of messages on the critical path)
}

// Params are the Table 3 inputs.
type Params struct {
	M, N, K int // matrix dimensions
	P       int // processors
	S       int // memory per processor in words
}

func (p Params) validate() {
	if p.M < 1 || p.N < 1 || p.K < 1 || p.P < 1 || p.S < 1 {
		panic(fmt.Sprintf("costmodel: invalid params %+v", p))
	}
}

func (p Params) mnk() float64 { return float64(p.M) * float64(p.N) * float64(p.K) }

// TwoD returns the 2D (SUMMA/ScaLAPACK) row of Table 3:
//
//	Q = k(m+n)/√p + mn/p,  L = 2k/⌊√(S/2)⌋ · log₂(√p) style panel count.
func TwoD(p Params) Costs {
	p.validate()
	sq := math.Sqrt(float64(p.P))
	q := float64(p.K)*(float64(p.M)+float64(p.N))/sq + float64(p.M)*float64(p.N)/float64(p.P)
	l := 2 * float64(p.K) * math.Log2(math.Max(2, sq))
	return Costs{Algorithm: "2D", Q: q, L: l}
}

// TwoPointFiveD returns the 2.5D (CTF) row of Table 3 with the paper's
// c = pS/(mk+nk) replication factor:
//
//	Q = (k(m+n))^{3/2}/(p√S) + mnS/(k(m+n)),
//	L = (k(m+n))^{5/2}/(pS^{3/2}(km+kn−mn)) + 3·log₂(pS/(mk+nk)).
func TwoPointFiveD(p Params) Costs {
	p.validate()
	kmn := float64(p.K) * (float64(p.M) + float64(p.N))
	s := float64(p.S)
	q := math.Pow(kmn, 1.5)/(float64(p.P)*math.Sqrt(s)) +
		float64(p.M)*float64(p.N)*s/kmn
	den := float64(p.K)*float64(p.M) + float64(p.K)*float64(p.N) - float64(p.M)*float64(p.N)
	l := 3 * math.Log2(math.Max(2, float64(p.P)*s/kmn))
	if den > 0 {
		l += math.Pow(kmn, 2.5) / (float64(p.P) * math.Pow(s, 1.5) * den)
	}
	return Costs{Algorithm: "2.5D", Q: q, L: l}
}

// Recursive returns the recursive (CARMA) row of Table 3:
//
//	Q = 2·min{√3·mnk/(p√S), (mnk/p)^{2/3}} + (mnk/p)^{2/3},
//	L = 3^{3/2}·mnk/(p·S^{3/2}) + 3·log₂(p).
//
// The min selects the branch that is feasible, not merely the smaller
// value: the cubic branch requires the leaf subproblem's working set
// (≈ 3(mnk/p)^{2/3} words) to fit in S; when it does not, CARMA keeps
// splitting into √(S/3)-sided blocks and pays the √3-factor limited
// branch — which is the paper's headline comparison against COSMA (§6.2).
func Recursive(p Params) Costs {
	p.validate()
	w := p.mnk() / float64(p.P)
	cubic := math.Pow(w, 2.0/3.0)
	var q float64
	if 3*cubic <= float64(p.S) {
		q = 2*cubic + cubic
	} else {
		q = 2*math.Sqrt(3)*w/math.Sqrt(float64(p.S)) + cubic
	}
	l := math.Pow(3, 1.5)*p.mnk()/(float64(p.P)*math.Pow(float64(p.S), 1.5)) +
		3*math.Log2(math.Max(2, float64(p.P)))
	return Costs{Algorithm: "recursive", Q: q, L: l}
}

// COSMA returns the COSMA row of Table 3 (Eq. 33):
//
//	Q = min{2mnk/(p√S) + S, 3(mnk/p)^{2/3}},
//	L = 2ab/(S−a²) · log₂(mn/a²) with a, b from Eq. 32.
func COSMA(p Params) Costs {
	p.validate()
	w := p.mnk() / float64(p.P)
	s := float64(p.S)
	// Attainable branch per Eq. 32: the domain face a² is capped by S;
	// the cubic branch applies only when a cubic domain fits.
	var q float64
	if math.Cbrt(w) <= math.Sqrt(s) {
		q = 3 * math.Pow(w, 2.0/3.0)
	} else {
		q = 2*w/math.Sqrt(s) + s
	}

	a := math.Min(math.Sqrt(s), math.Cbrt(w))
	b := math.Max(w/(float64(p.S)), math.Cbrt(w))
	den := s - a*a
	var l float64
	if den <= 0 {
		l = b // one message per outer product
	} else {
		l = math.Ceil(2 * a * b / den)
	}
	if lg := math.Log2(float64(p.M) * float64(p.N) / (a * a)); lg > 1 {
		l *= lg
	}
	return Costs{Algorithm: "COSMA", Q: q, L: l}
}

// Omega is the arithmetic exponent of Strassen's scheme, log₂ 7.
var Omega = math.Log2(7)

// CAPS returns the Strassen-family row — the CAPS algorithm of
// Ballard, Demmel, Holtz and Schwartz, which is not part of the source
// paper's Table 3 because its exponent ω = log₂ 7 escapes the classical
// analysis. With N = (mnk)^{1/3}:
//
//	Q = max{ N^ω/(p·S^{ω/2−1}), N²/p^{2/ω} },
//	L = Q/S + 3·log₂ p,
//
// the memory-dependent and memory-independent bandwidth bounds of BDHS,
// both attained by the BFS/DFS schedule.
func CAPS(p Params) Costs {
	p.validate()
	n := math.Cbrt(p.mnk())
	s := float64(p.S)
	mem := math.Pow(n, Omega) / (float64(p.P) * math.Pow(s, Omega/2-1))
	indep := n * n / math.Pow(float64(p.P), 2/Omega)
	q := math.Max(mem, indep)
	l := q/s + 3*math.Log2(math.Max(2, float64(p.P)))
	return Costs{Algorithm: "CAPS", Q: q, L: l}
}

// All evaluates every Table 3 row for the given parameters.
func All(p Params) []Costs {
	return []Costs{TwoD(p), TwoPointFiveD(p), Recursive(p), COSMA(p)}
}

// SquareLimited returns the paper's first Table 3 special case: square
// matrices m = n = k with S = 2n²/p. In this regime 2D, 2.5D and COSMA
// all reach 2n²(√p+1)/p while the recursive decomposition performs √3/2·…
// more communication.
func SquareLimited(n, p int) []Costs {
	s := 2 * n * n / p
	if s < 1 {
		s = 1
	}
	return All(Params{M: n, N: n, K: n, P: p, S: s})
}

// TallExtra returns the second special case: m = n = √p, k = p^{3/2}/4
// with S = 2nk/p^{2/3} — one huge dimension and extra memory, where 2D is
// Θ(√p) and 2.5D Θ(p^{1/3}) away from COSMA and the recursive
// decomposition is ~8% worse.
func TallExtra(p int) []Costs {
	n := int(math.Round(math.Sqrt(float64(p))))
	if n < 1 {
		n = 1
	}
	k := int(math.Round(math.Pow(float64(p), 1.5) / 4))
	if k < 1 {
		k = 1
	}
	s := int(math.Round(2 * float64(n) * float64(k) / math.Pow(float64(p), 2.0/3.0)))
	if s < 4 {
		s = 4
	}
	return All(Params{M: n, N: n, K: k, P: p, S: s})
}
