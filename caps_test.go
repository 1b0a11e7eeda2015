package cosma

import (
	"context"
	"math"
	"testing"
	"time"

	"cosma/internal/bound"
	"cosma/internal/matrix"
)

// capsTol is the magnitude-scaled tolerance for Strassen results:
// the 7-multiply scheme amplifies roundoff by a constant factor per
// recursion level beyond the classical k·ε·‖A‖∞‖B‖∞ bound.
func capsTol(a, b *Matrix, k int) float64 {
	var ma, mb float64
	for _, v := range a.Data {
		ma = math.Max(ma, math.Abs(v))
	}
	for _, v := range b.Data {
		mb = math.Max(mb, math.Abs(v))
	}
	const eps = 2.2e-16
	return 1e4 * float64(k) * eps * ma * mb
}

// capsTransports enumerates the engine option sets the CAPS tests run
// under: counting, timed, and the wire transport in loopback form.
func capsTransports(t *testing.T) []struct {
	name string
	opts []Option
} {
	t.Helper()
	loopback := []string{}
	addr := WireSocketAddrs(t.TempDir(), 1)[0]
	for i := 0; i < 8; i++ {
		loopback = append(loopback, addr)
	}
	return []struct {
		name string
		opts []Option
	}{
		{"counting", nil},
		{"timed", []Option{WithNetwork(PizDaintNetwork())}},
		{"wire-loopback", []Option{
			WithWireTransport(WireConfig{Rank: 0, Peers: loopback}),
			WithRecvTimeout(30 * time.Second),
		}},
	}
}

// TestCAPSEngineAllTransports is the acceptance check for the sixth
// algorithm: cosma.NewEngine(WithAlgorithm("caps")) must execute on the
// counting, timed and wire transports and agree with the classical
// engine product within Strassen's relative-error envelope.
func TestCAPSEngineAllTransports(t *testing.T) {
	const n, p = 128, 8
	a := RandomMatrix(n, n, 11)
	b := RandomMatrix(n, n, 12)
	classical, err := NewEngine(WithProcs(p), WithMemory(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := classical.Exec(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	tol := capsTol(a, b, n)
	for _, tc := range capsTransports(t) {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]Option{
				WithAlgorithm("caps"), WithProcs(p), WithMemory(1 << 20),
			}, tc.opts...)
			eng, err := NewEngine(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			got, rep, err := eng.Exec(context.Background(), a, b)
			if err != nil {
				t.Fatal(err)
			}
			if d := matrix.MaxDiff(got, want); d > tol {
				t.Fatalf("max |CAPS − classical| = %g, tolerance %g", d, tol)
			}
			if rep.Used != 7 {
				t.Fatalf("CAPS on p=8 used %d ranks, want the power-of-seven team of 7", rep.Used)
			}
			if rep.MaxRecv == 0 {
				t.Fatal("distributed CAPS moved no words")
			}
		})
	}
}

// TestCAPSDeterministic pins CAPS's bitwise determinism: the same
// seed and shape must produce identical bits across repeated runs on
// one engine, across engines, and across kernel thread counts (the
// kernel's fixed accumulation order is thread-invariant).
func TestCAPSDeterministic(t *testing.T) {
	const n, p = 128, 7
	a := RandomMatrix(n, n, 21)
	b := RandomMatrix(n, n, 22)
	exec := func(threads int) *Matrix {
		t.Helper()
		eng, err := NewEngine(WithAlgorithm("caps"), WithProcs(p), WithMemory(1<<20),
			WithKernelThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := eng.Exec(context.Background(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ref := exec(1)
	// Repeat on one engine: warm scratch must not change a bit.
	eng, err := NewEngine(WithAlgorithm("caps"), WithProcs(p), WithMemory(1<<20), WithKernelThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	r1, _, err := eng.Exec(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := eng.Exec(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Data {
		if r1.Data[i] != r2.Data[i] {
			t.Fatalf("word %d differs between warm runs (scratch reuse leaked state)", i)
		}
		if r1.Data[i] != ref.Data[i] {
			t.Fatalf("word %d differs across engines", i)
		}
	}
	for _, threads := range []int{2, 4} {
		c := exec(threads)
		for i := range ref.Data {
			if c.Data[i] != ref.Data[i] {
				t.Fatalf("word %d differs with %d kernel threads (accumulation order not fixed)", i, threads)
			}
		}
	}
}

// TestCAPSPredictOmega checks Engine.Predict's exponent reporting: CAPS
// plans carry ω = log₂7 and the BDHS lower bound; every classical
// algorithm reports ω = 3 with predictions built from the exact same
// arithmetic as the pre-exponent-aware API (the ω = 3 paths delegate to
// the original functions, so the numbers are bitwise-unchanged).
func TestCAPSPredictOmega(t *testing.T) {
	const m, n, k, p, s = 1024, 1024, 1024, 49, 1 << 18
	net := PizDaintNetwork()
	caps, err := NewEngine(WithAlgorithm("caps"), WithProcs(p), WithMemory(s), WithNetwork(net))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := caps.Predict(context.Background(), m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Log2(7); pred.Omega != want {
		t.Fatalf("CAPS ω = %v, want log₂7 = %v", pred.Omega, want)
	}
	if pred.LowerBound <= 0 || pred.SerialTime <= 0 {
		t.Fatalf("degenerate CAPS prediction %+v", pred)
	}
	// The CAPS bound must undercut Theorem 2's classical bound here:
	// that is the whole point of a sub-cubic algorithm.
	if classical := ParallelLowerBound(m, n, k, p, s); pred.LowerBound >= classical {
		t.Fatalf("CAPS bound %v not below the classical Theorem 2 bound %v", pred.LowerBound, classical)
	}

	for _, name := range []string{"cosma", "summa", "2.5d", "carma", "cannon"} {
		eng, err := NewEngine(WithAlgorithm(name), WithProcs(16), WithMemory(s), WithNetwork(net))
		if err != nil {
			t.Fatal(err)
		}
		pr, err := eng.Predict(context.Background(), 512, 512, 512)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Omega != 3 {
			t.Fatalf("%s: ω = %v, want 3", name, pr.Omega)
		}
		// Bitwise regression: the prediction is exactly the plan's model
		// under net.Time/TimeOverlap — the identical arithmetic the
		// removed PredictTime/PredictTimes performed.
		plan, err := eng.Plan(context.Background(), 512, 512, 512)
		if err != nil {
			t.Fatal(err)
		}
		mod := plan.Model()
		if want := net.Time(mod.MaxFlops, mod.MaxRecv, mod.MaxMsgs); pr.SerialTime != want {
			t.Fatalf("%s: serial prediction %v != model evaluation %v", name, pr.SerialTime, want)
		}
		if want := net.TimeOverlap(mod.MaxFlops, mod.MaxRecv, mod.MaxMsgs); pr.OverlapTime != want {
			t.Fatalf("%s: overlap prediction %v != model evaluation %v", name, pr.OverlapTime, want)
		}
		if want := ParallelLowerBound(512, 512, 512, 16, s); pr.LowerBound != want {
			t.Fatalf("%s: lower bound %v != Theorem 2's %v", name, pr.LowerBound, want)
		}
	}
}

// TestOmegaThreeBitwiseRegression pins the ω-parameterized bound:
// FastLowerBound at ω = 3 must reproduce Theorem 2 bitwise.
func TestOmegaThreeBitwiseRegression(t *testing.T) {
	if got, want := bound.FastLowerBound(2048, 2048, 2048, 64, 1<<18, 3),
		ParallelLowerBound(2048, 2048, 2048, 64, 1<<18); got != want {
		t.Fatalf("FastLowerBound(ω=3) = %v, ParallelLowerBound = %v", got, want)
	}
}
