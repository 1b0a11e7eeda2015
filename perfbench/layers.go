package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"cosma"
	"cosma/internal/algo"
	"cosma/internal/machine"
	"cosma/internal/matrix"
)

// shape is one problem shape of a workload and its share of the
// workload's operations.
type shape struct {
	m, n, k int
	weight  float64
}

func (s shape) flops() float64 { return 2 * float64(s.m) * float64(s.n) * float64(s.k) }

func (s shape) String() string { return fmt.Sprintf("%d×%d×%d", s.m, s.n, s.k) }

// engineSpec is the engine configuration of a workload: COSMA with
// default options apart from p and, when s > 0, the memory per rank.
type engineSpec struct{ p, s int }

func (e engineSpec) options() []cosma.Option {
	opts := []cosma.Option{cosma.WithProcs(e.p)}
	if e.s > 0 {
		opts = append(opts, cosma.WithMemory(e.s))
	}
	return opts
}

func (e engineSpec) memory() int {
	if e.s > 0 {
		return e.s
	}
	return cosma.UnboundedMemory
}

// algoPlan fits the same COSMA plan the engine fits for the shape.
func (e engineSpec) algoPlan(sh shape) (algo.Plan, error) {
	runner, err := algo.New("cosma", algo.Config{Delta: cosma.DefaultDelta})
	if err != nil {
		return nil, err
	}
	return runner.Plan(sh.m, sh.n, sh.k, e.p, e.memory())
}

// sameProduct checks c against the reference bit for bit.
func sameProduct(c, want *cosma.Matrix) error {
	if c == nil || c.Rows != want.Rows || c.Cols != want.Cols {
		return fmt.Errorf("product has the wrong shape")
	}
	for i := 0; i < c.Rows; i++ {
		got := c.Data[i*c.Stride : i*c.Stride+c.Cols]
		ref := want.Data[i*want.Stride : i*want.Stride+want.Cols]
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(ref[j]) {
				return fmt.Errorf("product differs from the reference at (%d, %d): %v != %v", i, j, got[j], ref[j])
			}
		}
	}
	return nil
}

// tracedExec is an algo executor for one shape on a counting machine
// wrapped in the timing transport.
type tracedExec struct {
	exec *algo.Executor
	tt   *timingTransport
}

func newTracedExec(sp engineSpec, sh shape) (*tracedExec, error) {
	plan, err := sp.algoPlan(sh)
	if err != nil {
		return nil, err
	}
	tt := newTimingTransport(machine.New(sp.p).Transport())
	exec, err := algo.NewExecutorOpts(plan, algo.ExecOptions{Machine: machine.NewWithTransport(tt)})
	if err != nil {
		return nil, err
	}
	return &tracedExec{exec: exec, tt: tt}, nil
}

// traceEngineOp runs one operation through Engine.Exec and then, on the
// same inputs, through the algo executor on the timing machine, with a
// child span each under parent. It returns the Engine.Exec time and the
// first failure of either call.
func (r *run) traceEngineOp(parent *span, eng *cosma.Engine, te *tracedExec, a, b, want *cosma.Matrix) (time.Duration, error) {
	ctx := context.Background()
	s := r.tr.begin(parent, parent.Thread, "cosma.Engine.Exec")
	c, _, err := eng.Exec(ctx, a, b)
	d := r.tr.end(s, nil)
	if err == nil {
		err = sameProduct(c, want)
	}
	if err != nil {
		return d, err
	}

	s = r.tr.begin(parent, parent.Thread, "algo.Executor.Exec")
	c, rep, err := te.exec.Exec(ctx, a, b)
	wall := time.Since(s.Begin)
	ms := te.tt.sample()
	r.tr.end(s, map[string]float64{
		"ranks":       float64(te.tt.P()),
		"wait_max_ms": ms.waitMax.Seconds() * 1e3,
		"wait_sum_ms": ms.waitSum.Seconds() * 1e3,
		"send_sum_ms": ms.sendSum.Seconds() * 1e3,
		"words_max":   float64(ms.wordsMax),
		"msgs_max":    float64(ms.msgsMax),
		"wall_ms":     wall.Seconds() * 1e3,
	})
	if err == nil {
		err = sameProduct(c, want)
	}
	if err == nil && (ms.wordsMax != rep.MaxRecv || ms.msgsMax != rep.MaxMsgs) {
		err = fmt.Errorf("timing transport counted %d words / %d messages, the report %d / %d",
			ms.wordsMax, ms.msgsMax, rep.MaxRecv, rep.MaxMsgs)
	}
	return d, err
}

// machineLayer sets the machine.* time metrics and algo.exec_ms_p50
// from the traced algo executions.
func (r *run) machineLayer() {
	spans := r.tr.named("algo.Executor.Exec")
	var send, maxWait samples
	var waitSum, sendSum, capacity float64
	for _, s := range spans {
		a := s.Attrs
		maxWait = append(maxWait, a["wait_max_ms"])
		send = append(send, a["send_sum_ms"])
		waitSum += a["wait_sum_ms"]
		sendSum += a["send_sum_ms"]
		capacity += a["ranks"] * a["wall_ms"]
	}
	r.set("algo.exec_ms_p50", r.tr.durations("algo.Executor.Exec").median())
	r.set("machine.recv_wait_ms_max", maxWait.median())
	r.set("machine.send_ms_sum", send.median())
	r.set("machine.recv_wait_share", waitSum/capacity)
	r.set("machine.compute_share", 1-(waitSum+sendSum)/capacity)
}

// shapeProbe holds the once-per-shape layer measurements.
type shapeProbe struct {
	planCold, newExec, firstExec time.Duration
	planHitUs                    float64
	warmMs                       float64 // median warm Executor.Exec
	words, msgs                  int64
	predicted, crit              float64 // seconds, timed transport
	kernelMs, kernelFlops        float64 // one local-domain Mul
	kernelMsPerExec              float64
	oneThreadMs                  float64
}

// probeShape measures the cold-start calls, a plan-cache hit, the
// traffic the timing transport counts, the α-β-γ model and the local
// kernel for one shape, all outside any timed window.
func (r *run) probeShape(sp engineSpec, sh shape, a, b, want *cosma.Matrix) (shapeProbe, error) {
	ctx := context.Background()
	var p shapeProbe
	eng, err := cosma.NewEngine(sp.options()...)
	if err != nil {
		return p, err
	}
	defer eng.Close()
	begin := time.Now()
	plan, err := eng.Plan(ctx, sh.m, sh.n, sh.k)
	p.planCold = time.Since(begin)
	if err != nil {
		return p, err
	}
	begin = time.Now()
	ex := plan.NewExecutor()
	p.newExec = time.Since(begin)
	begin = time.Now()
	c, rep, err := ex.Exec(ctx, a, b)
	p.firstExec = time.Since(begin)
	if err == nil {
		err = sameProduct(c, want)
	}
	r.op(err)
	var warm samples
	for start := time.Now(); len(warm) == 0 || time.Since(start) < 20*time.Millisecond; {
		begin := time.Now()
		if _, _, err := ex.Exec(ctx, a, b); err != nil {
			return p, err
		}
		warm.add(time.Since(begin))
	}
	p.warmMs = warm.median()

	var hits samples
	for range 200 {
		begin := time.Now()
		if _, err := eng.Plan(ctx, sh.m, sh.n, sh.k); err != nil {
			return p, err
		}
		hits.add(time.Since(begin))
	}
	p.planHitUs = hits.median() * 1e3

	te, err := newTracedExec(sp, sh)
	if err != nil {
		return p, err
	}
	c, trep, err := te.exec.Exec(ctx, a, b)
	if err == nil {
		err = sameProduct(c, want)
	}
	r.op(err)
	ms := te.tt.sample()
	p.words, p.msgs = ms.wordsMax, ms.msgsMax
	if rep != nil && trep != nil && (rep.MaxRecv != trep.MaxRecv || rep.MaxMsgs != trep.MaxMsgs || p.words != rep.MaxRecv || p.msgs != rep.MaxMsgs) {
		r.op(fmt.Errorf("%v: traffic differs: engine %d/%d, algo %d/%d, timing transport %d/%d words/messages",
			sh, rep.MaxRecv, rep.MaxMsgs, trep.MaxRecv, trep.MaxMsgs, p.words, p.msgs))
	}

	aplan, err := sp.algoPlan(sh)
	if err != nil {
		return p, err
	}
	net := cosma.SharedMemoryNetwork().WithGamma(r.cal.Gamma)
	timed, err := algo.NewExecutorOpts(aplan, algo.ExecOptions{Network: &net})
	if err != nil {
		return p, err
	}
	c, mrep, err := timed.Exec(ctx, a, b)
	if err == nil {
		err = sameProduct(c, want)
	}
	r.op(err)
	if mrep != nil {
		p.predicted, p.crit = mrep.PredictedTime, mrep.CritPathTime
	}

	dec, ok := plan.Decomposition()
	if !ok {
		return p, fmt.Errorf("%v: COSMA plan has no decomposition", sh)
	}
	threads := max(1, runtime.GOMAXPROCS(0)/max(1, dec.RanksUsed))
	step := min(dec.StepSize, dec.DomainK) // unbounded memory allows any step
	rng := rand.New(rand.NewSource(int64(r.cfg.seed)))
	ka := matrix.Random(dec.DomainM, step, rng)
	kb := matrix.Random(step, dec.DomainN, rng)
	p.kernelMs = timeMul(matrix.NewKernel(threads), ka, kb, 20*time.Millisecond)
	p.kernelFlops = 2 * float64(dec.DomainM) * float64(dec.DomainN) * float64(step)
	// Every used rank runs Rounds such calls with `threads` workers each,
	// sharing GOMAXPROCS cores.
	share := max(1, float64(dec.RanksUsed*threads)/float64(runtime.GOMAXPROCS(0)))
	p.kernelMsPerExec = p.kernelMs * float64(dec.Rounds) * share
	p.oneThreadMs = timeMul(matrix.NewKernel(1), a, b, 50*time.Millisecond)
	return p, nil
}

// timeMul returns the median time in ms of C += A·B on kern, repeated
// for at least minTime and at least three times after one warm-up call.
func timeMul(kern *matrix.Kernel, a, b *matrix.Dense, minTime time.Duration) float64 {
	c := matrix.New(a.Rows, b.Cols)
	kern.Mul(c, a, b)
	var t samples
	for start := time.Now(); len(t) < 3 || time.Since(start) < minTime; {
		begin := time.Now()
		kern.Mul(c, a, b)
		t.add(time.Since(begin))
	}
	return t.median()
}

// engineLayer sets the cosma.*, matrix.*, model.* and machine traffic
// metrics from the per-shape probes. Cold-start times add up over the
// shapes, since set-up pays each once; the rest are weighted by each
// shape's share of operations. measuredMs is the measured median exec
// time per shape and gflops the end-to-end rate.
func (r *run) engineLayer(shapes []shape, probes []shapeProbe, measuredMs []float64, gflops float64) {
	var cold, newExec, first, hitUs, kMs, kFlops, kPerExec, oneMs, flops, pred, crit, measured float64
	var words, msgs int64
	for i, p := range probes {
		w := shapes[i].weight
		cold += ms(p.planCold)
		newExec += ms(p.newExec)
		first += ms(p.firstExec)
		hitUs += w * p.planHitUs
		kMs += w * p.kernelMs
		kFlops += w * p.kernelFlops
		kPerExec += w * p.kernelMsPerExec
		oneMs += w * p.oneThreadMs
		flops += w * shapes[i].flops()
		pred += w * p.predicted * 1e3
		crit += w * p.crit * 1e3
		measured += w * measuredMs[i]
		words = max(words, p.words)
		msgs = max(msgs, p.msgs)
	}
	r.set("cosma.plan_cold_ms", cold)
	r.set("cosma.new_executor_ms", newExec)
	r.set("cosma.first_exec_ms", first)
	r.set("cosma.plan_hit_us", hitUs)
	r.set("machine.words_max", float64(words))
	r.set("machine.msgs_max", float64(msgs))
	r.set("matrix.kernel_gflops", kFlops/kMs/1e6)
	r.set("matrix.kernel_ms_per_exec", kPerExec)
	r.set("matrix.gflops_1thread", flops/oneMs/1e6)
	r.set("matrix.calibrated_gflops", r.cal.GFlops)
	r.set("matrix.peak_fraction", gflops/r.cal.GFlops)
	r.set("model.predicted_ms", pred)
	r.set("model.crit_path_ms", crit)
	r.set("model.measured_over_predicted", measured/crit)
}

// zeroLayers sets the metrics of layers a workload never enters.
func (r *run) zeroLayers(names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
}
