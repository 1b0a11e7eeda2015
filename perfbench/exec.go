package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cosma"
)

// loopStats is one closed-loop phase: latencies of the operations that
// succeeded, how many did, the phase's wall time and the heap bytes the
// whole process allocated during it.
type loopStats struct {
	lat        samples
	ok, ops    int64
	wall       time.Duration
	allocBytes uint64
}

// closedLoop runs op from `clients` goroutines, each issuing its next
// operation only when the previous one returned, until budget has
// passed and every client has completed at least minOps operations. op
// times only the operation itself and returns an error for a failed or
// wrong one; the correctness check runs outside its timing.
func (r *run) closedLoop(budget time.Duration, clients, minOps int, op func(client int) (time.Duration, error)) loopStats {
	var st loopStats
	var mu sync.Mutex
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	// Every phase starts from a collected heap, so set-up garbage is
	// not charged to the first timed operations.
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat samples
			var ok, ops int64
			for n := 0; n < minOps || time.Since(start) < budget; n++ {
				d, err := op(c)
				ops++
				if r.op(err) {
					ok++
					lat.add(d)
				}
			}
			mu.Lock()
			st.lat = append(st.lat, lat...)
			st.ok += ok
			st.ops += ops
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	st.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	st.allocBytes = after.TotalAlloc - before.TotalAlloc
	return st
}

// execMetrics sets the end-to-end metrics of a workload whose operation
// is one Engine.Exec. Without an HTTP front end the request is the
// Exec call itself, so serve_* read the same samples as exec_*.
func (r *run) execMetrics(st loopStats, sh shape) {
	p50 := st.lat.median()
	tail, _ := st.lat.tail()
	r.set("exec_ms_p50", p50)
	r.set("exec_ms_tail", tail)
	r.set("serve_ms_p50", p50)
	r.set("serve_ms_tail", tail)
	r.set("serve_rps", float64(st.ok)/st.wall.Seconds())
	r.set("gflops", sh.flops()/p50/1e6)
	r.set("comm_words_max", float64(r.words))
	r.set("comm_msgs_max", float64(r.msgs))
	r.set("alloc_mb_per_op", float64(st.allocBytes)/float64(max(1, st.ops))/1e6)
	r.note("Engine.Exec ms: %s", st.lat.describe())
}

// execWorkload is an Engine.Exec workload: one shape on one engine
// configuration, set up setupReps times, with its tail read at tail
// tenths of a percent.
type execWorkload struct {
	sh, tiny  shape
	spec      engineSpec
	setupReps int
	tail      int
}

func runExecSquare(r *run) error {
	const n = 1024
	return runExec(r, execWorkload{
		sh: shape{n, n, n, 1}, tiny: shape{64, 64, 64, 1},
		spec:      engineSpec{p: 16, s: 3 * n * n / 16},
		setupReps: 11, tail: 950,
	})
}

func runExecLargeK(r *run) error {
	return runExec(r, execWorkload{
		sh: shape{128, 128, 32768, 1}, tiny: shape{16, 16, 2048, 1},
		spec:      engineSpec{p: 32, s: 4096},
		setupReps: 5, tail: 750,
	})
}

// execSetup builds an engine and runs the first operation reps times,
// returning the last engine, the first product and report, and the
// median set-up time. Every set-up's product must match the first.
func (r *run) execSetup(spec engineSpec, a, b *cosma.Matrix, reps int) (*cosma.Engine, *cosma.Matrix, *cosma.Report, error) {
	ctx := context.Background()
	var setup samples
	var eng *cosma.Engine
	var want *cosma.Matrix
	var first *cosma.Report
	for i := 0; i < reps; i++ {
		if eng != nil {
			eng.Close()
		}
		begin := time.Now()
		e, err := cosma.NewEngine(spec.options()...)
		if err != nil {
			return nil, nil, nil, err
		}
		c, rep, err := e.Exec(ctx, a, b)
		setup.add(time.Since(begin))
		eng = e
		if err != nil {
			return nil, nil, nil, fmt.Errorf("first Exec: %w", err)
		}
		if want == nil {
			want, first = c, rep
			r.op(cosma.VerifyProduct(a, b, c))
		} else {
			r.op(sameProduct(c, want))
		}
	}
	r.set("setup_s", setup.median()/1e3)
	r.note("setup_s: median of %d set-ups, ms %s", reps, setup.describe())
	return eng, want, first, nil
}

func runExec(r *run, w execWorkload) error {
	sh := w.sh
	if r.cfg.tiny {
		sh = w.tiny
	}
	a, b := inputs(sh, int64(r.cfg.seed))
	eng, want, first, err := r.execSetup(w.spec, a, b, w.setupReps)
	if err != nil {
		return err
	}
	defer eng.Close()
	r.words, r.msgs = first.MaxRecv, first.MaxMsgs
	r.note("plan %s on p=%d", first.Grid, w.spec.p)

	ctx := context.Background()
	execOnce := func(int) (time.Duration, error) {
		begin := time.Now()
		c, rep, err := eng.Exec(ctx, a, b)
		d := time.Since(begin)
		if err != nil {
			return d, err
		}
		r.tamper(c)
		if rep.MaxRecv != first.MaxRecv || rep.MaxMsgs != first.MaxMsgs {
			return d, fmt.Errorf("traffic changed between runs: %d/%d words/messages, first %d/%d",
				rep.MaxRecv, rep.MaxMsgs, first.MaxRecv, first.MaxMsgs)
		}
		return d, sameProduct(c, want)
	}
	if !r.cfg.trace {
		st := r.closedLoop(r.cfg.budget(1), 1, tailOps(w.tail), execOnce)
		r.execMetrics(st, sh)
		return nil
	}

	untraced := r.closedLoop(r.cfg.budget(0.5), 1, 3, execOnce)
	te, err := newTracedExec(w.spec, sh)
	if err != nil {
		return err
	}
	traced := r.closedLoop(r.cfg.budget(0.5), 1, 3, func(int) (time.Duration, error) {
		op := r.tr.begin(nil, 0, "op:"+r.cfg.workload)
		d, err := r.traceEngineOp(op, eng, te, a, b, want)
		r.tr.end(op, nil)
		return d, err
	})
	p50 := untraced.lat.median()
	r.set("trace.overhead_ratio", traced.lat.median()/p50)
	r.set("cosma.exec_ms_p50", r.tr.durations("cosma.Engine.Exec").median())
	cs := eng.CacheStats()
	r.set("cosma.plan_hit_ratio", float64(cs.Hits)/float64(cs.Hits+cs.Misses))
	r.machineLayer()
	probe, err := r.probeShape(w.spec, sh, a, b, want)
	if err != nil {
		return err
	}
	r.engineLayer([]shape{sh}, []shapeProbe{probe}, []float64{p50}, sh.flops()/p50/1e6)
	r.zeroLayers("serve.http_self_ms", "serve.codec_ms", "serve.wait_ms", "serve.batch_mean",
		"serve.shed_ratio", "wire.over_inprocess")
	return nil
}
