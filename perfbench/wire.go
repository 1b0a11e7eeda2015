package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"cosma"
)

// wireWorkerEnv carries "m,n,k,seed" to a spawned wire worker: the
// benchmark binary re-executed to host the ranks of the second process.
const wireWorkerEnv = "PERFBENCH_WIRE_WORKER"

// wireProcs is how many OS processes the wire workload's ranks span.
const wireProcs = 2

// wireSetups is how many times a run sets the wire machine up.
const wireSetups = 15

// children are the worker processes alive now, so the watchdog can
// kill them.
var children struct {
	sync.Mutex
	set map[*exec.Cmd]bool
}

func killChildren() {
	children.Lock()
	defer children.Unlock()
	for c := range children.set {
		c.Process.Kill()
	}
}

// inputs draws a workload's two factors from the seed; the wire worker
// draws the same ones.
func inputs(sh shape, seed int64) (a, b *cosma.Matrix) {
	return cosma.RandomMatrix(sh.m, sh.k, seed), cosma.RandomMatrix(sh.k, sh.n, seed^0x5eed)
}

// wireCluster is the launcher's side of a two-process wire machine: its
// engine (hosting ranks 0 and 1) and the worker process (ranks 2 and 3),
// which runs one collective Exec per line written to its stdin and exits
// when stdin closes.
type wireCluster struct {
	eng   *cosma.Engine
	cmd   *exec.Cmd
	stdin io.WriteCloser
	dir   string
}

func startWire(r *run, sh shape, p int) (*wireCluster, error) {
	if err := os.MkdirAll(r.cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.cfg.workDir, "w")
	if err != nil {
		return nil, err
	}
	addrs := cosma.WireSocketAddrs(dir, wireProcs)
	peers := make([]string, p)
	for rank := range peers {
		peers[rank] = addrs[rank*wireProcs/p]
	}
	self, err := os.Executable()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), cosma.WireEnv(p/wireProcs, peers)...)
	cmd.Env = append(cmd.Env, fmt.Sprintf("%s=%d,%d,%d,%d", wireWorkerEnv, sh.m, sh.n, sh.k, r.cfg.seed))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting wire worker: %w", err)
	}
	children.Lock()
	if children.set == nil {
		children.set = make(map[*exec.Cmd]bool)
	}
	children.set[cmd] = true
	children.Unlock()
	w := &wireCluster{cmd: cmd, stdin: stdin, dir: dir}
	w.eng, err = cosma.NewEngine(cosma.WithWireTransport(cosma.WireConfig{Rank: 0, Peers: peers}))
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// exec runs one collective multiplication on both processes.
func (w *wireCluster) exec(ctx context.Context, a, b *cosma.Matrix) (*cosma.Matrix, *cosma.Report, error) {
	if _, err := io.WriteString(w.stdin, "x\n"); err != nil {
		return nil, nil, fmt.Errorf("signalling the wire worker: %w", err)
	}
	return w.eng.Exec(ctx, a, b)
}

// close stops the worker, waits for it and tears the mesh down.
func (w *wireCluster) close() error {
	w.stdin.Close()
	var err error
	if w.eng != nil {
		err = w.eng.Close()
	}
	done := make(chan error, 1)
	go func() { done <- w.cmd.Wait() }()
	var werr error
	select {
	case werr = <-done:
	case <-time.After(10 * time.Second):
		w.cmd.Process.Kill()
		werr = fmt.Errorf("wire worker did not exit: %v", <-done)
	}
	children.Lock()
	delete(children.set, w.cmd)
	children.Unlock()
	os.RemoveAll(w.dir)
	if err == nil && werr != nil {
		err = fmt.Errorf("wire worker: %w", werr)
	}
	return err
}

// wireWorker is the second process of the wire workload.
func wireWorker(spec string) int {
	var sh shape
	var seed int64
	if _, err := fmt.Sscanf(spec, "%d,%d,%d,%d", &sh.m, &sh.n, &sh.k, &seed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench wire worker: bad %s %q: %v\n", wireWorkerEnv, spec, err)
		return 2
	}
	cfg, ok, err := cosma.WireFromEnv()
	if err != nil || !ok {
		fmt.Fprintf(os.Stderr, "perfbench wire worker: no wire configuration: %v\n", err)
		return 2
	}
	eng, err := cosma.NewEngine(cosma.WithWireTransport(cfg))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench wire worker: %v\n", err)
		return 1
	}
	defer eng.Close()
	a, b := inputs(sh, seed)
	for sc := bufio.NewScanner(os.Stdin); sc.Scan(); {
		if _, _, err := eng.Exec(context.Background(), a, b); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench wire worker: %v\n", err)
			return 1
		}
	}
	return 0
}

func runWireSquare(r *run) error {
	sh := shape{512, 512, 512, 1}
	if r.cfg.tiny {
		sh = shape{64, 64, 64, 1}
	}
	spec := engineSpec{p: 4}
	a, b := inputs(sh, int64(r.cfg.seed))
	ctx := context.Background()

	// Set-up: worker-process start, mesh connect and the first
	// multiplication, repeated and reported as the median.
	var setup samples
	var wc *wireCluster
	var want *cosma.Matrix
	var first *cosma.Report
	for range wireSetups {
		if wc != nil {
			if err := wc.close(); err != nil {
				return err
			}
		}
		begin := time.Now()
		var err error
		if wc, err = startWire(r, sh, spec.p); err != nil {
			return err
		}
		c, rep, err := wc.exec(ctx, a, b)
		setup.add(time.Since(begin))
		if err != nil {
			wc.close()
			return fmt.Errorf("first wire Exec: %w", err)
		}
		if want == nil {
			want, first = c, rep
			r.op(cosma.VerifyProduct(a, b, c))
		} else {
			r.op(sameProduct(c, want))
		}
	}
	defer wc.close()
	r.words, r.msgs = first.MaxRecv, first.MaxMsgs
	r.set("setup_s", setup.median()/1e3)
	r.note("setup_s: median of %d set-ups, ms %s", wireSetups, setup.describe())

	// The same plan in one process must give the same product bit for bit.
	inproc, err := cosma.NewEngine(spec.options()...)
	if err != nil {
		return err
	}
	defer inproc.Close()
	c, irep, err := inproc.Exec(ctx, a, b)
	if err != nil {
		return err
	}
	r.op(sameProduct(c, want))
	r.note("plan %s; wire traffic %d words / %d messages, in-process %d / %d (the wire run adds the result gather to rank 0)",
		first.Grid, first.MaxRecv, first.MaxMsgs, irep.MaxRecv, irep.MaxMsgs)

	execOnce := func(int) (time.Duration, error) {
		begin := time.Now()
		c, rep, err := wc.exec(ctx, a, b)
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
		st := r.closedLoop(r.cfg.budget(1), 1, tailOps(950), execOnce)
		r.execMetrics(st, sh)
		return nil
	}

	untraced := r.closedLoop(r.cfg.budget(0.5), 1, 3, execOnce)
	traced := r.closedLoop(r.cfg.budget(0.25), 1, 3, func(int) (time.Duration, error) {
		op := r.tr.begin(nil, 0, "op:"+r.cfg.workload)
		defer r.tr.end(op, nil)
		s := r.tr.begin(op, 0, "wire.Engine.Exec")
		d, err := execOnce(0)
		r.tr.end(s, nil)
		return d, err
	})
	// The in-process counterpart: same p, same shape, same plan.
	te, err := newTracedExec(spec, sh)
	if err != nil {
		return err
	}
	r.closedLoop(r.cfg.budget(0.25), 1, 3, func(int) (time.Duration, error) {
		op := r.tr.begin(nil, 0, "op:in-process")
		defer r.tr.end(op, nil)
		return r.traceEngineOp(op, inproc, te, a, b, want)
	})
	p50 := untraced.lat.median()
	inprocMs := r.tr.durations("cosma.Engine.Exec").median()
	r.set("trace.overhead_ratio", traced.lat.median()/p50)
	r.set("wire.over_inprocess", p50/inprocMs)
	r.set("cosma.exec_ms_p50", inprocMs)
	cs := wc.eng.CacheStats()
	r.set("cosma.plan_hit_ratio", float64(cs.Hits)/float64(cs.Hits+cs.Misses))
	r.machineLayer()
	probe, err := r.probeShape(spec, sh, a, b, want)
	if err != nil {
		return err
	}
	r.engineLayer([]shape{sh}, []shapeProbe{probe}, []float64{p50}, sh.flops()/p50/1e6)
	r.zeroLayers("serve.http_self_ms", "serve.codec_ms", "serve.wait_ms", "serve.batch_mean", "serve.shed_ratio")
	return nil
}
