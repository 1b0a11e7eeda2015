// Command perfbench is the repository's benchmark: one command that
// runs the four workloads of README.md through the two end-to-end paths
// (one Engine.Exec, one cosmad request), checks every product, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 101, "failed": 0, "metrics": {"setup_s": {"value": 0.18, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end set, measured with
// tracing off; with --trace 1 a traced run times the calls into each
// layer and reports the per-layer set. Build and run it through run.sh:
//
//	bash perfbench/run.sh --workload exec-square --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare old.jsonl new.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cosma"
)

// commit is the source revision, stamped by run.sh at build time.
var commit = "unknown"

// deadline bounds a whole run: past it every spawned process is killed
// and the benchmark exits without a result.
const deadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every problem to smoke-test size.
	tiny bool
	// workDir holds wire sockets; relative paths keep them short.
	workDir string
	// corrupt flips one bit of one timed product before it is checked,
	// so the smoke test can see a wrong product counted as a failure.
	corrupt bool
}

// budget is the measuring time of one phase: the whole of --seconds
// untraced, split between an untraced and a traced phase when tracing.
func (c config) budget(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// run accumulates one benchmark run's counts, metrics and notes.
type run struct {
	cfg       config
	cal       cosma.Calibration
	tr        *tracer // nil unless --trace 1
	attempted atomic.Int64
	failed    atomic.Int64
	corrupted atomic.Bool
	// words and msgs are the end-to-end path's Report.MaxRecv and
	// MaxMsgs, kept in every mode so traced and untraced runs compare.
	words, msgs int64

	mu      sync.Mutex
	metrics map[string]metric
	notes   []string
}

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func (r *run) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and, when err is non-nil, a failure.
// A correctness check outside the timed window counts the same way.
func (r *run) op(err error) bool {
	r.attempted.Add(1)
	if err != nil {
		if r.failed.Add(1) <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.cfg.workload, err)
		}
		return false
	}
	return true
}

// tamper flips one bit of c once per run when the smoke test asks for
// a deliberately wrong product.
func (r *run) tamper(c *cosma.Matrix) {
	if r.cfg.corrupt && c != nil && len(c.Data) > 0 && r.corrupted.CompareAndSwap(false, true) {
		c.Data[0] = -c.Data[0] - 1
	}
}

// workloadDef is one workload; README.md and BENCHMARK.json say why
// each was chosen.
type workloadDef struct {
	name string
	run  func(r *run) error
}

var workloads = []workloadDef{
	{"exec-square", runExecSquare},
	{"exec-largek-tight", runExecLargeK},
	{"serve-mixed", runServeMixed},
	{"wire-square", runWireSquare},
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// execute runs one workload and checks that it produced exactly the
// metric set its mode promises.
func execute(cfg config) (*run, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if !(cfg.seconds > 0) {
		return nil, fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	r := &run{cfg: cfg, metrics: make(map[string]metric)}
	// Calibration runs before anything is timed; it is memoized, so the
	// layer metrics that read it later pay nothing.
	r.cal = cosma.Calibrate(0, 0)
	if cfg.trace {
		r.tr = newTracer()
	}
	if err := w.run(r); err != nil {
		return nil, err
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	var missing []string
	for _, m := range want {
		if _, ok := r.metrics[m.name]; !ok {
			missing = append(missing, m.name)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("workload %s produced no %s", cfg.workload, strings.Join(missing, ", "))
	}
	for name := range r.metrics {
		if !inSet(want, name) {
			delete(r.metrics, name)
		}
	}
	return r, nil
}

func (r *run) result() result {
	return result{
		Correct:   r.failed.Load() == 0 && r.attempted.Load() > 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   r.metrics,
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if spec := os.Getenv(wireWorkerEnv); spec != "" {
		os.Exit(wireWorker(spec))
	}

	var cfg config
	var traceFlag int
	var results string
	flag.StringVar(&cfg.workload, "workload", "", "workload name: exec-square, exec-largek-tight, serve-mixed or wire-square")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input is drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measuring time of one run")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	flag.StringVar(&results, "results", "perfbench/results", "directory the run's record and trace are written to (empty: none)")
	flag.Parse()
	cfg.workDir = "perfbench/.build"
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1

	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; aborting\n", deadline)
		killChildren()
		os.Exit(1)
	})
	r, err := execute(cfg)
	watchdog.Stop()
	killChildren()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	res := r.result()
	fp := takeFingerprint(r.cal, cfg.seed)
	printHuman(os.Stdout, cfg, fp, r)
	if results != "" {
		if err := writeRecord(results, cfg, fp, r, res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: recording result: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func printHuman(w *os.File, cfg config, fp fingerprint, r *run) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "machine: %s\n", fp)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed (error_ratio %.4g)\n",
		r.attempted.Load(), r.failed.Load(), float64(r.failed.Load())/float64(max(1, r.attempted.Load())))
}

// record is one run as kept in <results>/runs.jsonl: the result line
// plus everything needed to compare it later.
type record struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Time        time.Time         `json:"time"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Notes       []string          `json:"notes,omitempty"`
	CommWords   int64             `json:"comm_words_max"`
	CommMsgs    int64             `json:"comm_msgs_max"`
	Correct     bool              `json:"correct"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
}

// writeRecord appends the run to <dir>/runs.jsonl, prints the difference
// from the last recorded run of the same workload and mode, and writes
// the traced run's spans next to it.
func writeRecord(dir string, cfg config, fp fingerprint, r *run, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "runs.jsonl")
	prev, err := readRecords(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for i := len(prev) - 1; i >= 0; i-- {
		if p := prev[i]; p.Workload == cfg.workload && p.Trace == cfg.trace {
			printDiff(os.Stdout, p, res.Metrics)
			break
		}
	}
	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Time: time.Now().UTC(), Fingerprint: fp, Notes: r.notes, CommWords: r.words, CommMsgs: r.msgs,
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if r.tr != nil {
		return r.tr.write(filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed)))
	}
	return nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

func printDiff(w *os.File, prev record, now map[string]metric) {
	fmt.Fprintf(w, "diff against the last recorded run (seed %d, %s):\n", prev.Seed, prev.Time.Format(time.RFC3339))
	names := make([]string, 0, len(now))
	for n := range now {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p, ok := prev.Metrics[n]
		if !ok {
			continue
		}
		delta := "n/a"
		if p.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(now[n].Value-p.Value)/p.Value)
		}
		fmt.Fprintf(w, "  %-34s %12.6g -> %12.6g %s (%s)\n", n, p.Value, now[n].Value, now[n].Unit, delta)
	}
}

// fingerprint identifies the machine and build a result came from.
type fingerprint struct {
	CPU              string   `json:"cpu"`
	NProc            int      `json:"nproc"`
	GOMAXPROCS       int      `json:"gomaxprocs"`
	GoVersion        string   `json:"go_version"`
	KernelVariants   []string `json:"kernel_variants"`
	Dispatched       string   `json:"dispatched_variant"`
	CalibratedGflops float64  `json:"calibrated_gflops"`
	Gamma            float64  `json:"gamma_s_per_flop"`
	Commit           string   `json:"commit"`
	Seed             uint64   `json:"seed"`
}

func takeFingerprint(cal cosma.Calibration, seed uint64) fingerprint {
	return fingerprint{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), KernelVariants: cosma.KernelVariants(),
		Dispatched: cal.Variant, CalibratedGflops: cal.GFlops, Gamma: cal.Gamma,
		Commit: commit, Seed: seed,
	}
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d %s variants=%v dispatched=%s calibrated=%.4g Gflop/s gamma=%.4g s/flop commit=%s seed=%d",
		f.CPU, f.NProc, f.GOMAXPROCS, f.GoVersion, f.KernelVariants, f.Dispatched,
		f.CalibratedGflops, f.Gamma, f.Commit, f.Seed)
}

// cpuModel reads the CPU model name from /proc/cpuinfo (Linux);
// elsewhere it reports the architecture.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}
