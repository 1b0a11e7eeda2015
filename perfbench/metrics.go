package main

// metricDef names one reported metric, its unit and which direction is
// better. BENCHMARK.json lists the same names and units; the smoke test
// keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what --trace 0 reports, measured with tracing off. Every
// workload reports every one; README.md says what each means on a
// workload without an HTTP front end or without a single shape.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"exec_ms_p50", "ms", "lower"},
	{"exec_ms_tail", "ms", "lower"},
	{"gflops", "Gflop/s", "higher"},
	{"comm_words_max", "words", "lower"},
	{"comm_msgs_max", "messages", "lower"},
	{"serve_rps", "req/s", "higher"},
	{"serve_ms_p50", "ms", "lower"},
	{"serve_ms_tail", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
}

// perLayer is what --trace 1 reports. A layer a workload never enters
// reads 0 there.
var perLayer = []metricDef{
	{"serve.http_self_ms", "ms", "lower"},
	{"serve.codec_ms", "ms", "lower"},
	{"serve.wait_ms", "ms", "lower"},
	{"serve.batch_mean", "pairs", "higher"},
	{"serve.shed_ratio", "ratio", "lower"},
	{"cosma.plan_cold_ms", "ms", "lower"},
	{"cosma.new_executor_ms", "ms", "lower"},
	{"cosma.first_exec_ms", "ms", "lower"},
	{"cosma.plan_hit_us", "us", "lower"},
	{"cosma.plan_hit_ratio", "ratio", "higher"},
	{"cosma.exec_ms_p50", "ms", "lower"},
	{"algo.exec_ms_p50", "ms", "lower"},
	{"machine.recv_wait_ms_max", "ms", "lower"},
	{"machine.recv_wait_share", "ratio", "lower"},
	{"machine.send_ms_sum", "ms", "lower"},
	{"machine.compute_share", "ratio", "higher"},
	{"machine.words_max", "words", "lower"},
	{"machine.msgs_max", "messages", "lower"},
	{"matrix.kernel_gflops", "Gflop/s", "higher"},
	{"matrix.kernel_ms_per_exec", "ms", "lower"},
	{"matrix.gflops_1thread", "Gflop/s", "higher"},
	{"matrix.calibrated_gflops", "Gflop/s", "higher"},
	{"matrix.peak_fraction", "ratio", "higher"},
	{"model.predicted_ms", "ms", "lower"},
	{"model.crit_path_ms", "ms", "lower"},
	{"model.measured_over_predicted", "ratio", "lower"},
	{"wire.over_inprocess", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

func lookup(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

func unitOf(name string) string {
	m, ok := lookup(name)
	if !ok {
		panic("perfbench: unknown metric " + name)
	}
	return m.unit
}

func inSet(set []metricDef, name string) bool {
	for _, m := range set {
		if m.name == name {
			return true
		}
	}
	return false
}
