package bench

// metricDef names a reported metric, its unit and the direction in which it
// improves. BENCHMARK.json lists the same metrics; a test holds them equal.
type metricDef struct {
	Name   string
	Unit   string
	Better Better
}

// endToEnd are the untraced run's metrics: host time and memory as a user of
// the simulator sees them, on every workload. An op is an Invoke (with its
// flush) on warm-ref and lukewarm-jbreap, a request on fleet-tiny and a
// runner cell on sweep.
var endToEnd = []metricDef{
	{"wall_s", "s", Lower},       // median pass wall time
	{"op_ms_p50", "ms", Lower},   // median host time per op
	{"op_ms_p90", "ms", Lower},   // 90th percentile host time per op
	{"setup_s", "s", Lower},      // median per-pass set-up time
	{"peak_rss_mb", "MB", Lower}, // peak resident set of the process
}

// perLayer are the traced run's metrics, named <layer>.<metric>. Times per
// op come from replays of the workload's own invocations or from spans;
// counts and ratios come from the layers' own counters. A workload that
// bypasses a layer reports 0 for its counts, ratios and shares.
var perLayer = []metricDef{
	{"program.walk_ns_per_instr", "ns", Lower},
	{"program.reset_ns", "ns", Lower},
	{"program.instrs", "count", Lower},
	{"vm.translate_ns", "ns", Lower},
	{"vm.itlb_misses", "count", Lower},
	{"vm.dtlb_misses", "count", Lower},
	{"vm.pages_mapped", "count", Lower},
	{"mem.fetch_ns", "ns", Lower},
	{"mem.data_ns", "ns", Lower},
	{"mem.flush_ns", "ns", Lower},
	{"mem.demand_accesses", "count", Lower},
	{"mem.l1i_misses", "count", Lower},
	{"mem.l1d_misses", "count", Lower},
	{"mem.l2_misses", "count", Lower},
	{"mem.llc_misses", "count", Lower},
	{"mem.evictions", "count", Lower},
	{"mem.prefetch_useful_ratio", "ratio", Higher},
	{"cpu.branch_ns", "ns", Lower},
	{"cpu.mispredicts", "count", Lower},
	{"cpu.resteers", "count", Lower},
	{"cpu.exec_residual_ns_per_instr", "ns", Lower},
	{"core.replay_ns", "ns", Lower},
	{"core.record_ns_per_fetch", "ns", Lower},
	{"core.replay_prefetches", "count", Lower},
	{"core.recorded_entries", "count", Lower},
	{"core.dropped_entries", "count", Lower},
	{"core.prefetch_useful_ratio", "ratio", Higher},
	{"reap.restore_ns", "ns", Lower},
	{"reap.record_ns_per_access", "ns", Lower},
	{"reap.restored_pages", "count", Lower},
	{"reap.used_ratio", "ratio", Higher},
	{"serverless.invoke_ns_per_instr", "ns", Lower},
	{"serverless.invoke_ns", "ns", Lower},
	{"serverless.node_dispatches", "count", Lower},
	{"serverless.cold_starts", "count", Lower},
	{"sched.placements", "count", Lower},
	{"sched.place_pct", "%", Lower},
	{"sched.keepalive_pct", "%", Lower},
	{"predict.forecast_pct", "%", Lower},
	{"predict.prewarms_scheduled", "count", Lower},
	{"predict.prewarm_used_ratio", "ratio", Higher},
	{"predict.wasted_replay_bytes", "B", Lower},
	{"cluster.offered", "count", Higher},
	{"cluster.failed", "count", Lower},
	{"cluster.shed", "count", Lower},
	{"cluster.retries", "count", Lower},
	{"cluster.hedges", "count", Lower},
	{"cluster.hedge_useful_ratio", "ratio", Higher},
	{"runner.cells", "count", Higher},
	{"runner.cache_hits", "count", Higher},
	{"runner.parallel_efficiency", "ratio", Higher},
	{"experiments.sched_pct", "%", Lower},
	{"experiments.coldstart_pct", "%", Lower},
	{"experiments.perf_pct", "%", Lower},
	{"gc.alloc_mb", "MB", Lower},
	{"gc.cycles", "count", Lower},
	{"gc.pause_ms", "ms", Lower},
	{"attrib.residual_pct", "%", Lower},
	{"attrib.residual_ns_per_op", "ns", Lower},
	{"trace.overhead_pct", "%", Lower},
}
