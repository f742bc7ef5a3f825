package main

// metricDef is one reported metric: its name and unit as BENCHMARK.json
// declares them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0). Every workload
// reports every one of them, so each is defined for both kinds of
// operation the workloads make: a Flow call (flow, flow-nn) and a served
// request (serve-mix).
var endToEnd = []metricDef{
	// Median of the setups made in one run (see the workloads' setup).
	{"setup_s", "s"},
	// Median wall time of one placement: a Flow call to a legal, detailed
	// placement; on serve-mix the run time (start to finish) of a job that
	// ran the placer.
	{"flow_s", "s"},
	// Final HPWL: after DP of the run's design (median over its Flow
	// calls); on serve-mix, where jobs run GP only, the geometric mean of
	// the GP HPWL over every distinct request placed.
	{"hpwl_final", "dbu"},
	// Operations completed per second of measuring.
	{"jobs_per_s", "1/s"},
	// Latency of every operation, from the client's call (ToSpec on
	// serve-mix) to its result. On serve-mix two thirds of the requests
	// are cache hits, so the median is a hit latency and p90 a placement.
	{"latency_p50_s", "s"},
	{"latency_p90_s", "s"},
	// Median latency of the operations that ran the placer.
	{"placed_latency_p50_s", "s"},
	// Share of attempted operations that passed every output check, the
	// complement of the failed, rejected or incorrect share.
	{"success_share", "ratio"},
	// Peak resident set size of the benchmark process.
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run (--trace 1). Times are
// medians per placement (op groups, stages) or per call (layer calls).
// A layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{"placer.gp_s", "s"},
	{"placer.iterations", "count"},
	{"placer.iter_ms", "ms"},
	{"op.wirelength_s", "s"},
	{"op.density_s", "s"},
	{"op.nn_s", "s"},
	{"op.optim_s", "s"},
	{"op.grad_assembly_s", "s"},
	{"op.sched_record_s", "s"},
	{"placer.os_skips", "count"},
	{"placer.oe_reuses", "count"},
	{"placer.oc_launches_saved", "count"},
	{"kernel.launches", "count"},
	{"kernel.syncs", "count"},
	{"kernel.arena_peak_bytes", "bytes"},
	{"kernel.arena_misses", "count"},
	{"kernel.sim_s", "s"},
	{"kernel.sim_to_wall", "ratio"},
	{"field.scatter_ms", "ms"},
	{"field.poisson_ms", "ms"},
	{"field.gather_ms", "ms"},
	{"wirelength.fused_ms", "ms"},
	{"nn.forward_ms", "ms"},
	{"nn.calls", "count"},
	{"legal.s", "s"},
	{"legal.hpwl_ratio", "ratio"},
	{"detail.s", "s"},
	{"detail.hpwl_ratio", "ratio"},
	{"detail.rerun_mismatch", "count"},
	{"jobapi.to_spec_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_s", "s"},
	{"serve.run_s", "s"},
	{"serve.rejected", "count"},
	{"serve.hit_latency_p50_s", "s"},
	{"jobstore.cache_hit_ratio", "ratio"},
	{"jobstore.dup_misses", "count"},
	{"jobstore.wal_appends", "count"},
	{"jobstore.store_errors", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// samples collects per-layer observations by metric name; a metric's
// value is the median of its samples.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }
