package main

// metric declares one reported number. ../BENCHMARK.json lists the same
// names, units and directions; a test keeps the two in step.
type metric struct {
	name, unit, better string
}

// endToEnd are what a user of the system sees, the same on every workload.
// Failed and wrongly answered ops are not metrics here: they are the
// failed, attempted and correct fields of the result line, and a failed op
// misses ontime_share.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"lat_p50_ms", "ms", "lower"},
	{"ontime_share", "share", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer come from a traced run. Those up to trace.overhead_share are
// taken while the workload itself runs; the rest are the layer probes
// (probes.go), the same on every workload.
var perLayer = []metric{
	{"client.lat_p90_ms", "ms", "lower"},
	{"client.lat_max_ms", "ms", "lower"},
	{"client.samples", "count", "higher"},
	{"client.gen_lag_p99_ms", "ms", "lower"},
	{"client.seg_spread", "share", "lower"},
	{"client.self_us", "us", "lower"},
	{"runtime.cpu_ms_per_op", "ms", "lower"},
	{"runtime.alloc_kb_per_op", "KB", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.goroutines_peak", "count", "lower"},
	{"batcher.mean_width", "x", "higher"},
	{"batcher.sweeps_per_op", "count", "lower"},
	{"batcher.saved_mb_per_op", "MB", "higher"},
	{"trace.overhead_share", "share", "lower"},

	{"host.triad_gbs", "GB/s", "higher"},
	{"host.nproc", "count", "higher"},
	{"kernel.cant_csr_gflops", "Gflop/s", "higher"},
	{"kernel.cant_tuned_gflops", "Gflop/s", "higher"},
	{"kernel.cant_par_gflops", "Gflop/s", "higher"},
	{"kernel.cant_par_speedup", "x", "higher"},
	{"kernel.cant_fused4_gflops", "Gflop/s", "higher"},
	{"kernel.cant_fused8_gflops", "Gflop/s", "higher"},
	{"kernel.web_tuned_gflops", "Gflop/s", "higher"},
	{"kernel.lp_tuned_gflops", "Gflop/s", "higher"},
	{"kernel.poisson_sym_gflops", "Gflop/s", "higher"},
	{"kernel.overlay_rows_us", "us", "lower"},
	{"kernel.cant_tuned_gbs", "GB/s", "higher"},
	{"kernel.roofline_share", "share", "higher"},
	{"tune.cant_compile_s", "s", "lower"},
	{"tune.web_compile_s", "s", "lower"},
	{"tune.lp_compile_s", "s", "lower"},
	{"tune.cant_footprint_savings", "share", "higher"},
	{"traffic.cant_sweep_bytes", "bytes", "lower"},
	{"traffic.measured_over_modeled", "x", "lower"},
	{"server.mul_c1_p50_us", "us", "lower"},
	{"server.inproc_overhead_us", "us", "lower"},
	{"sched.gate_cycle_ns", "ns", "lower"},
	{"sched.bucket_take_ns", "ns", "lower"},
	{"obs.overhead_share", "share", "lower"},
	{"http.mul_c1_p50_ms", "ms", "lower"},
	{"http.codec_overhead_ms", "ms", "lower"},
	{"http.wire_kb_per_op", "KB", "lower"},
	{"http.register_s", "s", "lower"},
	{"delta.patch_p50_us", "us", "lower"},
	{"delta.overlay_overhead_share", "share", "lower"},
	{"delta.dirty_rows", "count", "lower"},
	{"delta.recompact_ms", "ms", "lower"},
	{"solve.cg_iters", "count", "lower"},
	{"solve.local_iter_us", "us", "lower"},
	{"solve.final_residual", "share", "lower"},
	{"shard.iter_us", "us", "lower"},
	{"shard.mul_c1_p50_us", "us", "lower"},
	{"shard.fanout_overhead_us", "us", "lower"},
	{"shard.register_s", "s", "lower"},
	{"shard.band_imbalance", "x", "lower"},
}
