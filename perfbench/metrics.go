package main

// metricDef names one reported metric. Moves records which end-to-end
// metric, on which workload, a per-layer metric should move, so a later
// change can say in advance which numbers it expects to change.
type metricDef struct {
	Name, Unit, Better, Moves string
}

// endToEnd are the metrics every untraced run reports. Every workload
// reports all of them, each in the workload's own unit of work:
//
//	             fleet-steady           fleet-ingest              crash-sweep
//	throughput   device steps/s         delivered events/s        crash points/s
//	latency      closed-loop cycle      ingest-to-verdict         one crash point
//	tail         p90                    p90                       p90
//
// ok_ratio is 1 - error_ratio: failed operations over attempted ones are
// also reported as the result's failed and attempted counts.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"throughput_per_s", "1/s", "higher", ""},
	{"latency_p50_ms", "ms", "lower", ""},
	{"latency_tail_ms", "ms", "lower", ""},
	{"peak_rss_mb", "MB", "lower", ""},
	{"ok_ratio", "ratio", "higher", ""},
}

// perLayer are the metrics a traced run reports, named by module. A metric
// of a layer a workload does not exercise reads 0 on that workload.
var perLayer = []metricDef{
	{"fleetserver.register_us", "us", "lower", "setup_s (fleet-steady, fleet-ingest)"},
	{"fleetserver.batch_post_us", "us", "lower", "latency_* and ok_ratio on fleet-ingest; nearly nothing on fleet-steady"},
	{"fleetserver.queue_wait_ms", "ms", "lower", "latency_* and ok_ratio on fleet-ingest; nearly nothing on fleet-steady"},
	{"fleetserver.rejected_events", "count", "lower", "ok_ratio and latency_* on fleet-ingest"},
	{"fleetserver.step_overhead_ms", "ms", "lower", "throughput_per_s (fleet-steady)"},
	{"fleetserver.scrape_us", "us", "lower", "latency_tail_ms (fleet-steady), fleetserver.read_p99_ms (fleet-ingest)"},
	{"fleetserver.scrape_bytes", "bytes", "lower", "latency_tail_ms (fleet-steady), fleetserver.read_p99_ms (fleet-ingest)"},
	{"fleetserver.device_get_us", "us", "lower", "fleetserver.read_* (fleet-ingest)"},
	{"fleetserver.read_p50_ms", "ms", "lower", "reads beside writes on fleet-ingest: a step that holds the server lock longer shows here"},
	{"fleetserver.read_p99_ms", "ms", "lower", "reads beside writes on fleet-ingest: a step that holds the server lock longer shows here"},
	{"fleetserver.unregister_ms", "ms", "lower", "latency_tail_ms (fleet-ingest): an unregister waits for the in-flight step"},
	{"fleet.step_ms", "ms", "lower", "throughput_per_s (fleet-steady), latency_p50_ms (fleet-ingest)"},
	{"fleet.reshard_ms", "ms", "lower", "setup_s (fleet-*), latency_tail_ms under churn (fleet-ingest)"},
	{"fleet.cpu_us_per_device_step", "us", "lower", "throughput_per_s (fleet-steady)"},
	{"fleet.parallel_efficiency", "ratio", "higher", "throughput_per_s (fleet-steady)"},
	{"examplespecs.config_us", "us", "lower", "throughput_per_s (fleet-steady, crash-sweep via Explorer.Build)"},
	{"core.new_us", "us", "lower", "throughput_per_s (fleet-steady, crash-sweep via Explorer.Build)"},
	{"core.run_us", "us", "lower", "throughput_per_s (fleet-steady)"},
	{"core.run_us.health", "us", "lower", "throughput_per_s (fleet-steady)"},
	{"core.run_us.greenhouse", "us", "lower", "throughput_per_s (fleet-steady)"},
	{"core.run_us.camera", "us", "lower", "throughput_per_s (fleet-steady)"},
	{"core.run_us.quickstart", "us", "lower", "throughput_per_s (fleet-steady)"},
	{"core.run_us.customir", "us", "lower", "throughput_per_s (fleet-steady)"},
	{"core.run_us.legacyspec", "us", "lower", "throughput_per_s (fleet-steady)"},
	{"nvm.hash_us", "us", "lower", "throughput_per_s (fleet-steady)"},
	{"core.inject_us", "us", "lower", "latency_* (fleet-ingest)"},
	{"nvm.writes_per_device_step", "count", "lower", "exact simulated count: a host-only speed-up leaves it unchanged"},
	{"nvm.bytes_written_per_device_step", "bytes", "lower", "exact simulated count: a host-only speed-up leaves it unchanged"},
	{"device.reboots_per_device_step", "count", "lower", "exact simulated count: a host-only speed-up leaves it unchanged"},
	{"energy.uj_per_device_step", "uJ", "lower", "exact simulated count: a host-only speed-up leaves it unchanged"},
	{"simclock.sim_ms_per_device_step", "ms", "lower", "exact simulated count: a host-only speed-up leaves it unchanged"},
	{"core.run_ns_per_nvm_write", "ns", "lower", "throughput_per_s (fleet-steady, crash-sweep): host cost per simulated write"},
	{"chaos.points.health", "count", "higher", "exact count; crash-sweep"},
	{"chaos.points.integrity", "count", "higher", "exact count; crash-sweep"},
	{"chaos.points.formal", "count", "higher", "exact count; crash-sweep"},
	{"chaos.points.swap", "count", "higher", "exact count; crash-sweep"},
	{"chaos.build_us", "us", "lower", "throughput_per_s (crash-sweep)"},
	{"chaos.point_us.health", "us", "lower", "throughput_per_s (crash-sweep)"},
	{"chaos.point_us.integrity", "us", "lower", "throughput_per_s (crash-sweep)"},
	{"chaos.point_us.formal", "us", "lower", "throughput_per_s (crash-sweep)"},
	{"chaos.point_us.swap", "us", "lower", "throughput_per_s (crash-sweep)"},
	{"correctness.postcheck_us", "us", "lower", "throughput_per_s (crash-sweep)"},
	{"runtime.alloc_bytes_per_op", "bytes", "lower", "throughput_per_s and peak_rss_mb (all)"},
	{"runtime.gc_cpu_fraction", "ratio", "lower", "latency_tail_ms (all)"},
	{"runtime.gc_cycles_per_s", "1/s", "lower", "latency_tail_ms (all)"},
	{"cpu_share.nvm", "%", "lower", "self CPU share; cited by perf changes"},
	{"cpu_share.codegen", "%", "lower", "self CPU share; cited by perf changes"},
	{"cpu_share.monitor", "%", "lower", "self CPU share; cited by perf changes"},
	{"cpu_share.artemis", "%", "lower", "self CPU share; cited by perf changes"},
	{"cpu_share.device", "%", "lower", "self CPU share; cited by perf changes"},
	{"cpu_share.energy", "%", "lower", "self CPU share; cited by perf changes"},
	{"cpu_share.task", "%", "lower", "self CPU share; cited by perf changes"},
	{"cpu_share.ir", "%", "lower", "self CPU share; cited by perf changes"},
	{"cpu_share.integrity", "%", "lower", "self CPU share; cited by perf changes"},
	{"cpu_share.correctness", "%", "lower", "self CPU share; cited by perf changes"},
	{"cpu_share.chaos", "%", "lower", "self CPU share; cited by perf changes"},
	{"cpu_share.fleet", "%", "lower", "self CPU share; cited by perf changes"},
	{"cpu_share.fleetserver", "%", "lower", "self CPU share; cited by perf changes"},
	{"cpu_share.gc", "%", "lower", "self CPU share (the Go runtime); cited by perf changes"},
	{"cpu_share.net_http", "%", "lower", "self CPU share; cited by perf changes"},
	{"cpu_share.encoding_json", "%", "lower", "self CPU share; cited by perf changes"},
	{"cpu_share.other", "%", "lower", "self CPU share; cited by perf changes"},
	{"loadgen.lag_p99_ms", "ms", "lower", "checks the benchmark: how late the open-loop generator ran (fleet-ingest)"},
	{"trace.overhead_pct", "%", "lower", "checks the benchmark: CPU per unit of work, traced vs untraced"},
}
