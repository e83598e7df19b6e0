package main

// The catalogue is the single list of workloads and metrics: the
// program prints from it, BENCHMARK.json is checked against it by a
// test, and README.md documents it. Later issues cite these names
// verbatim.

// metricDef describes one metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen (0 on per-layer
// metrics, which have no bound). moves and on say which end-to-end
// metric a per-layer metric should move, and on which workloads; on the
// others the prediction is no change.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" | "lower"
	bound  float64
	// slack is an absolute difference the -sets self-check ignores: it
	// compares single runs, and a set-up of a quarter of a second moves by
	// a third from one run to the next (the driver compares medians).
	slack float64
	moves string
	on    string
}

type workloadDef struct {
	name string
	why  string
}

// runSeconds is BENCHMARK.json's run_seconds: the measured window the
// driver asks for, and the default of -seconds.
const runSeconds = 10

var workloadDefs = []workloadDef{
	{"host_mixed", "conventional-server baseline over loopback TCP: httpx, service, workload execute, backend and socket handling do all the work; cohort, fabric, simt and rcache do none"},
	{"host_cached_reads", "render-cache hit path: 98% cacheable banking reads over a working set that fits, so rcache.Get and session lookup dominate and execute is skipped"},
	{"host_cached_writes", "the same cache used the other way: 50% writes, so write-hook invalidation, misses and Put churn dominate; a gain for reads that taxes writes shows here"},
	{"cohort_socket", "the latency side of Rhythm's trade at low concurrency: default cohort server, formation wait, dispatch and tiny-cohort kernel launches"},
	{"device_saturated", "the throughput side: full cohorts of 128 straight into a loopback fabric, so simt, service kernels and cluster do almost all the work; bypasses httpx and formation"},
	{"fabric_tcp_hostunits", "one-request host units over the tcp fabric to two in-process workers: the smallest message, where per-frame wire cost dominates; simt is bypassed"},
	{"sim_offline", "the researcher's path (rhythm-bench, Table 3): internal/pipeline and banking's private kernels on simt/sim under virtual time"},
}

var endToEnd = []metricDef{
	{name: "req_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "heap_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, slack: 0.2},
}

const (
	hostAll   = "host_mixed, host_cached_reads, host_cached_writes"
	exactRuns = "device_saturated, sim_offline"
)

var perLayer = []metricDef{
	// Demoted from the end-to-end list (see README "Demotions").
	{name: "latency_p99_ms", unit: "ms", better: "lower", moves: "diagnostic: formation and kernel wall on cohort_socket, wire on fabric_tcp_hostunits, scheduler contention on host_*", on: "socket workloads, fabric_tcp_hostunits"},
	{name: "virtual_req_per_s", unit: "1/s", better: "higher", moves: "bit-exact per seed", on: exactRuns},
	{name: "error_share", unit: "share", better: "lower", moves: "any rise fails", on: "all"},

	{name: "httpx.parse_ns_per_req", unit: "ns", better: "lower", moves: "req_per_s, latency_p50_ms", on: "host_mixed, host_cached_reads"},
	{name: "httpx.parse_allocs_per_req", unit: "count", better: "lower", moves: "req_per_s, latency_p50_ms", on: "host_mixed, host_cached_reads"},
	{name: "service.classify_ns_per_req", unit: "ns", better: "lower", moves: "req_per_s", on: hostAll},
	{name: "service.execute_host_ns_per_req", unit: "ns", better: "lower", moves: "req_per_s, latency_p50_ms", on: "host_mixed, host_cached_writes, fabric_tcp_hostunits"},
	{name: "banking.execute_ns_per_req", unit: "ns", better: "lower", moves: "req_per_s, latency_p50_ms", on: "host_mixed, host_cached_writes"},
	{name: "ecom.execute_ns_per_req", unit: "ns", better: "lower", moves: "req_per_s, latency_p50_ms", on: "host_mixed"},
	{name: "telemetry.execute_ns_per_req", unit: "ns", better: "lower", moves: "req_per_s, latency_p50_ms", on: "host_mixed"},
	{name: "service.render_ns_per_req", unit: "ns", better: "lower", moves: "req_per_s", on: "device_saturated"},
	{name: "session.lookup_ns_per_req", unit: "ns", better: "lower", moves: "req_per_s", on: "host_cached_reads"},
	{name: "backend.writes_per_req", unit: "count", better: "lower", moves: "req_per_s", on: "host_cached_writes"},
	{name: "rcache.hit_share", unit: "share", better: "higher", moves: "req_per_s, latency_p50_ms", on: "host_cached_reads, host_cached_writes"},
	{name: "rcache.get_ns", unit: "ns", better: "lower", moves: "req_per_s, latency_p50_ms", on: "host_cached_reads"},
	{name: "rcache.put_ns", unit: "ns", better: "lower", moves: "req_per_s", on: "host_cached_writes"},
	{name: "rcache.invalidations_per_write", unit: "count", better: "lower", moves: "req_per_s", on: "host_cached_writes"},
	{name: "rcache.entries", unit: "count", better: "lower", moves: "heap_mb", on: "host_cached_reads, host_cached_writes"},
	{name: "frontend.residual_us_per_req", unit: "us", better: "lower", moves: "latency_p50_ms, req_per_s", on: hostAll + ", cohort_socket"},
	{name: "frontend.shed_share", unit: "share", better: "lower", moves: "error_share", on: "cohort_socket"},
	{name: "frontend.deadline_misses", unit: "count", better: "lower", moves: "error_share", on: "cohort_socket"},
	{name: "cohort.formation_wait_ms_mean", unit: "ms", better: "lower", moves: "latency_p50_ms", on: "cohort_socket"},
	{name: "cohort.formation_wait_ms_p99", unit: "ms", better: "lower", moves: "latency_p99_ms", on: "cohort_socket"},
	{name: "cohort.occupancy_mean", unit: "count", better: "higher", moves: "req_per_s", on: "cohort_socket"},
	{name: "cohort.timeout_share", unit: "share", better: "lower", moves: "latency_p50_ms", on: "cohort_socket"},
	{name: "cohort.filled_share", unit: "share", better: "higher", moves: "latency_p50_ms", on: "cohort_socket"},
	{name: "cohort.cohorts_per_s", unit: "1/s", better: "higher", moves: "req_per_s", on: "cohort_socket"},
	{name: "fabric.unit_rtt_us_p50", unit: "us", better: "lower", moves: "latency_p50_ms", on: "fabric_tcp_hostunits, device_saturated"},
	{name: "fabric.self_us_per_unit", unit: "us", better: "lower", moves: "latency_p50_ms, req_per_s", on: "fabric_tcp_hostunits, device_saturated"},
	{name: "fabric.wire_us_per_unit", unit: "us", better: "lower", moves: "latency_p50_ms, req_per_s", on: "fabric_tcp_hostunits"},
	{name: "fabric.wire_bytes_per_req", unit: "count", better: "lower", moves: "req_per_s", on: "fabric_tcp_hostunits"},
	{name: "fabric.nacks", unit: "count", better: "lower", moves: "error_share", on: "fabric_tcp_hostunits"},
	{name: "fabric.node_retries", unit: "count", better: "lower", moves: "error_share", on: "fabric_tcp_hostunits"},
	{name: "fabric.lost_units", unit: "count", better: "lower", moves: "error_share", on: "fabric_tcp_hostunits"},
	{name: "cluster.queue_us_per_unit", unit: "us", better: "lower", moves: "req_per_s", on: "device_saturated"},
	{name: "cluster.units_per_s", unit: "1/s", better: "higher", moves: "req_per_s", on: "device_saturated"},
	{name: "cluster.sheds", unit: "count", better: "lower", moves: "error_share", on: "device_saturated"},
	{name: "cluster.retries", unit: "count", better: "lower", moves: "error_share", on: "device_saturated"},
	{name: "simt.kernel_wall_us_per_req", unit: "us", better: "lower", moves: "req_per_s; latency_p50_ms on cohort_socket", on: "device_saturated, cohort_socket"},
	{name: "simt.kernel_wall_share", unit: "share", better: "higher", moves: "req_per_s", on: "device_saturated"},
	{name: "simt.host_ns_per_block_exec", unit: "ns", better: "lower", moves: "req_per_s", on: "device_saturated"},
	{name: "simt.launches_per_unit", unit: "count", better: "lower", moves: "virtual_req_per_s", on: "device_saturated"},
	{name: "simt.divergent_exec_share", unit: "share", better: "lower", moves: "virtual_req_per_s", on: "device_saturated"},
	{name: "simt.coalescing_ratio", unit: "ratio", better: "higher", moves: "virtual_req_per_s", on: "device_saturated"},
	{name: "simt.device_busy_share", unit: "share", better: "higher", moves: "virtual_req_per_s", on: "device_saturated"},
	{name: "simt.virtual_us_per_launch", unit: "us", better: "lower", moves: "virtual_req_per_s", on: "device_saturated"},
	{name: "pipeline.host_ns_per_req", unit: "ns", better: "lower", moves: "req_per_s", on: "sim_offline"},
	{name: "pipeline.mean_occupancy", unit: "count", better: "higher", moves: "virtual_req_per_s", on: "sim_offline"},
	{name: "pipeline.device_utilization", unit: "share", better: "higher", moves: "virtual_req_per_s", on: "sim_offline"},
	{name: "pipeline.virtual_latency_p99_ms", unit: "ms", better: "lower", moves: "virtual_req_per_s", on: "sim_offline"},
	{name: "pipeline.validation_failures", unit: "count", better: "lower", moves: "error_share", on: "sim_offline"},
	{name: "flight.promoted_share", unit: "share", better: "lower", moves: "req_per_s", on: "host_mixed, cohort_socket"},
	{name: "runtime.allocs_per_req", unit: "count", better: "lower", moves: "req_per_s, heap_mb", on: "all"},
	{name: "runtime.gc_cpu_share", unit: "share", better: "lower", moves: "req_per_s, heap_mb", on: "all"},
	{name: "bench.trace_overhead_share", unit: "share", better: "lower", moves: "none (validity of the run)", on: "all"},
	{name: "bench.slice_spread", unit: "share", better: "lower", moves: "none (validity of the run)", on: "all"},
	{name: "bench.client_allocs_per_req", unit: "count", better: "lower", moves: "none (validity of the run)", on: "socket workloads"},
	{name: "bench.host_cores", unit: "count", better: "higher", moves: "none (validity of the run)", on: "all"},
}
