package main

// metricDef is one metric of BENCHMARK.json. The tables below are the single
// source of the names, units and directions the program prints;
// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json equal to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees, each with the share of
// the parent's median by which it may worsen. Every workload prints all of
// them; README.md says what each means on each workload.
//
// The time bounds are the contract's maximum. The development host is a
// shared two-core VM whose speed shifts by 8 to 14 % between one run and the
// next (README.md has the measured spreads); a tighter bound would reject a
// rerun of the same commit.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"wall_s", "s", lower, 0.25},
	{"alloc_mb", "MB", lower, 0.05},
	{"hit_p50_ms", "ms", lower, 0.25},
	{"miss_p50_ms", "ms", lower, 0.25},
	{"miss_p90_ms", "ms", lower, 0.25},
	{"sat_rps", "1/s", higher, 0.25},
}

// perLayer are the metrics of single layers (this repository's packages),
// printed by the traced run. They carry no bound.
var perLayer = []metricDef{
	{Name: "fail_frac", Unit: "fraction", Better: lower},
	// Demoted from the end-to-end list: it does not repeat within 25 %.
	{Name: "hit_p99_ms", Unit: "ms", Better: lower},

	{Name: "sim.event_ns", Unit: "ns", Better: lower},
	{Name: "sim.event_allocs", Unit: "count", Better: lower},
	{Name: "sim.handoff_ns", Unit: "ns", Better: lower},
	{Name: "sim.spawn_ns", Unit: "ns", Better: lower},

	{Name: "sim.shard_events", Unit: "count", Better: lower},
	{Name: "sim.shard_windows", Unit: "count", Better: lower},
	{Name: "sim.shard_steals", Unit: "count", Better: lower},
	{Name: "sim.shard_merged", Unit: "count", Better: lower},
	{Name: "sim.shard_merge_skips", Unit: "count", Better: higher},
	{Name: "sim.shard_imbalance", Unit: "ratio", Better: lower},
	{Name: "sim.shard_pred_err", Unit: "fraction", Better: lower},
	{Name: "sim.shard_event_ns", Unit: "ns", Better: lower},

	{Name: "mpi.eager_rtt_ns", Unit: "ns", Better: lower},
	{Name: "mpi.eager_rtt_allocs", Unit: "count", Better: lower},
	{Name: "mpi.rdv_rtt_ns", Unit: "ns", Better: lower},
	{Name: "mpi.part_epoch_ns", Unit: "ns", Better: lower},
	{Name: "mpi.part_epoch_allocs", Unit: "count", Better: lower},
	{Name: "mpi.part_native_epoch_ns", Unit: "ns", Better: lower},
	{Name: "mpi.match_deep_ns", Unit: "ns", Better: lower},
	{Name: "mpi.mt_rtt_ns", Unit: "ns", Better: lower},
	{Name: "mpi.allreduce64_ns", Unit: "ns", Better: lower},

	{Name: "netsim.inject_ns", Unit: "ns", Better: lower},
	{Name: "netsim.fabric_cross_ns", Unit: "ns", Better: lower},

	{Name: "core.cell_ns", Unit: "ns", Better: lower},
	{Name: "core.cell_allocs", Unit: "count", Better: lower},
	{Name: "core.cell_small_ns", Unit: "ns", Better: lower},
	{Name: "patterns.halo_cell_ns", Unit: "ns", Better: lower},
	{Name: "patterns.sweep_cell_ns", Unit: "ns", Better: lower},
	{Name: "snap.cell_ns", Unit: "ns", Better: lower},
	{Name: "patterns.halo512_msgs_per_s", Unit: "1/s", Better: higher},
	{Name: "patterns.sweep256_msgs_per_s", Unit: "1/s", Better: higher},

	{Name: "engine.key_ns", Unit: "ns", Better: lower},
	{Name: "engine.key_allocs", Unit: "count", Better: lower},
	{Name: "engine.miss_overhead_ns", Unit: "ns", Better: lower},
	{Name: "engine.memo_hit_ns", Unit: "ns", Better: lower},
	{Name: "engine.disk_hit_ns", Unit: "ns", Better: lower},
	{Name: "engine.disk_write_ns", Unit: "ns", Better: lower},
	{Name: "engine.map_cell_ns", Unit: "ns", Better: lower},
	{Name: "engine.cells", Unit: "count", Better: lower},
	{Name: "engine.runs", Unit: "count", Better: lower},
	{Name: "engine.memo_hits", Unit: "count", Better: higher},
	{Name: "engine.disk_hits", Unit: "count", Better: higher},
	{Name: "engine.disk_read_bytes", Unit: "B", Better: lower},
	{Name: "engine.disk_write_bytes", Unit: "B", Better: lower},
	{Name: "engine.util", Unit: "fraction", Better: higher},

	{Name: "figures.memo_regen_ns", Unit: "ns", Better: lower},
	{Name: "report.text_ns", Unit: "ns", Better: lower},
	{Name: "report.csv_ns", Unit: "ns", Better: lower},

	{Name: "obs.cell_event_ns", Unit: "ns", Better: lower},
	{Name: "obs.journal_cell_ns", Unit: "ns", Better: lower},
	{Name: "obs.on_overhead_frac", Unit: "fraction", Better: lower},

	{Name: "service.resolve_ns", Unit: "ns", Better: lower},
	{Name: "service.render_ns", Unit: "ns", Better: lower},
	{Name: "service.handler_hit_ns", Unit: "ns", Better: lower},
	{Name: "service.handler_hit_allocs", Unit: "count", Better: lower},
	{Name: "service.rejected", Unit: "count", Better: lower},
	{Name: "service.server_errors", Unit: "count", Better: lower},

	{Name: "remote.task_rtt_ns", Unit: "ns", Better: lower},
	{Name: "remote.local_wall_s", Unit: "s", Better: lower},
	{Name: "remote.per_cell_overhead_us", Unit: "us", Better: lower},
	{Name: "remote.stolen", Unit: "count", Better: lower},
	{Name: "remote.requeued", Unit: "count", Better: lower},
	{Name: "remote.failed", Unit: "count", Better: lower},
	{Name: "remote.balance", Unit: "ratio", Better: higher},

	{Name: "self.bench_s", Unit: "s", Better: lower},
	{Name: "self.figures_s", Unit: "s", Better: lower},
	{Name: "self.engine_cell_run_s", Unit: "s", Better: lower},
	{Name: "self.engine_cell_disk_s", Unit: "s", Better: lower},
	{Name: "self.engine_cell_memo_s", Unit: "s", Better: lower},
	{Name: "self.report_s", Unit: "s", Better: lower},
	{Name: "self.service_ms", Unit: "ms", Better: lower},
	{Name: "self.transport_ms", Unit: "ms", Better: lower},
	{Name: "self.remote_wire_ms", Unit: "ms", Better: lower},
	{Name: "self.sum_frac", Unit: "fraction", Better: higher},

	{Name: "bench.late_p99_ms", Unit: "ms", Better: lower},
	{Name: "bench.rss_peak_mb", Unit: "MB", Better: lower},
	{Name: "bench.trace_overhead_frac", Unit: "fraction", Better: lower},
	{Name: "bench.gomaxprocs", Unit: "count", Better: higher},
	{Name: "bench.nproc", Unit: "count", Better: higher},
}

// workloadDef names a workload and records why it was chosen.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*runCtx) (*outcome, error)
}

var workloads = []workloadDef{
	{"figs-cold", "All ten figures into an empty cell cache: over 98% of a pass is cell simulation (sim, mpi, netsim under core/patterns/snap), so kernel and protocol work shows and cache reads do not.", runFigsCold},
	{"figs-warm", "The same figures from a filled disk cache in a fresh runner: engine keying, file reads, JSON decode and table assembly are the whole pass; a simulator speed-up must leave it unchanged.", runFigsWarm},
	{"scale-seq", "Halo3D at 1000 ranks and Sweep3D at 256 on one event loop, uncached: goroutine procs, the mpi matcher at depth and fabric link occupancy dominate; engine and shards are bypassed.", runScaleSeq},
	{"scale-shard", "The same stencil tables on 4 shards, more than the host has cores: the only workload where the window pool, LPT dispatch, stealing and the barrier merge run.", runScaleShard},
	{"sweepd-mix", "sweepd on loopback, 300 req/s open loop then 2 closed-loop clients, 90% cached specs and 10% new ones: hits and misses are timed apart so a gain for one that costs the other shows.", runSweepdMix},
	{"remote-2w", "816 core.Run cells through a coordinator and two workers, alternating with local passes: the only workload where the wire protocol, least-backlog dispatch and stealing run.", runRemote2w},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
