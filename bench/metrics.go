package main

import "slices"

// metricDef names one metric. BENCHMARK.json lists exactly the E2E ones
// under end_to_end and the rest under per_layer; bench_test.go holds the
// two in agreement.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is how much worse the metric may get before -compare (and, for
	// E2E metrics, the driver) calls it a regression: a share of the
	// baseline, or an absolute amount when Abs is set. Zero: not compared.
	Bound float64
	Abs   bool
	// Floor is the least tolerance -compare applies, in the metric's unit:
	// it keeps a few milliseconds of set-up jitter from reading as 25 %.
	Floor float64
	// TwoSided metrics are guards, not goals: a move in either direction
	// beyond Bound means who-waits-for-whom changed.
	TwoSided bool
	// E2E metrics are reported by the untraced run on every workload.
	E2E bool
	// Untraced marks end-to-end metrics that the contract's end_to_end list
	// cannot hold: those that exist on one workload only (the list must be
	// reported, non-zero, on every workload; Only names their workloads),
	// and the step latencies, which did not resolve on this sandbox (same
	// seed, same commit: +46 % on small-asp's p99; ten seeds of ro-fanout
	// spread by 23 % on p50 as the host drifted). They are listed per_layer in
	// BENCHMARK.json, where the traced run reports them, while the untraced
	// run also measures them for the result file and -compare.
	Untraced bool
	Only     []string
}

var metricDefs = []metricDef{
	// End to end, every workload.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05, E2E: true},
	{Name: "steps_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, E2E: true},
	{Name: "allocs_per_step", Unit: "count", Better: "lower", Bound: 0.10, E2E: true},
	{Name: "alloc_kb_per_step", Unit: "KiB", Better: "lower", Bound: 0.25, E2E: true},
	{Name: "heap_peak_mb", Unit: "MiB", Better: "lower", Bound: 0.25, E2E: true},
	{Name: "sync_wait_share", Unit: "share", Better: "lower", Bound: 0.10, TwoSided: true, E2E: true},

	// End to end, but not in the contract's end_to_end list (see Untraced).
	{Name: "step_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Untraced: true},
	{Name: "step_p99_us", Unit: "us", Better: "lower", Bound: 0.25, Untraced: true},
	{Name: "failed_share", Unit: "share", Better: "lower", Bound: 0.001, Abs: true, Untraced: true},
	{Name: "dpr_per_kstep", Unit: "count", Better: "lower", Bound: 0.10, TwoSided: true, Untraced: true, Only: []string{"straggler-pssp"}},
	{Name: "final_acc", Unit: "share", Better: "higher", Bound: 0.02, Abs: true, Untraced: true, Only: []string{"straggler-pssp"}},
	{Name: "ro_pulls_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Untraced: true, Only: []string{"ro-fanout"}},
	{Name: "ro_pull_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Untraced: true, Only: []string{"ro-fanout"}},
	{Name: "ro_pull_p99_us", Unit: "us", Better: "lower", Bound: 0.25, Untraced: true, Only: []string{"ro-fanout"}},

	// Per layer: probes of each package's public functions on the
	// workload's message shapes, and spans/counters of the traced run.
	{Name: "transport.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.frame_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_rtt_ack_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_rtt_payload_us", Unit: "us", Better: "lower"},
	{Name: "transport.mux_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.stream_stall_us_p99", Unit: "us", Better: "lower"},
	{Name: "transport.msgs_per_step", Unit: "count", Better: "lower"},
	{Name: "transport.wire_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "transport.pool_miss_share", Unit: "share", Better: "lower"},
	{Name: "core.spush_enqueue_us", Unit: "us", Better: "lower"},
	{Name: "core.spush_wait_us", Unit: "us", Better: "lower"},
	{Name: "core.spull_enqueue_us", Unit: "us", Better: "lower"},
	{Name: "core.spull_wait_us", Unit: "us", Better: "lower"},
	{Name: "core.push_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.push_rtt_us_mean", Unit: "us", Better: "lower"},
	{Name: "core.pull_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.pull_rtt_us_mean", Unit: "us", Better: "lower"},
	{Name: "core.apply_wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.apply_wait_us_p99", Unit: "us", Better: "lower"},
	{Name: "core.apply_wait_us_mean", Unit: "us", Better: "lower"},
	{Name: "core.apply_batch_mean", Unit: "count", Better: "higher"},
	{Name: "core.dpr_wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.dpr_buffered", Unit: "count", Better: "lower"},
	{Name: "core.dedup_hits", Unit: "count", Better: "lower"},
	{Name: "core.retries", Unit: "count", Better: "lower"},
	{Name: "core.timeouts", Unit: "count", Better: "lower"},
	{Name: "core.ro_rejects", Unit: "count", Better: "lower"},
	{Name: "core.ro_retry_share", Unit: "share", Better: "lower"},
	{Name: "core.snapshot_publish_us_mean", Unit: "us", Better: "lower"},
	{Name: "core.step_p999_us", Unit: "us", Better: "lower"},
	{Name: "core.gc_cycles_per_kstep", Unit: "count", Better: "lower"},
	{Name: "core.single_worker_steps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.scaling_efficiency", Unit: "share", Better: "higher"},
	{Name: "core.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "core.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "kvstore.apply_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.apply_batch_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.gather_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.snapshot_publish_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.snapshot_flat_ns", Unit: "ns", Better: "lower"},
	{Name: "syncmodel.round_ns", Unit: "ns", Better: "lower"},
	{Name: "syncmodel.dpr_share", Unit: "share", Better: "lower"},
	{Name: "syncmodel.vtrain_per_s", Unit: "1/s", Better: "higher"},
	{Name: "mathx.axpy_batch_ns_per_kib", Unit: "ns/KiB", Better: "lower"},
	{Name: "mlmodel.gradient_us", Unit: "us", Better: "lower", Only: []string{"straggler-pssp"}},
	{Name: "optimizer.delta_ns", Unit: "ns", Better: "lower", Only: []string{"straggler-pssp"}},
	{Name: "mlmodel.compute_us", Unit: "us", Better: "lower", Only: []string{"straggler-pssp"}},
	{Name: "keyrange.imbalance", Unit: "ratio", Better: "lower"},
}

func findMetric(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func (d metricDef) appliesTo(workload string) bool {
	return d.Only == nil || slices.Contains(d.Only, workload)
}

// value is one reported metric: the number, its unit, how many samples
// stand behind it, and, where the window's slices each give a value, those
// (so -compare can tell an unresolved metric from an unchanged one).
type value struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	N      uint64    `json:"n,omitempty"`
	Slices []float64 `json:"slices,omitempty"`
	// Undersampled: fewer than ten samples lie beyond this percentile.
	Undersampled bool `json:"undersampled,omitempty"`
}
