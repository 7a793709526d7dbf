package main

import (
	"fmt"
	"io"
	"sort"

	"github.com/fluentps/fluentps/internal/telemetry"
)

// windowMetrics turns one timed window into the end-to-end metrics (all of
// them but setup_s). One rule for every metric a slice can give on its own:
// the reported value is the median of the six slices' values, which a slow
// spell of the host that hits one or two slices does not move; the slices'
// values are kept so -compare can tell unresolved from unchanged. N is the
// sample count of the whole window.
func windowMetrics(wl workload, res *runResult) map[string]value {
	m := map[string]value{}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var steps, roPulls uint64
	for s := range res.Slices {
		steps += uint64(res.Slices[s].Steps)
		roPulls += uint64(res.Slices[s].ROPulls)
	}
	sliced := func(name string, n uint64, f func(sl *sliceResult) float64) {
		vals := make([]float64, numSlices)
		for s := range res.Slices {
			vals[s] = f(&res.Slices[s])
		}
		m[name] = value{Value: median(vals), N: n, Slices: vals}
	}
	quantile := func(name string, pick func(*sliceResult) *hist, n uint64, q float64) {
		sliced(name, n, func(sl *sliceResult) float64 { return pick(sl).quantile(q) / 1e3 })
		v := m[name]
		v.Undersampled = !tailSupported(n/numSlices, q)
		m[name] = v
	}
	stepHist := func(sl *sliceResult) *hist { return &sl.step }
	roHist := func(sl *sliceResult) *hist { return &sl.ro }
	sliced("steps_per_s", steps, func(sl *sliceResult) float64 { return ratio(float64(sl.Steps), sl.Seconds) })
	quantile("step_p50_us", stepHist, steps, 0.5)
	quantile("step_p99_us", stepHist, steps, 0.99)
	sliced("allocs_per_step", steps, func(sl *sliceResult) float64 { return ratio(float64(sl.Mallocs), float64(sl.Steps)) })
	sliced("alloc_kb_per_step", steps, func(sl *sliceResult) float64 { return ratio(float64(sl.Bytes), float64(sl.Steps)) / 1024 })
	sliced("sync_wait_share", steps, func(sl *sliceResult) float64 { return ratio(float64(sl.SyncNs), float64(sl.StepNs)) })
	sliced("dpr_per_kstep", steps, func(sl *sliceResult) float64 { return ratio(float64(sl.DPRs), float64(sl.Steps)) * 1e3 })
	sliced("ro_pulls_per_s", roPulls, func(sl *sliceResult) float64 { return ratio(float64(sl.ROPulls), sl.Seconds) })
	quantile("ro_pull_p50_us", roHist, roPulls, 0.5)
	quantile("ro_pull_p99_us", roHist, roPulls, 0.99)
	m["heap_peak_mb"] = value{Value: float64(res.HeapPeak) / (1 << 20)}
	m["failed_share"] = value{Value: ratio(float64(res.Failed), float64(res.Attempted)), N: uint64(res.Attempted)}
	m["final_acc"] = value{Value: res.FinalAcc}
	// Too deep a tail for one slice: pooled over the window.
	m["core.step_p999_us"] = value{Value: res.Step.quantile(0.999) / 1e3, N: res.Step.n, Undersampled: !tailSupported(res.Step.n, 0.999)}
	m["core.gc_cycles_per_kstep"] = value{Value: ratio(float64(res.GCCycles), float64(steps)) * 1e3, N: steps}
	for name, v := range m {
		d, _ := findMetric(name)
		v.Unit = d.Unit
		if !d.appliesTo(wl.Name) {
			v = value{Unit: d.Unit}
		}
		m[name] = v
	}
	return m
}

// mergedHist sums one telemetry histogram over every node's snapshot.
func mergedHist(snaps []telemetry.Snapshot, name string) telemetry.HistogramSnapshot {
	var out telemetry.HistogramSnapshot
	byLe := map[int64]uint64{}
	for _, s := range snaps {
		h, ok := s.HistogramOf(name)
		if !ok {
			continue
		}
		out.Count += h.Count
		out.Sum += h.Sum
		for _, b := range h.Buckets {
			byLe[b.Le] += b.Count
		}
	}
	for le, c := range byLe {
		out.Buckets = append(out.Buckets, telemetry.BucketCount{Le: le, Count: c})
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].Le < out.Buckets[j].Le })
	return out
}

// bucketQuantileUs resolves q to its log2 bucket's upper bound, in µs: the
// resolution the program's own histograms have.
func bucketQuantileUs(h telemetry.HistogramSnapshot, q float64) float64 {
	target := q * float64(h.Count)
	var cum float64
	for _, b := range h.Buckets {
		cum += float64(b.Count)
		if cum >= target && cum > 0 {
			return float64(b.Le) / 1e3
		}
	}
	return 0
}

func histMean(h telemetry.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

func sumCounter(snaps []telemetry.Snapshot, name string) float64 {
	var n uint64
	for _, s := range snaps {
		n += s.CounterOr(name, 0)
	}
	return float64(n)
}

// layerRuns are the four measurements of a traced invocation.
type layerRuns struct {
	traced *runResult // telemetry registries and benchmark-side spans on
	ref    *runResult // same cluster, untraced: base of the overhead and scaling ratios
	solo   *runResult // one training worker, no readers
	probes map[string]float64
}

// layerMetrics assembles every per-layer metric of one workload; refP50 is
// the untraced reference window's step_p50_us, the base of
// core.unattributed_share.
func layerMetrics(wl workload, lr layerRuns) (m map[string]value, refP50 float64) {
	m = map[string]value{}
	set := func(name string, v float64, n uint64) {
		d, ok := findMetric(name)
		if !ok {
			panic("bench: metric " + name + " is not in metricDefs")
		}
		if !d.appliesTo(wl.Name) {
			v, n = 0, 0
		}
		m[name] = value{Value: v, Unit: d.Unit, N: n}
	}
	for name, v := range lr.probes {
		set(name, v, 0)
	}
	tr := windowMetrics(wl, lr.traced)
	ref := windowMetrics(wl, lr.ref)
	solo := windowMetrics(wl, lr.solo)
	for _, d := range metricDefs {
		if v, ok := tr[d.Name]; ok && !d.E2E {
			m[d.Name] = v // the traced window's own end-to-end view, p99.9 and GC rate
		}
	}

	// Spans of the traced window, merged over workers.
	var spans [numSpanNames]hist
	for _, r := range lr.traced.Rings {
		for i := range spans {
			spans[i].merge(&r.agg[i])
		}
	}
	spanP50 := func(name string, s spanName) { set(name, spans[s].quantile(0.5)/1e3, spans[s].n) }
	spanP50("core.spush_enqueue_us", spanPushEnqueue)
	spanP50("core.spush_wait_us", spanPushWait)
	spanP50("core.spull_enqueue_us", spanPullEnqueue)
	spanP50("core.spull_wait_us", spanPullWait)
	spanP50("mlmodel.compute_us", spanCompute)

	// The program's own telemetry over the traced run.
	snaps := lr.traced.Telemetry
	push, pull := mergedHist(snaps, "worker.push_rtt_ns"), mergedHist(snaps, "worker.pull_rtt_ns")
	set("core.push_rtt_us_p50", bucketQuantileUs(push, 0.5), push.Count)
	set("core.push_rtt_us_mean", histMean(push)/1e3, push.Count)
	set("core.pull_rtt_us_p50", bucketQuantileUs(pull, 0.5), pull.Count)
	set("core.pull_rtt_us_mean", histMean(pull)/1e3, pull.Count)
	wait := mergedHist(snaps, "server.apply_wait_ns")
	set("core.apply_wait_us_p50", bucketQuantileUs(wait, 0.5), wait.Count)
	set("core.apply_wait_us_p99", bucketQuantileUs(wait, 0.99), wait.Count)
	set("core.apply_wait_us_mean", histMean(wait)/1e3, wait.Count)
	batch := mergedHist(snaps, "server.apply_batch_size")
	set("core.apply_batch_mean", histMean(batch), batch.Count)
	dpr := mergedHist(snaps, "server.dpr_wait_ns")
	set("core.dpr_wait_us_p50", bucketQuantileUs(dpr, 0.5), dpr.Count)
	set("core.dpr_buffered", sumCounter(snaps, "server.dpr_buffered"), 0)
	set("core.dedup_hits", float64(lr.traced.DedupHits), 0)
	set("core.retries", float64(lr.traced.Retries), 0)
	set("core.timeouts", float64(lr.traced.Timeouts), 0)
	set("core.ro_rejects", sumCounter(snaps, "server.ro_rejects"), 0)
	roRetry := 0.0
	if lr.traced.ROTotal > 0 {
		roRetry = float64(lr.traced.ROSends-lr.traced.ROTotal) / float64(lr.traced.ROTotal)
	}
	set("core.ro_retry_share", roRetry, uint64(lr.traced.ROTotal))
	publish := mergedHist(snaps, "server.snapshot_publish_ns")
	set("core.snapshot_publish_us_mean", histMean(publish)/1e3, publish.Count)
	stall := mergedHist(snaps, "transport.stream_stall_ns")
	set("transport.stream_stall_us_p99", bucketQuantileUs(stall, 0.99), stall.Count)
	poolMiss := 0.0
	if lr.traced.PoolGets > 0 {
		poolMiss = float64(lr.traced.PoolMisses) / float64(lr.traced.PoolGets)
	}
	set("transport.pool_miss_share", poolMiss, lr.traced.PoolGets)

	// Ratios between the runs.
	refRate, soloRate := ref["steps_per_s"].Value, solo["steps_per_s"].Value
	set("core.single_worker_steps_per_s", soloRate, solo["steps_per_s"].N)
	if soloRate > 0 {
		set("core.scaling_efficiency", refRate/(float64(wl.Workers)*soloRate), 0)
	}
	if refRate > 0 {
		set("core.trace_overhead_share", 1-tr["steps_per_s"].Value/refRate, 0)
	}
	refP50 = ref["step_p50_us"].Value
	if refP50 > 0 {
		set("core.unattributed_share", 1-blockingPathUs(wl, m)/refP50, 0)
	}
	for _, d := range metricDefs {
		if _, ok := m[d.Name]; !ok && !d.E2E {
			m[d.Name] = value{Unit: d.Unit}
		}
	}
	return m, refP50
}

// pathRow is one layer's self time on the blocking path.
type pathRow struct {
	name string
	us   float64
}

// blockingPath lists what the probes and spans attribute to one worker
// step through one shard, layer by layer. The push (payload out, ack back)
// and the pull (request out, payload back) are together one payload round
// trip and one ack round trip; nested probes subtract, so the three
// payload rows add up to tcp_rtt_payload_us. On the server the push is
// applied and the pull gathered, and the controller sees one push and one
// pull; compute is the worker's own. Whatever step_p50_us holds beyond the
// sum — queues between goroutines, the second shard sharing two cores,
// waiting for the other worker — no probe sees.
func blockingPath(wl workload, m map[string]value) []pathRow {
	tcp := m["transport.tcp_rtt_payload_us"].Value
	// A probe that a slow spell of the host hit can exceed the probe that
	// contains it; cap it there, so the payload rows still add up to tcp.
	frame := min(m["transport.frame_rtt_us"].Value, tcp)
	codec := min(2*(m["transport.encode_ns"].Value+m["transport.decode_ns"].Value)/1e3, frame)
	return []pathRow{
		{"transport codec (encode+decode, both ways)", codec},
		{"transport frame+socket self (frame_rtt - codec)", selfNs(frame, codec)},
		{"transport endpoint self (tcp_rtt_payload - frame_rtt)", selfNs(tcp, frame)},
		{"transport ack round trip", m["transport.tcp_rtt_ack_us"].Value},
		{"kvstore apply", m["kvstore.apply_us"].Value},
		{"kvstore gather", m["kvstore.gather_us"].Value},
		{"syncmodel controller", m["syncmodel.round_ns"].Value / 1e3 / float64(wl.Workers)},
		{"compute (gradient, delta, sleep)", m["mlmodel.compute_us"].Value},
	}
}

func blockingPathUs(wl workload, m map[string]value) float64 {
	var sum float64
	for _, r := range blockingPath(wl, m) {
		sum += r.us
	}
	return sum
}

// printSelfTimes shows where the blocking path's time sits layer by layer.
func printSelfTimes(w io.Writer, wl workload, m map[string]value, stepP50 float64) {
	fmt.Fprintf(w, "\nself time on one shard's blocking path, against step_p50_us = %.1f us (untraced reference window):\n", stepP50)
	for _, r := range blockingPath(wl, m) {
		fmt.Fprintf(w, "  %-55s %10.2f us\n", r.name, r.us)
	}
	fmt.Fprintf(w, "  %-55s %10.2f us (core.unattributed_share %.3f: reported, not asserted)\n",
		"unattributed", stepP50-blockingPathUs(wl, m), m["core.unattributed_share"].Value)
}

// printMetrics writes one table row per metric, in metricDefs order.
func printMetrics(w io.Writer, wl workload, m map[string]value) {
	for _, d := range metricDefs {
		v, ok := m[d.Name]
		if !ok {
			continue
		}
		if !d.appliesTo(wl.Name) {
			fmt.Fprintf(w, "  %-34s %14s %-7s (not defined on this workload)\n", d.Name, "-", d.Unit)
			continue
		}
		note := ""
		if v.N > 0 {
			note = fmt.Sprintf(" n=%d", v.N)
		}
		if v.Undersampled {
			note += " UNDERSAMPLED (<10 samples beyond)"
		}
		if len(v.Slices) > 0 {
			note += fmt.Sprintf(" slice-spread=%.3f", spread(v.Slices))
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-7s%s\n", d.Name, v.Value, d.Unit, note)
	}
}
