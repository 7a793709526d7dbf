package core

import (
	"github.com/fluentps/fluentps/internal/telemetry"
)

// Telemetry wiring. A server or worker is handed a *telemetry.Registry
// through its config (nil/telemetry.Nop disables collection); the metric
// pointers are resolved once at construction, so the hot path touches
// only nil-safe atomic instruments. The `on` flag gates the time.Now()
// reads that feed the latency histograms — a clock read costs more than a
// counter, so disabled telemetry must not pay for timestamps either.
//
// Metric names (one registry per node process):
//
//	server.pushes_applied    counter  gradients applied to the shard
//	server.pushes_dropped    counter  pushes rejected by drop-stragglers
//	server.pulls             counter  pull requests admitted to the controller
//	server.dedup_push_hits   counter  duplicate pushes absorbed (re-acked)
//	server.dedup_pull_hits   counter  duplicate pulls absorbed
//	server.dpr_buffered      counter  pulls delayed into the DPR buffer
//	server.dpr_drained       counter  buffered pulls released by pushes/set-cond
//	server.apply_wait_ns     histogram time a message queued between recv and apply
//	server.dpr_wait_ns       histogram time a released pull spent in the DPR buffer
//	server.v_train           gauge    the shard's overall training progress
//	server.min_progress      gauge    slowest worker progress seen
//	server.max_progress      gauge    fastest worker progress seen
//	server.progress_skew     gauge    max − min worker progress
//	server.dpr_depth         gauge    pulls currently waiting in the DPR buffer
//	server.sync_model_switches counter sync-model kind changes (admin set-cond
//	                                  or the adaptive controller)
//	server.sync_staleness    gauge    effective staleness bound of the live
//	                                  model (−1 = unbounded/ASP)
//	server.apply_queue_depth gauge(fn) messages waiting between recv and apply
//	server.apply_batch_size  histogram gradients fused per stripe batch (a
//	                                  count observed as a duration; bucket n
//	                                  = batches of ~2^n gradients)
//	server.apply_stripe_queue_depth gauge(fn) stripe batches dispatched to
//	                                  apply workers and not yet picked up
//	server.view_epoch        gauge    epoch of the installed cluster view
//	server.stale_view_rejects counter requests rejected for stale view routing
//	server.replicate_waves   counter  replication waves sent to the backup
//	server.replicate_resends counter  unacked waves retransmitted on tick
//	server.replica_waves_applied counter waves folded into hosted replicas
//	server.promotions        counter  dead primaries promoted into this process
//	server.snapshot_epoch    gauge    epoch of the published RO parameter snapshot
//	server.snapshot_publish_ns histogram time to publish one snapshot epoch
//	server.ro_pulls          counter  read-only pulls served from snapshots
//	server.ro_rejects        counter  read-only pulls shed by admission control
//	server.ro_stale_waits    counter  read-only pulls that found the snapshot
//	                                  SnapshotEvery behind (first read after
//	                                  idle) and waited for a fresh publish
//
//	worker.pushes            counter  sPush operations started
//	worker.pulls             counter  sPull operations started
//	worker.retries           counter  retransmitted requests
//	worker.timeouts          counter  requests abandoned on timeout
//	worker.stale_responses   counter  responses that arrived after abandonment
//	worker.push_rtt_ns       histogram per-shard push round-trip time
//	worker.pull_rtt_ns       histogram per-shard pull round-trip time
//	worker.outstanding       gauge(fn) requests currently in flight
//	worker.pipeline_depth    gauge(fn) requests queued in the per-server pipelines
//	worker.view_adoptions    counter  newer cluster views adopted
//	worker.reissues          counter  requests reissued after stale-view rejects

// serverMetrics bundles one server's instruments; the zero value (all nil
// pointers, on=false) is fully disabled.
type serverMetrics struct {
	on bool

	pushesApplied *telemetry.Counter
	pushesDropped *telemetry.Counter
	pulls         *telemetry.Counter
	dedupPushHits *telemetry.Counter
	dedupPullHits *telemetry.Counter
	dprBuffered   *telemetry.Counter
	dprDrained    *telemetry.Counter

	applyWait  *telemetry.Histogram
	dprWait    *telemetry.Histogram
	applyBatch *telemetry.Histogram

	syncSwitches *telemetry.Counter

	vtrain        *telemetry.Gauge
	minProgress   *telemetry.Gauge
	maxProgress   *telemetry.Gauge
	skew          *telemetry.Gauge
	dprDepth      *telemetry.Gauge
	syncStaleness *telemetry.Gauge

	viewEpoch           *telemetry.Gauge
	staleViewRejects    *telemetry.Counter
	replicateWaves      *telemetry.Counter
	replicateResends    *telemetry.Counter
	replicaWavesApplied *telemetry.Counter
	promotions          *telemetry.Counter

	snapshotEpoch   *telemetry.Gauge
	snapshotPublish *telemetry.Histogram
	roPulls         *telemetry.Counter
	roRejects       *telemetry.Counter
	roStaleWaits    *telemetry.Counter
}

func newServerMetrics(r *telemetry.Registry) serverMetrics {
	return serverMetrics{
		on:            r != nil,
		pushesApplied: r.Counter("server.pushes_applied"),
		pushesDropped: r.Counter("server.pushes_dropped"),
		pulls:         r.Counter("server.pulls"),
		dedupPushHits: r.Counter("server.dedup_push_hits"),
		dedupPullHits: r.Counter("server.dedup_pull_hits"),
		dprBuffered:   r.Counter("server.dpr_buffered"),
		dprDrained:    r.Counter("server.dpr_drained"),
		applyWait:     r.Histogram("server.apply_wait_ns"),
		dprWait:       r.Histogram("server.dpr_wait_ns"),
		applyBatch:    r.Histogram("server.apply_batch_size"),
		syncSwitches:  r.Counter("server.sync_model_switches"),
		vtrain:        r.Gauge("server.v_train"),
		minProgress:   r.Gauge("server.min_progress"),
		maxProgress:   r.Gauge("server.max_progress"),
		skew:          r.Gauge("server.progress_skew"),
		dprDepth:      r.Gauge("server.dpr_depth"),
		syncStaleness: r.Gauge("server.sync_staleness"),

		viewEpoch:           r.Gauge("server.view_epoch"),
		staleViewRejects:    r.Counter("server.stale_view_rejects"),
		replicateWaves:      r.Counter("server.replicate_waves"),
		replicateResends:    r.Counter("server.replicate_resends"),
		replicaWavesApplied: r.Counter("server.replica_waves_applied"),
		promotions:          r.Counter("server.promotions"),

		snapshotEpoch:   r.Gauge("server.snapshot_epoch"),
		snapshotPublish: r.Histogram("server.snapshot_publish_ns"),
		roPulls:         r.Counter("server.ro_pulls"),
		roRejects:       r.Counter("server.ro_rejects"),
		roStaleWaits:    r.Counter("server.ro_stale_waits"),
	}
}

// workerMetrics bundles one worker's instruments; zero value disabled.
type workerMetrics struct {
	on bool

	pushes   *telemetry.Counter
	pulls    *telemetry.Counter
	retries  *telemetry.Counter
	timeouts *telemetry.Counter
	stale    *telemetry.Counter

	pushRTT *telemetry.Histogram
	pullRTT *telemetry.Histogram

	viewAdoptions *telemetry.Counter
	reissues      *telemetry.Counter
}

func newWorkerMetrics(r *telemetry.Registry) workerMetrics {
	return workerMetrics{
		on:       r != nil,
		pushes:   r.Counter("worker.pushes"),
		pulls:    r.Counter("worker.pulls"),
		retries:  r.Counter("worker.retries"),
		timeouts: r.Counter("worker.timeouts"),
		stale:    r.Counter("worker.stale_responses"),
		pushRTT:  r.Histogram("worker.push_rtt_ns"),
		pullRTT:  r.Histogram("worker.pull_rtt_ns"),

		viewAdoptions: r.Counter("worker.view_adoptions"),
		reissues:      r.Counter("worker.reissues"),
	}
}
