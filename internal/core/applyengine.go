package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/kvstore"
	"github.com/fluentps/fluentps/internal/mathx"
	"github.com/fluentps/fluentps/internal/transport"
)

// The apply engine: the only path a push or pull takes through a server.
// The ordered part of Algorithm 1 — the synchronization controller, the
// dedup windows, and the DPR buffer — is single-owner state touched only
// by the control goroutine (Run's apply stage); the part that commutes,
// applying gradient batches to independently locked shard stripes, is
// fanned out to a pool of ApplyWorkers goroutines.
//
// Messages are drained from the receive queue in *waves*: as many
// consecutive pushes and pulls as are already waiting (up to
// maxWaveMsgs), stopping at the first message of any other type (a
// barrier — set-cond, view, migrate, replicate, promote, stats, shutdown
// — which Server.apply dispatches against a quiescent shard). For each
// staged message the control goroutine runs the control logic in arrival
// order (dedup → fence → controller → dedup-record); the gradient is not
// applied but accumulated into per-stripe batches, with gradients for
// the same key coalesced into one fused mathx.AxpyBatch application.
// The wave then flushes: dirty stripes are dispatched to the worker pool
// over a buffered task channel, the control goroutine blocks on the
// completion channel until every stripe reports back (this is also the
// quiescence barrier structural shard operations rely on), and only then
// do the wave's deferred effects — push acks, pull responses, DPR
// releases — go out, so every response observes the parameters it would
// have observed under some legal one-at-a-time arrival order:
//
//   - A worker has at most one request outstanding, so deferring its
//     response cannot reorder that worker's requests; per-peer FIFO (which
//     the dedup windows rely on) is preserved.
//   - Pull responses sent after the wave's applies may reflect *more*
//     pushes than under the actual arrival interleaving — the same states
//     a one-at-a-time server produces when those pushes happen to arrive
//     first. (Algorithm 1's apply-before-answer, line 15 before lines
//     18–20, is kept: never fewer pushes.)
//
// A pool of one (ApplyWorkers 1, or one CPU) spawns no goroutine: the
// control goroutine applies every stripe batch inline. The wave batching
// still pays — one segment read-modify-write, one map lookup, one lock
// acquisition, and one stats snapshot per key per wave instead of per
// push. True stripe parallelism stacks on top on multicore.

// maxWaveMsgs caps how many pushes/pulls one wave stages before flushing,
// bounding deferred-ack latency and the staging buffers.
const maxWaveMsgs = 64

// applyTask names one dirty stripe for the worker pool; stage buffers
// live in the engine, indexed by stripe.
type applyTask = int

// actKind discriminates the wave's deferred effects.
type actKind uint8

const (
	actPushAck actKind = iota
	actPullResp
)

// pendingAct is one deferred effect, executed in control order after the
// wave's applies complete.
type pendingAct struct {
	kind actKind
	to   transport.NodeID
	seq  uint64
	tok  pullToken
}

// stripeStage accumulates one stripe's coalesced batch for the current
// wave. err is written by the apply worker that processed the stripe and
// read by the control goroutine after the completion-channel receive
// (which provides the happens-before edge).
type stripeStage struct {
	items []kvstore.BatchItem
	err   error
}

type applyEngine struct {
	s       *Server
	workers int
	scale   float64

	// tasks and compl are buffered to the stripe count, so dispatching a
	// full wave never blocks the control goroutine and workers never block
	// reporting completion.
	tasks chan applyTask
	compl chan applyTask
	wg    sync.WaitGroup

	stripes []stripeStage
	dirty   []int
	acts    []pendingAct
	msgs    []*transport.Message
	// pairs are the (worker, seq) pushes this wave consumed, replicated to
	// the backup alongside the coalesced deltas (replication.go).
	pairs []dedupPair

	// Same-key coalescing index, dense over the layout's key space (keys
	// are small ints, so an array beats a map by an order of magnitude on
	// the staging path). idx[k] is the position of k's batch item within
	// its stripe's stage, valid only when stamp[k] equals the current wave
	// number — bumping `wave` invalidates the whole index in O(1), so
	// nothing is cleared between waves.
	idx   []int32
	stamp []uint32
	wave  uint32
}

func (s *Server) newApplyEngine() *applyEngine {
	n := s.shard.NumStripes()
	workers := min(s.cfg.applyWorkers(), n)
	e := &applyEngine{
		s:       s,
		workers: workers,
		scale:   1 / float64(s.cfg.NumWorkers),
		tasks:   make(chan applyTask, n),
		compl:   make(chan applyTask, n),
		stripes: make([]stripeStage, n),
		dirty:   make([]int, 0, n),
		idx:     make([]int32, s.cfg.Layout.NumKeys()),
		stamp:   make([]uint32, s.cfg.Layout.NumKeys()),
		wave:    1,
	}
	if workers > 1 {
		// A pool of one applies inline (flush), so it needs no goroutine.
		for i := 0; i < workers; i++ {
			e.wg.Add(1)
			go e.worker()
		}
	}
	return e
}

// worker applies dispatched stripe batches. The stripe lock is taken and
// released inside ApplyBatch; the completion send happens with no lock
// held.
func (e *applyEngine) worker() {
	defer e.wg.Done()
	for st := range e.tasks {
		stg := &e.stripes[st]
		stg.err = e.s.shard.ApplyBatch(st, e.scale, stg.items)
		e.compl <- st
	}
}

// stop drains the pool. Callers must not stop mid-wave (runBatched
// flushes or resets before returning).
func (e *applyEngine) stop() {
	close(e.tasks)
	e.wg.Wait()
}

// runBatched is Run's apply stage: it drains the receive queue in waves
// through the engine and hands barriers to Server.apply, plus the
// periodic adaptive re-evaluation and replication tick.
func (s *Server) runBatched(queue chan queuedMsg) (shutdown bool, err error) {
	e := s.newApplyEngine()
	s.eng = e
	defer e.stop()
	if s.metrics.on {
		s.cfg.Telemetry.GaugeFunc("server.apply_stripe_queue_depth", func() int64 {
			return int64(len(e.tasks))
		})
	}
	tick := time.NewTicker(s.adaptEvery())
	defer tick.Stop()
	// A controller restored before Run (a promoted replica) starts past
	// the boot snapshot's cut; mirror its clock so the first reader sees
	// that and demands a publish.
	s.maybePublishSnapshot()
	for {
		var q queuedMsg
		// The tick only fires here, between waves: the engine is empty and
		// the control goroutine is the sole owner of controller and shard,
		// so a model switch sees a quiescent shard exactly like a barrier
		// message would.
		select {
		case nq, ok := <-queue:
			if !ok {
				return false, nil
			}
			q = nq
		case <-tick.C:
			if err := s.reevaluate(); err != nil {
				return false, err
			}
			if err := s.replTick(); err != nil {
				return false, err
			}
			continue
		case <-s.roNudge:
			// A reader found the snapshot too stale (roserver.go) while
			// the queue is idle: no wave boundary is coming, publish now.
			s.maybePublishSnapshot()
			continue
		}
		open := true
		var barrier *transport.Message
	drain:
		for {
			if s.metrics.on {
				s.metrics.applyWait.Observe(time.Since(q.at))
			}
			switch q.msg.Type {
			case transport.MsgPush:
				if s.holdForMigration(q.msg) {
					s.holdMsg(q.msg)
				} else if err := e.stagePush(q.msg); err != nil {
					e.reset()
					return false, err
				}
			case transport.MsgPull:
				if s.holdForMigration(q.msg) {
					s.holdMsg(q.msg)
				} else if err := e.stagePull(q.msg); err != nil {
					e.reset()
					return false, err
				}
			default:
				barrier = q.msg
				break drain
			}
			if len(e.msgs) >= maxWaveMsgs {
				break drain
			}
			select {
			case nq, ok := <-queue:
				if !ok {
					open = false
					break drain
				}
				q = nq
			default:
				break drain
			}
		}
		if err := e.flush(); err != nil {
			return false, err
		}
		s.snapshotStats()
		// flush's completion barrier left the shard quiescent: the wave
		// boundary is where RO snapshot epochs are cut, if a reader asked.
		s.maybePublishSnapshot()
		if barrier != nil {
			shutdown, err := s.apply(barrier)
			if err != nil || shutdown {
				return shutdown, err
			}
			s.maybePublishSnapshot()
		}
		if !open {
			return false, nil
		}
	}
}

// stagePush runs a push's control logic (dedup → fence → ctrl.OnPush →
// dedup-record) and stages the gradient payload into per-stripe batches;
// flush applies them (Algorithm 1 line 15: w ← w + g/N) before any of the
// wave's acks or released pulls go out. Ownership of msg passes to the
// engine (released at wave end).
func (e *applyEngine) stagePush(msg *transport.Message) error {
	s := e.s
	e.msgs = append(e.msgs, msg)
	if _, dup := s.dedupLookup(msg.From, msg.Seq); dup {
		// A retransmission (or a duplicated frame) of a push already
		// consumed: re-ack so the retrying worker unblocks, but never
		// re-apply the gradient — at-least-once delivery plus this window
		// yields effectively-once application.
		s.dedupHits++
		s.metrics.dedupPushHits.Inc()
		e.acts = append(e.acts, pendingAct{kind: actPushAck, to: msg.From, seq: msg.Seq})
		return nil
	}
	if s.staleFenced(msg) {
		// Rejections need no wave barrier: the push was not applied.
		return s.rejectStale(msg.From, msg.Seq)
	}
	worker := int(msg.From.Rank)
	progress := int(msg.Progress)
	if s.adapt != nil {
		s.adapt.ObservePush(worker, s.now())
	}
	advancesBefore := s.debugAdvances()
	apply, released := s.ctrl.OnPush(worker, progress)
	s.assertDrainImpliesAdvance(len(released), advancesBefore)
	if apply {
		if err := s.shard.ForEachPayload(msg.Keys, msg.Vals, e.stageGrad); err != nil {
			return fmt.Errorf("core: server %d apply push from %s: %w", s.cfg.Rank, msg.From, err)
		}
		s.metrics.pushesApplied.Inc()
	} else {
		s.metrics.pushesDropped.Inc()
	}
	// A dropped push is consumed too: its duplicate must not be offered
	// to the controller a second time.
	s.dedupRecord(msg.From, msg.Seq, dedupPushDone)
	e.pairs = append(e.pairs, dedupPair{from: msg.From, seq: msg.Seq})
	e.acts = append(e.acts, pendingAct{kind: actPushAck, to: msg.From, seq: msg.Seq})
	for _, rel := range released {
		s.assertSSPStaleness(rel.Progress)
		tok := rel.Token.(pullToken)
		s.metrics.dprDrained.Inc()
		if s.metrics.on && !tok.at.IsZero() {
			s.metrics.dprWait.Observe(time.Since(tok.at))
		}
		e.acts = append(e.acts, pendingAct{kind: actPullResp, tok: tok})
	}
	return nil
}

// stageGrad adds one key's gradient (aliasing the staged message's Vals,
// which outlive the wave) to its stripe's batch, coalescing with an
// earlier same-key gradient when one is staged. k is layout-checked by
// ForEachPayload before this is called, so indexing idx/stamp is safe.
func (e *applyEngine) stageGrad(k keyrange.Key, grad []float64) {
	st := e.s.shard.StripeOf(k)
	stg := &e.stripes[st]
	if e.stamp[k] == e.wave {
		it := &stg.items[e.idx[k]]
		it.Grads = append(it.Grads, grad)
		return
	}
	if len(stg.items) == 0 {
		e.dirty = append(e.dirty, st)
	}
	n := len(stg.items)
	if n < cap(stg.items) {
		// Reuse the retired item's Grads backing array from an earlier wave.
		stg.items = stg.items[:n+1]
		it := &stg.items[n]
		it.Key = k
		it.Grads = append(it.Grads[:0], grad)
	} else {
		stg.items = append(stg.items, kvstore.BatchItem{Key: k, Grads: [][]float64{grad}})
	}
	e.idx[k] = int32(n)
	e.stamp[k] = e.wave
}

// stagePull runs a pull's control logic (dedup → fence → ctrl.OnPull →
// dedup-record); an immediate answer becomes a deferred act so it
// observes the wave's applies. Ownership of msg passes to the engine.
func (e *applyEngine) stagePull(msg *transport.Message) error {
	s := e.s
	e.msgs = append(e.msgs, msg)
	if out, dup := s.dedupLookup(msg.From, msg.Seq); dup {
		s.dedupHits++
		s.metrics.dedupPullHits.Inc()
		// A duplicate of a pull still buffered as a DPR is ignored: the
		// original will be answered when a push releases it; registering
		// the duplicate would answer the worker twice and corrupt the DPR
		// accounting.
		if out == dedupPullAnswered {
			// A retry that outlived a view change may name keys this
			// shard no longer holds; re-answering would fail the gather.
			// Fence it like a first-time request: re-answering never
			// mutated anything, so the worker's reissue is safe.
			if s.staleFenced(msg) {
				return s.rejectStale(msg.From, msg.Seq)
			}
			// Re-answer a retried pull whose response was lost (pulls do
			// not mutate, so current parameters are safe).
			e.acts = append(e.acts, pendingAct{kind: actPullResp, tok: waveToken(msg)})
		}
		return nil
	}
	if s.staleFenced(msg) {
		return s.rejectStale(msg.From, msg.Seq)
	}
	worker := int(msg.From.Rank)
	progress := int(msg.Progress)
	s.metrics.pulls.Inc()
	// The retained token (a key copy, boxed) is built only if the
	// controller buffers the pull.
	if s.ctrl.OnPullLazy(worker, progress, func() any { return s.retainedToken(msg) }) {
		s.assertSSPStaleness(progress)
		s.dedupRecord(msg.From, msg.Seq, dedupPullAnswered)
		e.acts = append(e.acts, pendingAct{kind: actPullResp, tok: waveToken(msg)})
		return nil
	}
	s.dedupRecord(msg.From, msg.Seq, dedupPullPending)
	s.metrics.dprBuffered.Inc()
	return nil // buffered as a DPR; answered by a later push
}

// waveToken is the token of a pull answered within its own wave: its keys
// alias msg, which the engine keeps alive until the wave's acts have run.
func waveToken(msg *transport.Message) pullToken {
	return pullToken{from: msg.From, seq: msg.Seq, keys: msg.Keys}
}

// retainedToken is the token of a pull buffered as a DPR, which outlives
// the wave that recycles a receiver-owned msg — so it takes a copy of the
// keys. (Sender-owned messages are safe to alias: the worker holds them
// until its pull completes, which is after any DPR release.)
func (s *Server) retainedToken(msg *transport.Message) pullToken {
	tok := pullToken{from: msg.From, seq: msg.Seq, keys: msg.Keys}
	if msg.ReceiverOwned() {
		tok.keys = append([]keyrange.Key(nil), msg.Keys...)
	}
	if s.metrics.on {
		tok.at = time.Now()
	}
	return tok
}

// flush applies the wave's dirty stripes, then executes the deferred
// effects in control order, then releases the wave's messages. After the
// completion barrier the shard is quiescent again, so the pull responses
// read the live segments race-free on the control goroutine.
func (e *applyEngine) flush() error {
	defer e.reset()
	s := e.s
	switch {
	case len(e.dirty) == 0:
		// Pure-pull (or all-dropped) wave: nothing to apply.
	case len(e.dirty) == 1 || e.workers == 1:
		// A single batch (or a single worker) gains nothing from the
		// channel round-trip — apply inline.
		for _, st := range e.dirty {
			stg := &e.stripes[st]
			e.observeBatch(stg)
			if err := s.shard.ApplyBatch(st, e.scale, stg.items); err != nil {
				return fmt.Errorf("core: server %d apply batch: %w", s.cfg.Rank, err)
			}
		}
	default:
		for _, st := range e.dirty {
			e.observeBatch(&e.stripes[st])
			e.tasks <- st
		}
		var firstErr error
		for range e.dirty {
			st := <-e.compl
			if err := e.stripes[st].err; err != nil && firstErr == nil {
				firstErr = fmt.Errorf("core: server %d apply batch: %w", s.cfg.Rank, err)
			}
		}
		if firstErr != nil {
			return firstErr
		}
	}
	if s.replActive() {
		return e.flushReplicated()
	}
	for i := range e.acts {
		a := &e.acts[i]
		switch a.kind {
		case actPushAck:
			if err := s.ack(transport.MsgPushAck, a.to, a.seq); err != nil {
				return fmt.Errorf("core: server %d ack push: %w", s.cfg.Rank, err)
			}
		case actPullResp:
			if err := s.respondPull(a.tok); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushReplicated executes a wave's deferred effects under replication:
// pull responses go out immediately (pulls do not mutate), push acks park
// on the replication wave carrying the pushes' effects and are released
// by the backup's acknowledgement — so an ack always means "replicated".
func (e *applyEngine) flushReplicated() error {
	s := e.s
	var refs []ackRef
	for i := range e.acts {
		a := &e.acts[i]
		if a.kind == actPushAck {
			refs = append(refs, ackRef{to: a.to, seq: a.seq})
			continue
		}
		if err := s.respondPull(a.tok); err != nil {
			return err
		}
	}
	if len(e.pairs) > 0 {
		return s.sendWave(e.buildWave(), refs)
	}
	// Dup-only traffic: nothing new to replicate, but the re-acks must
	// still wait out any wave their original rode on.
	for _, r := range refs {
		if err := s.ackOrPark(r.to, r.seq); err != nil {
			return fmt.Errorf("core: server %d ack push: %w", s.cfg.Rank, err)
		}
	}
	return nil
}

// buildWave turns the staged stripe batches into a replication wave: per
// key, the coalesced staged gradients fold into one pre-scaled delta —
// exactly what ApplyBatch added to the shard.
func (e *applyEngine) buildWave() *replWave {
	s := e.s
	w := s.newWave(false)
	w.pairs = append([]dedupPair(nil), e.pairs...)
	for _, st := range e.dirty {
		stg := &e.stripes[st]
		for i := range stg.items {
			it := &stg.items[i]
			w.keys = append(w.keys, it.Key)
			w.perKey = append(w.perKey, uint64(len(it.Grads)))
			size := s.cfg.Layout.KeySize(it.Key)
			start := len(w.vals)
			w.vals = append(w.vals, make([]float64, size)...)
			seg := w.vals[start:]
			for _, g := range it.Grads {
				mathx.Axpy(e.scale, g, seg)
			}
		}
	}
	return w
}

// observeBatch feeds the apply-batch-size histogram (gradient count per
// stripe batch, observed as a duration of n nanoseconds).
func (e *applyEngine) observeBatch(stg *stripeStage) {
	if !e.s.metrics.on {
		return
	}
	n := 0
	for i := range stg.items {
		n += len(stg.items[i].Grads)
	}
	e.s.metrics.applyBatch.Observe(time.Duration(n))
}

// reset returns the engine to an empty wave: staged items are truncated
// (their backing arrays are kept for reuse), the wave's messages are
// recycled, and the coalescing index is cleared.
func (e *applyEngine) reset() {
	for _, st := range e.dirty {
		stg := &e.stripes[st]
		stg.items = stg.items[:0]
		stg.err = nil
	}
	e.dirty = e.dirty[:0]
	e.acts = e.acts[:0]
	e.pairs = e.pairs[:0]
	for _, m := range e.msgs {
		transport.ReleaseReceived(m)
	}
	e.msgs = e.msgs[:0]
	e.wave++
	if e.wave == 0 {
		// Wrapped (after 2^32−1 waves): stale stamps could alias wave
		// numbers again, so clear them once and restart from 1.
		clear(e.stamp)
		e.wave = 1
	}
}
