package core

import (
	"context"
	"errors"
	"time"

	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/kvstore"
	"github.com/fluentps/fluentps/internal/transport"
)

// The read-optimized serving tier: MsgPullRO requests answered entirely
// from the shard's published epoch snapshots (kvstore/snapshot.go),
// never touching a stripe lock, the controller, or the dedup windows.
//
// Three paths serve RO pulls, sharing servePullRO:
//
//   - The receive goroutine intercepts MsgPullRO arriving on the
//     server's own endpoint and submits it to the reader pool. A full
//     pool queue is admission control: the request is answered with
//     MsgPullRORetry immediately instead of queueing behind the apply
//     path (a pull storm backpressures, it cannot OOM the server).
//   - HandleRO serves one mux stream (or any Send/Recv conn): each
//     stream's goroutine submits to the same pool, so the per-server
//     concurrency bound holds across every attached session.
//   - With the pool disabled (ReaderPool < 0) the apply loop serves
//     MsgPullRO inline — still lock-free, but serialized with training.
//
// Snapshots are cut on reader demand, not on a schedule: the apply loop
// publishes at a wave boundary only when a reader recently asked (see
// maybePublishSnapshot), so a shard nobody reads never copies itself
// after the boot epoch. The freshness contract of SnapshotEvery is kept
// on the serving side instead: servePullRO never answers from a snapshot
// SnapshotEvery or more V_train ticks behind the live clock — it asks
// the apply loop for a fresh cut and waits for it (awaitFresh).
//
// Full-shard responses are zero-copy: they alias the snapshot's cached
// flat payload and key slice into a non-pooled message (immutable by
// the snapshot contract, so aliasing is safe even on pointer-passing
// transports). Subset responses copy, since they are assembled per
// request.

// DefaultReaderPool is the reader-pool size used when
// ServerConfig.ReaderPool is zero.
const DefaultReaderPool = 2

// roDemandPublishes is how many due publishes one RO pull pays for in
// advance: a steady reader keeps the publish-per-wave cadence without
// ever waiting, and the last reader's departure costs this many more
// shard copies, then none.
const roDemandPublishes = 8

// DefaultRetryAfterMs is the retry-after hint (milliseconds) carried by
// MsgPullRORetry under admission control or an unsatisfiable epoch bound.
const DefaultRetryAfterMs = 2

// roStaleWait bounds how long a pull that found the snapshot too stale
// waits for the apply loop to cut a fresh one before it is answered with
// MsgPullRORetry instead. An idle or wave-processing apply loop publishes
// within microseconds; only a long barrier (a key migration) runs it out.
const roStaleWait = DefaultRetryAfterMs * time.Millisecond

// readerPool resolves ServerConfig.ReaderPool: zero means
// DefaultReaderPool, negative disables the pool.
func (cfg *ServerConfig) readerPool() int {
	if cfg.ReaderPool == 0 {
		return DefaultReaderPool
	}
	return cfg.ReaderPool
}

// roQueueDepth sizes the pool's admission queue from its worker count:
// enough to keep the pool busy, small enough that saturation sheds load
// within one queue's worth of requests.
func roQueueDepth(pool int) int { return 8 * pool }

// roSender is where an RO response goes: the server's endpoint for
// requests that arrived there, or the mux stream that carried the
// request. transport.Endpoint and *transport.MuxStream both satisfy it.
type roSender interface {
	Send(m *transport.Message) error
}

// roReq is one read-only pull waiting for a pool worker.
type roReq struct {
	msg   *transport.Message
	reply roSender
}

// submitRO hands a received MsgPullRO to the reader pool, or sheds it
// with a retry-after when the pool queue is full. Called off the apply
// goroutine (receive stage, HandleRO streams); takes ownership of msg.
func (s *Server) submitRO(msg *transport.Message, reply roSender) {
	select {
	case s.roQueue <- roReq{msg: msg, reply: reply}:
	default:
		s.metrics.roRejects.Inc()
		_ = s.sendRORetry(reply, msg)
		transport.ReleaseReceived(msg)
	}
}

// roWorker is one reader-pool goroutine: it drains the RO queue until
// Run closes roStop.
func (s *Server) roWorker() {
	defer s.roWG.Done()
	for {
		select {
		case req := <-s.roQueue:
			_ = s.servePullRO(req.msg, req.reply)
			transport.ReleaseReceived(req.msg)
		case <-s.roStop:
			return
		}
	}
}

// servePullRO answers one read-only pull from the current snapshot.
// Safe from any goroutine: it touches only the atomic snapshot pointer,
// immutable snapshot data, and nil-safe metrics.
func (s *Server) servePullRO(msg *transport.Message, reply roSender) error {
	s.roDemand.Store(roDemandPublishes)
	snap := s.shard.ROSnapshot()
	if s.tooStale(snap) {
		s.metrics.roStaleWaits.Inc()
		if snap = s.awaitFresh(); s.tooStale(snap) {
			return s.sendRORetry(reply, msg)
		}
	}
	// For RO messages View is a snapshot-epoch stamp, not a cluster-view
	// epoch: the client's minimum acceptable epoch (its monotone-reads
	// bound). A bound ahead of the published epoch cannot be served yet.
	if bound := msg.View; bound != 0 && uint32(snap.Epoch) < bound {
		return s.sendRORetry(reply, msg)
	}
	resp := &transport.Message{
		Type:     transport.MsgPullROResp,
		To:       msg.From,
		Seq:      msg.Seq,
		View:     uint32(snap.Epoch),
		Progress: int32(snap.VTrain),
	}
	if len(msg.Keys) == 0 {
		// Whole-shard pull: alias the snapshot's cached flat payload and
		// frozen key slice — zero copies, zero locks, O(1) after the
		// first reader of this epoch materializes the cache.
		resp.Keys = snap.Keys()
		resp.Vals = snap.Flat()
	} else {
		vals, err := snap.Gather(make([]float64, 0, len(msg.Vals)), msg.Keys)
		if err != nil {
			// The client's key set outran a view change; tell it to back
			// off and re-resolve rather than failing the server.
			return s.sendRORetry(reply, msg)
		}
		resp.Keys = append([]keyrange.Key(nil), msg.Keys...)
		resp.Vals = vals
	}
	s.roServed.Add(1)
	s.metrics.roPulls.Inc()
	return reply.Send(resp)
}

// sendRORetry answers msg with MsgPullRORetry; Progress carries the
// retry-after hint in milliseconds.
func (s *Server) sendRORetry(reply roSender, msg *transport.Message) error {
	return reply.Send(&transport.Message{
		Type:     transport.MsgPullRORetry,
		To:       msg.From,
		Seq:      msg.Seq,
		Progress: DefaultRetryAfterMs,
	})
}

// ROConn is the two-method connection HandleRO serves: a mux stream, an
// endpoint, or anything request-shaped in tests.
type ROConn interface {
	Send(m *transport.Message) error
	Recv() (*transport.Message, error)
}

// HandleRO serves read-only pulls arriving on conn until it closes,
// submitting each to the reader pool (or serving inline when the pool
// is disabled). Run it in its own goroutine, one per accepted mux
// stream; any number may run concurrently. Returns nil on a clean
// close.
//
//lint:ignore ctxcheck closing the stream is the cancellation surface: Recv unblocks with ErrClosed on session or server shutdown
func (s *Server) HandleRO(conn ROConn) error {
	for {
		msg, err := conn.Recv()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return err
		}
		if msg.Type != transport.MsgPullRO {
			transport.ReleaseReceived(msg)
			continue
		}
		if s.roQueue != nil {
			s.submitRO(msg, conn)
			continue
		}
		err = s.servePullRO(msg, conn)
		transport.ReleaseReceived(msg)
		if err != nil {
			return err
		}
	}
}

// tooStale reports whether snap breaks the SnapshotEvery freshness
// bound against the live V_train the apply goroutine last mirrored. A
// negative SnapshotEvery freezes the boot epoch: nothing is ever stale.
func (s *Server) tooStale(snap *kvstore.Snapshot) bool {
	every := s.cfg.SnapshotEvery
	return every >= 0 && int(s.liveVTrain.Load())-snap.VTrain >= max(every, 1)
}

// awaitFresh asks the apply loop for a publish and waits (at most
// roStaleWait) until one lands, returning the then-current snapshot. The
// nudge wakes an idle apply loop at once — a reader arriving after
// training stopped must see the final parameters, not the boot epoch; a
// busy one publishes at its next wave boundary because demand is set.
func (s *Server) awaitFresh() *kvstore.Snapshot {
	select {
	case s.roNudge <- struct{}{}:
	default: // a nudge is already pending
	}
	s.pubMu.Lock()
	if s.published == nil {
		s.published = make(chan struct{})
	}
	published := s.published
	s.pubMu.Unlock()
	// A publish between the caller's staleness check and the lock above
	// closed the previous channel, not this one: look again before
	// sleeping.
	if snap := s.shard.ROSnapshot(); !s.tooStale(snap) {
		return snap
	}
	timer := time.NewTimer(roStaleWait)
	defer timer.Stop()
	select {
	case <-published:
	case <-timer.C:
	}
	return s.shard.ROSnapshot()
}

// maybePublishSnapshot cuts a new RO snapshot epoch if a reader wants
// one: an RO pull marks demand (which lingers for roDemandPublishes
// publishes), and with demand the shard is republished once V_train has
// advanced SnapshotEvery ticks past the last publish. A key set changed
// by elastic migration forces a publish regardless — snapshot gathers
// must fail over to the new owner, not serve moved keys forever. Then the
// live V_train is mirrored for the readers' freshness check (after the
// publish, so a steady reader never sees the clock ahead of a snapshot
// that is about to catch up). Called only from the apply goroutine at
// quiescence points.
func (s *Server) maybePublishSnapshot() {
	if s.cfg.SnapshotEvery < 0 {
		return
	}
	vt := s.ctrl.VTrain()
	snap := s.shard.ROSnapshot()
	due := vt-snap.VTrain >= max(s.cfg.SnapshotEvery, 1)
	wanted := s.roDemand.Load() > 0
	if keysMoved := len(s.shard.Keys()) != len(snap.Keys()); keysMoved || (due && wanted) {
		if wanted {
			s.roDemand.Add(-1)
		}
		s.publishSnapshot(vt)
	}
	s.liveVTrain.Store(int64(vt))
}

// publishSnapshot publishes the shard at V_train tick vt and wakes every
// reader parked in awaitFresh.
func (s *Server) publishSnapshot(vt int) {
	var start time.Time
	if s.metrics.on {
		start = time.Now()
	}
	sn := s.shard.PublishSnapshot(vt)
	s.metrics.snapshotEpoch.Set(int64(sn.Epoch))
	if s.metrics.on {
		s.metrics.snapshotPublish.Observe(time.Since(start))
	}
	s.pubMu.Lock()
	if s.published != nil {
		close(s.published)
		s.published = nil
	}
	s.pubMu.Unlock()
}

// ROClient issues read-only pulls over one ROConn (a mux stream, an
// endpoint, anything request-shaped), tracking the highest epoch it has
// seen so repeated pulls are monotone: a later Pull never observes an
// older snapshot.
type ROClient struct {
	conn     ROConn
	server   int
	seq      uint64
	minEpoch uint32
}

// NewROClient wraps conn as a read-only pull client of server m.
func NewROClient(conn ROConn, server int) *ROClient {
	return &ROClient{conn: conn, server: server}
}

// Epoch returns the highest snapshot epoch stamp observed so far.
func (c *ROClient) Epoch() uint32 { return c.minEpoch }

// Pull fetches the current whole-shard snapshot into dst (when non-nil)
// and returns its epoch stamp and V_train cut, honoring retry-after
// backoff until ctx expires.
func (c *ROClient) Pull(ctx context.Context, dst []float64) (epoch uint32, vtrain int, err error) {
	return c.PullKeys(ctx, nil, dst)
}

// PullKeys is Pull restricted to the given keys (nil = whole shard);
// dst, when non-nil, receives the concatenated segments in key order.
func (c *ROClient) PullKeys(ctx context.Context, keys []keyrange.Key, dst []float64) (epoch uint32, vtrain int, err error) {
	for {
		c.seq++
		req := &transport.Message{
			Type: transport.MsgPullRO,
			To:   transport.Server(c.server),
			Seq:  c.seq,
			View: c.minEpoch,
			Keys: keys,
		}
		if err := c.conn.Send(req); err != nil {
			return 0, 0, err
		}
		resp, err := c.await(ctx)
		if err != nil {
			return 0, 0, err
		}
		if resp.Type == transport.MsgPullROResp {
			if dst != nil {
				copy(dst, resp.Vals)
			}
			epoch, vtrain = resp.View, int(resp.Progress)
			if epoch > c.minEpoch {
				c.minEpoch = epoch
			}
			transport.ReleaseReceived(resp)
			return epoch, vtrain, nil
		}
		wait := time.Duration(resp.Progress) * time.Millisecond
		transport.ReleaseReceived(resp)
		if wait <= 0 {
			wait = time.Millisecond
		}
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return 0, 0, ctx.Err()
		case <-timer.C:
		}
	}
}

// await receives the answer for the client's outstanding seq.
func (c *ROClient) await(ctx context.Context) (*transport.Message, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, err := c.conn.Recv()
		if err != nil {
			return nil, err
		}
		switch m.Type {
		case transport.MsgPullROResp, transport.MsgPullRORetry:
			if m.Seq == c.seq {
				return m, nil
			}
		}
		transport.ReleaseReceived(m)
	}
}
