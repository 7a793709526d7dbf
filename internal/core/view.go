package core

import (
	"bytes"
	"context"
	"fmt"

	"github.com/fluentps/fluentps/internal/clusterview"
	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/telemetry"
	"github.com/fluentps/fluentps/internal/transport"
	"github.com/fluentps/fluentps/internal/wire"
)

// Versioned membership on the server side.
//
// Every server tracks the cluster's current clusterview.View and fences
// data-plane requests by epoch: a request stamped with an older view is
// rejected with MsgStaleView carrying the current view, so the worker can
// adopt it and reissue against the right owners. View installation is the
// single entry point for elastic changes — it updates the replication
// role, ships departing keys to their new owners as checkpoint streams,
// and (for arriving keys) parks the server in a migration state until the
// donors' streams land. Promotions rebind a dead rank onto the process of
// its backup, which boots a second Server from the replica state it has
// been absorbing (replication.go).

// maxHeld bounds the messages parked while keys are in flight during a
// migration; beyond it new arrivals are dropped and covered by worker
// retries.
const maxHeld = 1024

// viewMigration tracks keys this server is owed by donors after a view
// change assigned them to it.
type viewMigration struct {
	// epoch is the view the migration belongs to.
	epoch uint64
	// expect is the set of keys not yet absorbed.
	expect map[keyrange.Key]struct{}
	// admin/seq identify the MsgView to acknowledge once the last key
	// arrived; ackWanted is false for internally triggered installs
	// (promotions), which acknowledge through their own channel.
	admin     transport.NodeID
	seq       uint64
	ackWanted bool
	// fresh marks a server that held no keys before this view (a live
	// joiner): its sync controller is a blank clock, so it adopts a clock
	// merged from the donor images carried by the transfers — otherwise
	// SSP pulls against the joiner would buffer until V_train climbed
	// from zero.
	fresh bool
	// img accumulates the donor images received so far (element-wise max
	// progress); imgOK whether any transfer carried one.
	img   syncmodel.ControllerImage
	imgOK bool
}

// mergeImage folds one donor's controller image into the migration's
// accumulated clock. Per-worker progress takes the element-wise max:
// each donor records the rounds it consumed from a worker, and the union
// over donors is the last round any part of that worker's push landed
// anywhere. Counts are not merged — per-round counts describe one
// donor's request stream, and summing streams that each saw a piece of
// the same scattered push would double-count it.
func (m *viewMigration) mergeImage(img syncmodel.ControllerImage) {
	if !m.imgOK {
		m.img, m.imgOK = img, true
		m.img.Counts = nil
		return
	}
	for i, p := range img.Progress {
		if i < len(m.img.Progress) && p > m.img.Progress[i] {
			m.img.Progress[i] = p
		}
	}
	if img.VTrain > m.img.VTrain {
		m.img.VTrain = img.VTrain
	}
}

// staleFenced reports whether msg was routed by an older view than the
// server's. View 0 is unfenced legacy traffic and always passes.
func (s *Server) staleFenced(msg *transport.Message) bool {
	return msg.View != 0 && msg.View < s.epoch
}

// rejectStale answers a stale-routed request (to, seq) with the server's
// current view so the sender can adopt it and reissue. The rejection
// echoes the request seq; the request was NOT applied, so a reissue under
// a fresh seq cannot double-apply.
func (s *Server) rejectStale(to transport.NodeID, seq uint64) error {
	s.metrics.staleViewRejects.Inc()
	out := &transport.Message{
		Type: transport.MsgStaleView,
		To:   to,
		Seq:  seq,
		View: s.epoch,
		Vals: s.views.View().Encode(nil),
	}
	if err := s.ep.Send(out); err != nil {
		return fmt.Errorf("core: server %d stale-view reject to %v: %w", s.cfg.Rank, to, err)
	}
	return nil
}

// holdForMigration reports whether a data-plane request must wait: it
// references keys this server does not hold yet, and either a migration
// is bringing them or the request is stamped with a future view the
// server has not installed. Held messages replay after the view settles.
func (s *Server) holdForMigration(msg *transport.Message) bool {
	if s.mig != nil && s.mig.fresh {
		// A fresh joiner's clock is not live until the migration finishes
		// and the merged donor clock is adopted. Serving keys that arrived
		// early would buffer pulls under V_train 0 — entries the restored
		// clock may have advanced past, stranding them forever.
		return true
	}
	if s.mig == nil && (msg.View == 0 || msg.View <= s.epoch) {
		return false
	}
	for _, k := range msg.Keys {
		if !s.shard.Has(k) {
			return true
		}
	}
	return false
}

// holdMsg parks msg (retaining ownership) until replayHeld.
func (s *Server) holdMsg(msg *transport.Message) {
	if len(s.held) >= maxHeld {
		transport.ReleaseReceived(msg) // dropped; the worker's retry covers it
		return
	}
	s.held = append(s.held, msg)
}

// replayHeld re-runs parked requests after a view install or migration
// completion as one engine wave; requests still waiting on another
// in-flight change are re-held. It runs inside a barrier, so the engine
// is empty on entry and flushed on return.
func (s *Server) replayHeld() error {
	if len(s.held) == 0 {
		return nil
	}
	held := s.held
	s.held = nil
	e := s.eng
	for i, msg := range held {
		if s.holdForMigration(msg) {
			s.holdMsg(msg)
			continue
		}
		var err error
		switch msg.Type {
		case transport.MsgPush:
			err = e.stagePush(msg)
		case transport.MsgPull:
			err = e.stagePull(msg)
		}
		if err != nil {
			// The engine owns everything staged so far (msg included); the
			// rest of held is still ours to recycle.
			e.reset()
			for _, m := range held[i+1:] {
				transport.ReleaseReceived(m)
			}
			return err
		}
	}
	if err := e.flush(); err != nil {
		return err
	}
	s.snapshotStats()
	return nil
}

// handleView installs an admin-distributed view.
func (s *Server) handleView(msg *transport.Message) error {
	v, _, err := clusterview.Decode(msg.Vals)
	if err != nil {
		return fmt.Errorf("core: server %d decode view: %w", s.cfg.Rank, err)
	}
	return s.installView(v, msg.From, msg.Seq, true)
}

// handleViewReq answers a view query with the current view.
func (s *Server) handleViewReq(msg *transport.Message) error {
	out := &transport.Message{
		Type: transport.MsgView,
		To:   msg.From,
		Seq:  msg.Seq,
		View: s.epoch,
		Vals: s.views.View().Encode(nil),
	}
	// The requester may be gone (an admin that timed out); its loss must
	// not take the server down.
	_ = s.ep.Send(out)
	return nil
}

// installView is the single entry point for adopting a newer view. It
// advances the tracker and epoch fence, updates the replication role,
// ships departing keys to their new owners, and either completes
// immediately (acking the admin when wantAck) or parks in a migration
// state until arriving keys land.
func (s *Server) installView(v *clusterview.View, admin transport.NodeID, seq uint64, wantAck bool) error {
	if !s.views.Advance(v) {
		// Stale or duplicate distribution: re-ack so the admin's
		// retransmit converges.
		if wantAck {
			ackMsg := &transport.Message{Type: transport.MsgViewAck, To: admin, Seq: seq}
			_ = s.ep.Send(ackMsg)
		}
		return nil
	}
	s.epoch = v.EpochStamp()
	s.metrics.viewEpoch.Set(int64(v.Epoch))
	for _, m := range v.Servers {
		if m.Addr != "" && m.ID != s.ep.ID() {
			transport.SetPeerAddr(s.ep, m.ID, m.Addr)
		}
	}
	if err := s.adoptReplicationRole(v); err != nil {
		return err
	}
	fresh := len(s.shard.Keys()) == 0

	// Departures: group by new owner and ship one checkpoint stream per
	// destination, so values AND update counters travel together.
	departing := make(map[int][]keyrange.Key)
	for _, k := range s.shard.Keys() {
		if owner := v.Assignment.ServerOf(k); owner != s.cfg.Rank {
			departing[owner] = append(departing[owner], k)
		}
	}
	for dest, keys := range departing {
		if err := s.sendKeyTransfer(dest, keys, v.EpochStamp()); err != nil {
			return err
		}
	}
	s.cfg.Assignment = v.Assignment
	s.keys = append(s.keys[:0], s.shard.Keys()...)
	if len(departing) > 0 {
		// A buffered pull that asked for a departed key can no longer be
		// answered here, and a drained rank sees no further push to even
		// release it: fence it now so its worker reissues to the new owners.
		moved := s.ctrl.Evict(func(p syncmodel.Pull) bool {
			for _, k := range p.Token.(pullToken).keys {
				if !s.shard.Has(k) {
					return true
				}
			}
			return false
		})
		for _, p := range moved {
			tok := p.Token.(pullToken)
			s.dedupRecord(tok.from, tok.seq, dedupPullAnswered)
			if err := s.rejectStale(tok.from, tok.seq); err != nil {
				return err
			}
		}
	}

	// Arrivals: keys the new assignment gives us that we do not hold.
	expect := make(map[keyrange.Key]struct{})
	for _, k := range v.Assignment.KeysOf(s.cfg.Rank) {
		if !s.shard.Has(k) {
			expect[k] = struct{}{}
		}
	}
	if len(expect) > 0 {
		s.mig = &viewMigration{epoch: v.Epoch, expect: expect, admin: admin, seq: seq, ackWanted: wantAck, fresh: fresh}
		// Replay transfers that raced ahead of the view distribution.
		early := s.earlyMig
		s.earlyMig = nil
		for _, m := range early {
			retained, err := s.handleViewMigrate(m)
			if err != nil {
				return err
			}
			if !retained {
				transport.ReleaseReceived(m)
			}
		}
		return s.replayHeld()
	}
	if wantAck {
		ackMsg := &transport.Message{Type: transport.MsgViewAck, To: admin, Seq: seq}
		if err := s.ep.Send(ackMsg); err != nil {
			return fmt.Errorf("core: server %d view ack: %w", s.cfg.Rank, err)
		}
	}
	return s.replayHeld()
}

// sendKeyTransfer ships keys to dest as one epoch-stamped checkpoint
// stream and removes them from the local shard. The donor's controller
// image rides along so a fresh joiner can adopt a live V_train clock.
func (s *Server) sendKeyTransfer(dest int, keys []keyrange.Key, epoch uint32) error {
	var buf bytes.Buffer
	if err := s.shard.SaveKeys(&buf, keys); err != nil {
		return fmt.Errorf("core: server %d save departing keys: %w", s.cfg.Rank, err)
	}
	for _, k := range keys {
		if _, err := s.shard.RemoveKey(k); err != nil {
			return fmt.Errorf("core: server %d remove departing key %d: %w", s.cfg.Rank, k, err)
		}
	}
	out := &transport.Message{
		Type: transport.MsgMigrate,
		To:   transport.Server(dest),
		Seq:  uint64(s.cfg.Rank),
		View: epoch,
		Keys: append([]keyrange.Key(nil), keys...),
		Vals: encodeCtrlImage(transport.PackBytes(nil, buf.Bytes()), s.ctrl.Image()),
	}
	if err := s.ep.Send(out); err != nil {
		return fmt.Errorf("core: server %d migrate %d keys to %d: %w", s.cfg.Rank, len(keys), dest, err)
	}
	return nil
}

// encodeCtrlImage appends a controller image to dst: vtrain, progress
// count and entries, round count and (round, count) pairs.
func encodeCtrlImage(dst []float64, img syncmodel.ControllerImage) []float64 {
	dst = append(dst, float64(img.VTrain), float64(len(img.Progress)))
	for _, p := range img.Progress {
		dst = append(dst, float64(p))
	}
	dst = append(dst, float64(len(img.Counts)))
	for round, n := range img.Counts {
		dst = append(dst, float64(round), float64(n))
	}
	return dst
}

// decodeCtrlImage parses an appended controller image; ok is false for
// legacy transfers that carry none.
func decodeCtrlImage(vals []float64) (img syncmodel.ControllerImage, ok bool) {
	if len(vals) < 1 {
		return img, false
	}
	img.VTrain = int(vals[0])
	nProgress, vals, ok := wire.ReadLen(vals[1:], 1)
	if !ok {
		return img, false
	}
	img.Progress = make([]int, nProgress)
	for i := range img.Progress {
		img.Progress[i] = int(vals[i])
	}
	nCounts, vals, ok := wire.ReadLen(vals[nProgress:], 2)
	if !ok {
		return img, false
	}
	img.Counts = make(map[int]int, nCounts)
	for i := 0; i < nCounts; i++ {
		img.Counts[int(vals[2*i])] = int(vals[2*i+1])
	}
	return img, true
}

// handleViewMigrate absorbs an epoch-stamped key-transfer stream. It
// reports whether it retained msg (buffered for a view not installed
// yet); the caller releases unretained messages.
func (s *Server) handleViewMigrate(msg *transport.Message) (retained bool, err error) {
	epoch := uint64(msg.View)
	switch {
	case epoch > s.views.Epoch():
		// Transfer outran the view distribution; hold it for installView.
		if len(s.earlyMig) >= maxHeld {
			return false, nil
		}
		s.earlyMig = append(s.earlyMig, msg)
		return true, nil
	case s.mig != nil && epoch == s.mig.epoch:
		raw, rest, uerr := transport.UnpackBytes(msg.Vals)
		if uerr != nil {
			return false, fmt.Errorf("core: server %d unpack key transfer: %w", s.cfg.Rank, uerr)
		}
		absorbed, aerr := s.shard.Absorb(bytes.NewReader(raw))
		if aerr != nil {
			return false, fmt.Errorf("core: server %d absorb key transfer: %w", s.cfg.Rank, aerr)
		}
		// Fold the donor's clock into the merged image for a fresh
		// joiner's restore.
		if img, ok := decodeCtrlImage(rest); ok {
			s.mig.mergeImage(img)
		}
		for _, k := range absorbed {
			delete(s.mig.expect, k)
		}
		s.keys = append(s.keys[:0], s.shard.Keys()...)
		if len(s.mig.expect) > 0 {
			return false, nil
		}
		return false, s.finishViewMigration()
	default:
		// A replay of an older epoch's transfer, or a dup after the
		// migration finished: already accounted for.
		return false, nil
	}
}

// finishViewMigration completes an arrival migration: the replica (if
// any) needs a fresh snapshot covering the new keys, the pending admin
// ack goes out, and held traffic replays.
func (s *Server) finishViewMigration() error {
	m := s.mig
	s.mig = nil
	if m.fresh && m.imgOK {
		// A joiner's blank controller adopts a clock derived from the
		// merged donor images. V_train restores to (max worker progress)+1,
		// with no open-round counts: a round at or below some worker's
		// observed progress was partially consumed at a donor before the
		// fence, so its remaining pieces may reissue to other owners and
		// never reach this server — counting on it would wedge the clock.
		// Every round strictly above the fastest observed progress was
		// consumed nowhere, so after the fence its pushes regroup under the
		// new assignment and this server is guaranteed its share. The clock
		// runs at most one SSP slack ahead of the donors', transiently.
		// Every request that could touch the controller was held during the
		// migration, so the DPR buffer is provably empty here.
		img := m.img
		maxP := -1
		for _, p := range img.Progress {
			if p > maxP {
				maxP = p
			}
		}
		img.VTrain = maxP + 1
		img.Counts = nil
		if err := s.ctrl.Restore(img); err != nil {
			return fmt.Errorf("core: server %d adopt donor clock: %w", s.cfg.Rank, err)
		}
	}
	if s.replActive() {
		s.repl.needSnapshot = true
	}
	if m.ackWanted {
		ackMsg := &transport.Message{Type: transport.MsgViewAck, To: m.admin, Seq: m.seq}
		if err := s.ep.Send(ackMsg); err != nil {
			return fmt.Errorf("core: server %d migration view ack: %w", s.cfg.Rank, err)
		}
	}
	return s.replayHeld()
}

// handlePromote fails a dead primary's shard over onto this process: the
// replica state absorbed via replication becomes a second Server bound to
// the dead rank's identity, running in this process until shutdown.
func (s *Server) handlePromote(msg *transport.Message) error {
	dead := int(msg.Seq)
	ackResult := func(code int32) error {
		out := &transport.Message{Type: transport.MsgPromoteAck, To: msg.From, Seq: msg.Seq, Progress: code}
		_ = s.ep.Send(out)
		return nil
	}
	next, _, err := clusterview.Decode(msg.Vals)
	if err != nil {
		return ackResult(-1)
	}
	if next.Epoch <= s.views.Epoch() {
		// Duplicate of a promotion already performed.
		return ackResult(1)
	}
	rs := s.replicas[dead]
	if rs == nil || !rs.haveState || s.cfg.OpenEndpoint == nil {
		return ackResult(-1)
	}
	// The replica shard restores through the unified checkpoint stream,
	// which also restripes it for this server's apply configuration.
	var buf bytes.Buffer
	if err := rs.shard.Save(&buf); err != nil {
		return ackResult(-1)
	}
	ep2, err := s.cfg.OpenEndpoint(transport.Server(dead))
	if err != nil {
		return ackResult(-1)
	}
	cfg2 := s.cfg
	cfg2.Rank = dead
	cfg2.View = next
	cfg2.Assignment = next.Assignment
	cfg2.Init = nil
	cfg2.Telemetry = telemetry.Nop // one registry cannot hold two servers' gauges
	sub, err := NewServerFromCheckpoint(ep2, cfg2, &buf)
	if err != nil {
		_ = ep2.Close()
		return ackResult(-1)
	}
	if err := sub.ctrl.Restore(rs.img); err != nil {
		_ = ep2.Close()
		return ackResult(-1)
	}
	// The replicated dedup memory carries over, so in-flight pushes the
	// dead primary already consumed are re-acked, not re-applied.
	if sub.dedup != nil {
		for id, w := range rs.pairs {
			sub.dedup[id] = w
		}
	}
	delete(s.replicas, dead)
	if err := s.installView(next, transport.NodeID{}, 0, false); err != nil {
		return err
	}
	s.subs = append(s.subs, ep2)
	go func() { _ = sub.Run() }() // serves until this process exits (Run closes subs)
	s.metrics.promotions.Inc()
	return ackResult(1)
}

// ---- Admin-side view operations ----

// QueryView fetches server's current view over ep.
func QueryView(ctx context.Context, ep transport.Endpoint, server int) (*clusterview.View, error) {
	req := &transport.Message{Type: transport.MsgViewReq, To: transport.Server(server), Seq: 13}
	if err := ep.Send(req); err != nil {
		return nil, fmt.Errorf("core: view query to server %d: %w", server, err)
	}
	for {
		msg, err := recvCtx(ctx, ep)
		if err != nil {
			return nil, fmt.Errorf("core: awaiting view from server %d: %w", server, err)
		}
		if msg.Type != transport.MsgView {
			transport.ReleaseReceived(msg)
			continue
		}
		v, _, err := clusterview.Decode(msg.Vals)
		transport.ReleaseReceived(msg)
		if err != nil {
			return nil, err
		}
		return v, nil
	}
}

// DistributeView pushes next to the cluster: every server in serverRanks
// (defaulting to the view's active set) gets it first — all sends before
// any ack is awaited, because a key-receiving server only acks once the
// donors' streams landed, and a donor may sit later in the rank order (a
// drain's departing server donates to every survivor). Once the server
// set converged, every worker gets the view. Callers pass an explicit
// rank set when the transition must also reach ranks the next view no
// longer lists as active (drain).
func DistributeView(ctx context.Context, ep transport.Endpoint, next *clusterview.View, serverRanks []int) error {
	for id, addr := range next.Book() {
		if addr != "" && id != ep.ID() {
			transport.SetPeerAddr(ep, id, addr)
		}
	}
	if serverRanks == nil {
		serverRanks = next.ActiveServers()
	}
	enc := next.Encode(nil)
	pend := make(map[transport.NodeID]struct{}, len(serverRanks))
	for _, m := range serverRanks {
		out := &transport.Message{Type: transport.MsgView, To: transport.Server(m), Seq: uint64(m), Vals: enc}
		if err := ep.Send(out); err != nil {
			return fmt.Errorf("core: distribute view to server %d: %w", m, err)
		}
		pend[transport.Server(m)] = struct{}{}
	}
	if err := awaitViewAcks(ctx, ep, pend); err != nil {
		return err
	}
	for n := range next.Workers {
		out := &transport.Message{Type: transport.MsgView, To: transport.Worker(n), Seq: uint64(n), Vals: enc}
		if err := ep.Send(out); err != nil {
			return fmt.Errorf("core: distribute view to worker %d: %w", n, err)
		}
		pend[transport.Worker(n)] = struct{}{}
	}
	return awaitViewAcks(ctx, ep, pend)
}

// awaitViewAcks drains the endpoint until every pending node acked the
// view (acks arrive in any order; stray traffic is discarded).
func awaitViewAcks(ctx context.Context, ep transport.Endpoint, pend map[transport.NodeID]struct{}) error {
	for len(pend) > 0 {
		msg, err := recvCtx(ctx, ep)
		if err != nil {
			lag := make([]transport.NodeID, 0, len(pend))
			for id := range pend {
				lag = append(lag, id)
			}
			return fmt.Errorf("core: awaiting view acks from %v: %w", lag, err)
		}
		if msg.Type == transport.MsgViewAck {
			delete(pend, msg.From)
		}
		transport.ReleaseReceived(msg)
	}
	return nil
}

// PromoteServer fails rank dead's shard over to its backup and returns
// the resulting view. The caller distributes it afterwards (the promoted
// sub-server and the hosting server already installed it; epoch ordering
// makes the re-delivery a no-op for them).
func PromoteServer(ctx context.Context, ep transport.Endpoint, cur *clusterview.View, dead int) (*clusterview.View, error) {
	next, err := cur.WithPromoted(dead)
	if err != nil {
		return nil, err
	}
	host := cur.BackupOf(dead)
	if addr := cur.ServerAddr(host); addr != "" {
		transport.SetPeerAddr(ep, transport.Server(host), addr)
	}
	out := &transport.Message{
		Type: transport.MsgPromote,
		To:   transport.Server(host),
		Seq:  uint64(dead),
		Vals: next.Encode(nil),
	}
	if err := ep.Send(out); err != nil {
		return nil, fmt.Errorf("core: promote request to server %d: %w", host, err)
	}
	for {
		msg, err := recvCtx(ctx, ep)
		if err != nil {
			return nil, fmt.Errorf("core: awaiting promote ack from server %d: %w", host, err)
		}
		if msg.Type != transport.MsgPromoteAck || msg.From != transport.Server(host) {
			transport.ReleaseReceived(msg)
			continue
		}
		code := msg.Progress
		transport.ReleaseReceived(msg)
		if code < 0 {
			return nil, fmt.Errorf("core: server %d cannot promote rank %d (no replica state)", host, dead)
		}
		return next, nil
	}
}
