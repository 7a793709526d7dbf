package core

import (
	"fmt"
	"time"

	"github.com/fluentps/fluentps/internal/clusterview"
	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/kvstore"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/transport"
	"github.com/fluentps/fluentps/internal/wire"
)

// Primary/backup shard replication.
//
// A primary with a backup (view.Replicas >= 2) forwards every applied
// wave of gradient work to its backup before acknowledging the pushes the
// wave consumed: the worker-visible contract becomes "acked ⇒ replicated".
// A wave carries the post-coalescing deltas of the apply engine, the
// sync-controller image (V_train, per-round counts, per-worker progress),
// and the (worker, seq) dedup pairs the wave consumed. The backup folds deltas into a passive replica
// shard and mirrors the dedup memory, so a promotion resumes with the
// exact V_train-consistent state plus enough retry memory that in-flight
// pushes replay idempotently.
//
// Waves are cumulative-acked; the primary resends unacked waves on its
// tick. A backup that lost sync (restart, missed snapshot, unknown key)
// NAKs, and the primary answers with a full snapshot — the same stream of
// keys/counters the checkpoint format captures, flattened into one wave.

// replSnapshotPairs bounds the per-worker dedup tail a snapshot carries.
const replSnapshotPairs = 128

// replPendingCap bounds the out-of-order waves a backup buffers while a
// gap fills.
const replPendingCap = 64

// ackRef is a push acknowledgement parked until its wave is replicated.
type ackRef struct {
	to  transport.NodeID
	seq uint64
}

// dedupPair is one consumed (worker, seq) a wave replicates.
type dedupPair struct {
	from transport.NodeID
	seq  uint64
}

// pendingWave is a sent-but-unacked replication wave.
type pendingWave struct {
	seq  uint64
	msg  *transport.Message // plain (non-pooled) so resends can reuse it
	acks []ackRef
	sent time.Time
}

// replState is the primary side of replication.
type replState struct {
	// backup is the server rank holding our replica, -1 when none.
	backup   int
	nextWave uint64
	waves    []*pendingWave
	// needSnapshot forces the next wave to be preceded by a full
	// snapshot: set at startup, on backup change, on NAK, and after a
	// migration changed the key set.
	needSnapshot bool
	// carryAcks are parked acks whose wave collapsed (backup change);
	// they ride on the next wave.
	carryAcks []ackRef
}

// replicaState is the backup side: one passive replica per primary whose
// backup this server is.
type replicaState struct {
	primary  int
	shard    *kvstore.Shard
	lastWave uint64
	// pending buffers cloned out-of-order waves while a gap fills.
	pending map[uint64]*transport.Message
	// img/spec mirror the primary's sync controller for promotion.
	img    syncmodel.ControllerImage
	spec   syncmodel.Spec
	specOK bool
	// pairs mirrors the primary's dedup windows per worker.
	pairs map[transport.NodeID]*dedupWindow
	// haveState is false until the first snapshot; deltas before it NAK.
	haveState bool
}

// replWave is a decoded replication wave.
type replWave struct {
	snapshot bool
	img      syncmodel.ControllerImage
	spec     syncmodel.Spec
	specOK   bool
	pairs    []dedupPair
	keys     []keyrange.Key
	// perKey holds, per key, the update-counter increment (delta wave) or
	// the absolute counter (snapshot).
	perKey []uint64
	// vals concatenates the per-key segments in keys order.
	vals []float64
}

// replActive reports whether this server currently replicates to a
// backup.
func (s *Server) replActive() bool { return s.repl != nil && s.repl.backup >= 0 }

// newWave starts a wave capturing the controller's current image.
func (s *Server) newWave(snapshot bool) *replWave {
	w := &replWave{snapshot: snapshot, img: s.ctrl.Image()}
	w.spec, w.specOK = s.ctrl.Spec()
	return w
}

// ackOrPark acknowledges a push immediately when nothing is pending
// replication, and otherwise parks the ack on the newest pending wave —
// a duplicate of a push whose wave is still unacked must not be re-acked
// before the wave lands, or a backup loss could forget an acked update.
func (s *Server) ackOrPark(to transport.NodeID, seq uint64) error {
	if s.replActive() && len(s.repl.waves) > 0 {
		last := s.repl.waves[len(s.repl.waves)-1]
		last.acks = append(last.acks, ackRef{to: to, seq: seq})
		return nil
	}
	return s.ack(transport.MsgPushAck, to, seq)
}

// sendWave sends a delta wave, parking acks until it is acknowledged.
// When a snapshot is pending, the delta is NOT sent: the shard already
// contains the wave's applies, so the snapshot (gathered from live state)
// subsumes it — sending both would double-apply at the backup. The
// wave's dedup pairs are covered too (they were recorded before this
// call, so the snapshot's dedup tail carries them).
func (s *Server) sendWave(w *replWave, acks []ackRef) error {
	if s.repl.needSnapshot {
		s.repl.carryAcks = append(s.repl.carryAcks, acks...)
		return s.sendSnapshotWave()
	}
	return s.transmitWave(w, acks)
}

// sendSnapshotWave flattens the whole shard — keys, absolute update
// counters, values — plus a tail of each worker's dedup window into one
// snapshot wave. A snapshot subsumes every earlier wave, so their parked
// acks ride on it.
func (s *Server) sendSnapshotWave() error {
	s.repl.needSnapshot = false
	w := s.newWave(true)
	w.keys = append([]keyrange.Key(nil), s.keys...)
	w.perKey = make([]uint64, len(w.keys))
	for i, k := range w.keys {
		w.perKey[i] = s.shard.Updates(k)
	}
	var err error
	w.vals, err = s.shard.GatherShard(nil, w.keys)
	if err != nil {
		return fmt.Errorf("core: server %d gather snapshot: %w", s.cfg.Rank, err)
	}
	w.pairs = s.dedupTail(replSnapshotPairs)
	var acks []ackRef
	for _, pw := range s.repl.waves {
		acks = append(acks, pw.acks...)
	}
	s.repl.waves = s.repl.waves[:0]
	return s.transmitWave(w, acks)
}

// transmitWave encodes, registers, and sends a wave. Send failures are
// survivable — the tick resends.
func (s *Server) transmitWave(w *replWave, acks []ackRef) error {
	s.repl.nextWave++
	m := s.encodeWave(w)
	m.Seq = s.repl.nextWave
	if len(s.repl.carryAcks) > 0 {
		acks = append(s.repl.carryAcks, acks...)
		s.repl.carryAcks = nil
	}
	s.repl.waves = append(s.repl.waves, &pendingWave{seq: m.Seq, msg: m, acks: acks, sent: time.Now()})
	s.metrics.replicateWaves.Inc()
	_ = s.ep.Send(m)
	return nil
}

// dedupTail collects up to n of the newest consumed-push seqs per worker,
// so a promotion inherits enough retry memory to re-ack in-flight pushes.
func (s *Server) dedupTail(n int) []dedupPair {
	var out []dedupPair
	for id, w := range s.dedup {
		took := 0
		for i := len(w.order) - 1; i >= 0 && took < n; i-- {
			seq := w.order[i]
			if w.seen[seq] == dedupPushDone {
				out = append(out, dedupPair{from: id, seq: seq})
				took++
			}
		}
	}
	return out
}

// replTick drives the replication clock: pending snapshots go out, and
// waves unacked for longer than a controller tick are resent.
func (s *Server) replTick() error {
	if !s.replActive() {
		return nil
	}
	if s.repl.needSnapshot {
		if err := s.sendSnapshotWave(); err != nil {
			return err
		}
		return nil
	}
	if len(s.repl.waves) == 0 || time.Since(s.repl.waves[0].sent) < s.adaptEvery() {
		return nil
	}
	for _, pw := range s.repl.waves {
		pw.sent = time.Now()
		s.metrics.replicateResends.Inc()
		_ = s.ep.Send(pw.msg)
	}
	return nil
}

// handleReplicateAck processes the backup's cumulative ack, releasing the
// parked push acknowledgements of every wave it covers.
func (s *Server) handleReplicateAck(msg *transport.Message) error {
	if s.repl == nil || msg.From != transport.Server(s.repl.backup) {
		return nil
	}
	if msg.Progress < 0 {
		s.repl.needSnapshot = true
		return nil
	}
	kept := s.repl.waves[:0]
	for _, pw := range s.repl.waves {
		if pw.seq > msg.Seq {
			kept = append(kept, pw)
			continue
		}
		for _, a := range pw.acks {
			if err := s.ack(transport.MsgPushAck, a.to, a.seq); err != nil {
				return err
			}
		}
	}
	s.repl.waves = kept
	return nil
}

// releaseParkedAcks acknowledges everything parked — the view no longer
// gives this primary a backup, so replication is off and the pending
// waves' pushes are safe at replication factor 1.
func (s *Server) releaseParkedAcks() error {
	if s.repl == nil {
		return nil
	}
	for _, pw := range s.repl.waves {
		for _, a := range pw.acks {
			if err := s.ack(transport.MsgPushAck, a.to, a.seq); err != nil {
				return err
			}
		}
	}
	s.repl.waves = nil
	for _, a := range s.repl.carryAcks {
		if err := s.ack(transport.MsgPushAck, a.to, a.seq); err != nil {
			return err
		}
	}
	s.repl.carryAcks = nil
	return nil
}

// adoptReplicationRole reacts to a view change: the backup assignment may
// move (resnapshot), disappear (release parked acks), and replicas this
// server held for primaries it no longer backs are dropped.
func (s *Server) adoptReplicationRole(v *clusterview.View) error {
	if s.repl == nil {
		return nil
	}
	nb := v.BackupOf(s.cfg.Rank)
	if nb != s.repl.backup {
		s.repl.backup = nb
		if nb < 0 {
			if err := s.releaseParkedAcks(); err != nil {
				return err
			}
		} else {
			// Waves sent to the old backup can never be acked; their acks
			// ride on the fresh snapshot the new backup gets.
			for _, pw := range s.repl.waves {
				s.repl.carryAcks = append(s.repl.carryAcks, pw.acks...)
			}
			s.repl.waves = nil
			s.repl.needSnapshot = true
		}
	}
	for p := range s.replicas {
		if v.BackupOf(p) != s.cfg.Rank {
			delete(s.replicas, p)
		}
	}
	return nil
}

// encodeWave lays a wave into one replication frame:
//
//	vals: vtrain, specOK, 5×spec, nProgress, progress…,
//	      nCounts, (round, count)…, nPairs, (workerRank, seq)…,
//	      perKey counter per key, concatenated segments
//	keys: the wave's keys; Progress 1 marks a snapshot.
func (s *Server) encodeWave(w *replWave) *transport.Message {
	vals := make([]float64, 0,
		7+1+len(w.img.Progress)+1+2*len(w.img.Counts)+1+2*len(w.pairs)+len(w.perKey)+len(w.vals))
	vals = append(vals, float64(w.img.VTrain))
	if w.specOK {
		vals = append(vals, 1, float64(w.spec.Kind), float64(w.spec.S), w.spec.C,
			float64(w.spec.Min), float64(w.spec.Max))
	} else {
		vals = append(vals, 0, 0, 0, 0, 0, 0)
	}
	vals = append(vals, float64(len(w.img.Progress)))
	for _, p := range w.img.Progress {
		vals = append(vals, float64(p))
	}
	vals = append(vals, float64(len(w.img.Counts)))
	for round, n := range w.img.Counts {
		vals = append(vals, float64(round), float64(n))
	}
	vals = append(vals, float64(len(w.pairs)))
	for _, p := range w.pairs {
		vals = append(vals, float64(p.from.Rank), float64(p.seq))
	}
	for _, c := range w.perKey {
		vals = append(vals, float64(c))
	}
	vals = append(vals, w.vals...)
	m := &transport.Message{
		Type: transport.MsgReplicate,
		To:   transport.Server(s.repl.backup),
		View: s.epoch,
		Keys: w.keys,
		Vals: vals,
	}
	if w.snapshot {
		m.Progress = 1
	}
	return m
}

// decodeWave parses a replication frame back into a wave, validating
// every length against the layout.
func decodeWave(layout *keyrange.Layout, msg *transport.Message) (*replWave, error) {
	fail := func(what string) (*replWave, error) {
		return nil, fmt.Errorf("core: replication wave %d: truncated %s", msg.Seq, what)
	}
	vals := msg.Vals
	if len(vals) < 7 {
		return fail("header")
	}
	w := &replWave{snapshot: msg.Progress == 1}
	w.img.VTrain = int(vals[0])
	if vals[1] != 0 {
		w.specOK = true
		w.spec = syncmodel.Spec{
			Kind: syncmodel.Kind(vals[2]), S: int(vals[3]), C: vals[4],
			Min: int(vals[5]), Max: int(vals[6]),
		}
	}
	vals = vals[7:]
	nProgress, vals, ok := wire.ReadLen(vals, 1)
	if !ok {
		return fail("progress")
	}
	w.img.Progress = make([]int, nProgress)
	for i := range w.img.Progress {
		w.img.Progress[i] = int(vals[i])
	}
	vals = vals[nProgress:]
	nCounts, vals, ok := wire.ReadLen(vals, 2)
	if !ok {
		return fail("rounds")
	}
	w.img.Counts = make(map[int]int, nCounts)
	for i := 0; i < nCounts; i++ {
		w.img.Counts[int(vals[2*i])] = int(vals[2*i+1])
	}
	vals = vals[2*nCounts:]
	nPairs, vals, ok := wire.ReadLen(vals, 2)
	if !ok {
		return fail("pairs")
	}
	w.pairs = make([]dedupPair, nPairs)
	for i := range w.pairs {
		w.pairs[i] = dedupPair{from: transport.Worker(int(vals[2*i])), seq: uint64(vals[2*i+1])}
	}
	vals = vals[2*nPairs:]
	nKeys := len(msg.Keys)
	if len(vals) < nKeys {
		return fail("counters")
	}
	w.keys = append([]keyrange.Key(nil), msg.Keys...)
	w.perKey = make([]uint64, nKeys)
	for i := range w.perKey {
		w.perKey[i] = uint64(vals[i])
	}
	vals = vals[nKeys:]
	need := 0
	for _, k := range w.keys {
		if int(k) >= layout.NumKeys() {
			return nil, fmt.Errorf("core: replication wave %d: key %d outside layout", msg.Seq, k)
		}
		need += layout.KeySize(k)
	}
	if len(vals) != need {
		return nil, fmt.Errorf("core: replication wave %d: %d segment values, need %d", msg.Seq, len(vals), need)
	}
	w.vals = vals
	return w, nil
}

// handleReplicate is the backup side: in-order waves apply, gaps buffer,
// duplicates re-ack, and anything unapplicable NAKs for a snapshot.
func (s *Server) handleReplicate(msg *transport.Message) error {
	primary := int(msg.From.Rank)
	if msg.View != 0 && msg.View < s.epoch {
		// Zombie primary from a previous view; ignore silently.
		return nil
	}
	rs := s.replicas[primary]
	if rs == nil {
		rs = &replicaState{
			primary: primary,
			pending: make(map[uint64]*transport.Message),
			pairs:   make(map[transport.NodeID]*dedupWindow),
		}
		s.replicas[primary] = rs
	}
	snapshot := msg.Progress == 1
	if snapshot && rs.haveState && msg.Seq <= rs.lastWave {
		// A duplicated or reordered snapshot older than applied state must
		// not regress the replica.
		return s.replicaAck(primary, rs.lastWave, 0)
	}
	if !snapshot {
		switch {
		case !rs.haveState:
			return s.replicaAck(primary, rs.lastWave, -1)
		case msg.Seq <= rs.lastWave:
			return s.replicaAck(primary, rs.lastWave, 0)
		case msg.Seq > rs.lastWave+1:
			if len(rs.pending) < replPendingCap {
				if _, dup := rs.pending[msg.Seq]; !dup {
					rs.pending[msg.Seq] = msg.Clone()
				}
			}
			return s.replicaAck(primary, rs.lastWave, 0)
		}
	}
	if err := s.applyWaveMsg(rs, msg); err != nil {
		return s.replicaAck(primary, rs.lastWave, -1)
	}
	for {
		next, ok := rs.pending[rs.lastWave+1]
		if !ok {
			break
		}
		delete(rs.pending, next.Seq)
		if err := s.applyWaveMsg(rs, next); err != nil {
			return s.replicaAck(primary, rs.lastWave, -1)
		}
	}
	return s.replicaAck(primary, rs.lastWave, 0)
}

// applyWaveMsg folds one wave into the replica.
func (s *Server) applyWaveMsg(rs *replicaState, msg *transport.Message) error {
	w, err := decodeWave(s.cfg.Layout, msg)
	if err != nil {
		return err
	}
	if w.snapshot {
		shard := kvstore.NewStripedShard(s.cfg.Layout, nil, nil, 1)
		off := 0
		for i, k := range w.keys {
			size := s.cfg.Layout.KeySize(k)
			if err := shard.AddKey(k, w.vals[off:off+size]); err != nil {
				return err
			}
			if err := shard.SetWithUpdates(k, w.vals[off:off+size], w.perKey[i]); err != nil {
				return err
			}
			off += size
		}
		rs.shard = shard
		rs.haveState = true
		rs.pending = make(map[uint64]*transport.Message)
	} else {
		off := 0
		for i, k := range w.keys {
			size := s.cfg.Layout.KeySize(k)
			if err := rs.shard.ApplyDelta(k, w.vals[off:off+size], w.perKey[i]); err != nil {
				return err
			}
			off += size
		}
	}
	rs.img = w.img
	rs.spec, rs.specOK = w.spec, w.specOK
	for _, p := range w.pairs {
		win, ok := rs.pairs[p.from]
		if !ok {
			win = newDedupWindow(s.dedupCap())
			rs.pairs[p.from] = win
		}
		win.record(p.seq, dedupPushDone)
	}
	rs.lastWave = msg.Seq
	s.metrics.replicaWavesApplied.Inc()
	return nil
}

// replicaAck sends the backup's cumulative ack (or NAK, code < 0). The
// primary may be dead — that is the scenario replication exists for — so
// send failures are swallowed.
func (s *Server) replicaAck(primary int, lastWave uint64, code int32) error {
	out := &transport.Message{
		Type:     transport.MsgReplicateAck,
		To:       transport.Server(primary),
		Seq:      lastWave,
		Progress: code,
	}
	_ = s.ep.Send(out)
	return nil
}
