package core

import (
	"context"
	"fmt"

	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/transport"
)

// ShardState is the synchronization state a server exposes — the paper's
// SetcondPull/SetcondPush interfaces "expose details of the
// synchronization state, e.g., the progress of fastest/slowest worker,
// the number of workers that have pushed gradients in a specified
// iteration", so that developers can build conditions (and operators can
// watch a live cluster).
type ShardState struct {
	VTrain       int
	MinProgress  int
	MaxProgress  int
	CountAtRound int // workers that already pushed the current round
	Buffered     int // DPRs currently waiting
	Pulls        int
	Pushes       int
	DPRs         int
	Dropped      int
	DedupHits    int // duplicate pushes/pulls absorbed by the server
	Keys         int

	// Live synchronization model (the *adapted* parameters for
	// self-tuning models, not the configured initial ones). ModelKind is a
	// syncmodel.Kind; zero means a closure model with no wire spec.
	ModelKind int
	ModelS    int
	ModelMin  int
	ModelMax  int
	ModelC    float64
	// Switches counts sync-model kind changes since the server started
	// (admin set-cond or the adaptive controller).
	Switches int

	// Read-optimized serving tier (v3 fields): the published snapshot
	// epoch and how many read-only pulls have been served from snapshots.
	SnapshotEpoch int
	ROPulls       int
}

// Model renders the live synchronization model for operators, e.g.
// "SSP(s=2)" or "Adaptive(s0=4,[1,8])" with s0 the current threshold.
func (st ShardState) Model() string {
	spec := syncmodel.Spec{
		Kind: syncmodel.Kind(st.ModelKind),
		S:    st.ModelS, C: st.ModelC, Min: st.ModelMin, Max: st.ModelMax,
	}
	if spec.Kind == 0 {
		return "custom"
	}
	if m, err := spec.Build(); err == nil {
		return m.Name
	}
	return spec.Kind.String()
}

// Payload lengths of the stats response: v1 predates the model fields,
// v2 the read-tier fields.
const (
	shardStateLenV1 = 11
	shardStateLenV2 = 17
	shardStateLen   = 19
)

// encode packs the state for the wire, appending to dst (pass a pooled
// message's Vals[:0] to avoid allocation).
func (st ShardState) encode(dst []float64) []float64 {
	return append(dst,
		float64(st.VTrain), float64(st.MinProgress), float64(st.MaxProgress),
		float64(st.CountAtRound), float64(st.Buffered),
		float64(st.Pulls), float64(st.Pushes), float64(st.DPRs),
		float64(st.Dropped), float64(st.DedupHits), float64(st.Keys),
		float64(st.ModelKind), float64(st.ModelS), float64(st.ModelMin),
		float64(st.ModelMax), st.ModelC, float64(st.Switches),
		float64(st.SnapshotEpoch), float64(st.ROPulls),
	)
}

func decodeShardState(vals []float64) (ShardState, error) {
	// v1 (11-value) and v2 (17-value) payloads from older servers still
	// decode; the fields they predate stay zero.
	if len(vals) != shardStateLen && len(vals) != shardStateLenV2 && len(vals) != shardStateLenV1 {
		return ShardState{}, fmt.Errorf("core: stats payload has %d values, want %d (or legacy %d/%d)",
			len(vals), shardStateLen, shardStateLenV2, shardStateLenV1)
	}
	st := ShardState{
		VTrain:       int(vals[0]),
		MinProgress:  int(vals[1]),
		MaxProgress:  int(vals[2]),
		CountAtRound: int(vals[3]),
		Buffered:     int(vals[4]),
		Pulls:        int(vals[5]),
		Pushes:       int(vals[6]),
		DPRs:         int(vals[7]),
		Dropped:      int(vals[8]),
		DedupHits:    int(vals[9]),
		Keys:         int(vals[10]),
	}
	if len(vals) >= shardStateLenV2 {
		st.ModelKind = int(vals[11])
		st.ModelS = int(vals[12])
		st.ModelMin = int(vals[13])
		st.ModelMax = int(vals[14])
		st.ModelC = vals[15]
		st.Switches = int(vals[16])
	}
	if len(vals) >= shardStateLen {
		st.SnapshotEpoch = int(vals[17])
		st.ROPulls = int(vals[18])
	}
	return st, nil
}

// handleStats answers a MsgStats query from the server's message loop
// (where touching the controller is safe).
func (s *Server) handleStats(msg *transport.Message) error {
	stats := s.ctrl.Stats()
	state := ShardState{
		VTrain:       s.ctrl.VTrain(),
		MinProgress:  s.ctrl.MinProgress(),
		MaxProgress:  s.ctrl.MaxProgress(),
		CountAtRound: s.ctrl.CountAt(s.ctrl.VTrain()),
		Buffered:     s.ctrl.Buffered(),
		Pulls:        stats.Pulls,
		Pushes:       stats.Pushes,
		DPRs:         stats.DPRs,
		Dropped:      stats.DroppedPushes,
		DedupHits:    s.dedupHits,
		Keys:         len(s.keys),
		Switches:     s.switches,
		ROPulls:      int(s.roServed.Load()),
	}
	if snap := s.shard.ROSnapshot(); snap != nil {
		state.SnapshotEpoch = int(snap.Epoch)
	}
	if spec, ok := s.ctrl.Spec(); ok {
		state.ModelKind = int(spec.Kind)
		state.ModelS = spec.S
		state.ModelMin = spec.Min
		state.ModelMax = spec.Max
		state.ModelC = spec.C
	}
	resp := transport.NewSizedMessage(shardStateLen)
	resp.Type = transport.MsgStatsResp
	resp.To = msg.From
	resp.Seq = msg.Seq
	resp.Vals = state.encode(resp.Vals[:0])
	// Stats are advisory: an unreachable inquirer must not take the
	// server down.
	_ = transport.SendOwned(s.ep, resp)
	return nil
}

// QueryStats fetches a live server's synchronization state from an admin
// endpoint (one not used by a Worker's receive loop). ctx bounds the
// wait for the server's reply; nil means wait forever.
func QueryStats(ctx context.Context, ep transport.Endpoint, server int) (ShardState, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	msg := &transport.Message{Type: transport.MsgStats, To: transport.Server(server), Seq: 7}
	if err := ep.Send(msg); err != nil {
		return ShardState{}, err
	}
	for {
		resp, err := recvCtx(ctx, ep)
		if err != nil {
			return ShardState{}, err
		}
		if resp.Type != transport.MsgStatsResp {
			transport.ReleaseReceived(resp)
			continue // tolerate stray traffic on shared admin endpoints
		}
		st, err := decodeShardState(resp.Vals)
		transport.ReleaseReceived(resp)
		return st, err
	}
}
