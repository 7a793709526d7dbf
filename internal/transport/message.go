// Package transport provides the messaging layer of the parameter server:
// message and node identity types, a compact binary wire codec, an
// in-process channel network for single-machine runs and tests, and a TCP
// network for real multi-process deployments.
//
// The design mirrors PS-Lite's messaging model: every node (scheduler,
// server, worker) owns one endpoint; messages carry a request sequence
// number so responses can be matched to outstanding requests, the keys they
// touch, the sender's training progress, and a flat float64 payload
// (gradients on push, parameters on pull responses).
package transport

import (
	"fmt"

	"github.com/fluentps/fluentps/internal/keyrange"
)

// Role distinguishes the three node kinds of a parameter-server cluster.
type Role uint8

// Node roles.
const (
	RoleScheduler Role = iota
	RoleServer
	RoleWorker
)

// String returns a short human-readable role name.
func (r Role) String() string {
	switch r {
	case RoleScheduler:
		return "scheduler"
	case RoleServer:
		return "server"
	case RoleWorker:
		return "worker"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// NodeID identifies one node: a role plus a rank within that role.
// The scheduler always has rank 0.
type NodeID struct {
	Role Role
	Rank uint16
}

// Scheduler returns the scheduler's node id.
func Scheduler() NodeID { return NodeID{Role: RoleScheduler} }

// Server returns the id of server m.
func Server(m int) NodeID { return NodeID{Role: RoleServer, Rank: uint16(m)} }

// Worker returns the id of worker n.
func Worker(n int) NodeID { return NodeID{Role: RoleWorker, Rank: uint16(n)} }

// String formats the node id as e.g. "server/3".
func (id NodeID) String() string { return fmt.Sprintf("%s/%d", id.Role, id.Rank) }

// MsgType enumerates the protocol messages.
type MsgType uint8

// Protocol message types.
const (
	// MsgPush carries gradients from a worker to a server (sPush). The
	// Progress field is the worker's current iteration.
	MsgPush MsgType = iota + 1
	// MsgPushAck acknowledges a push.
	MsgPushAck
	// MsgPull requests parameters from a server (sPull); Progress tells
	// the server which iteration's parameters the worker needs.
	MsgPull
	// MsgPullResp answers a pull with parameter values.
	MsgPullResp
	// MsgRegister announces a node to the scheduler.
	MsgRegister
	// MsgRegisterAck confirms registration; sent once all expected nodes
	// have registered.
	MsgRegisterAck
	// MsgBarrier asks the scheduler to block the sender until all workers
	// reach the barrier (used by the non-overlap PS-Lite baseline).
	MsgBarrier
	// MsgBarrierResp releases a node from a barrier.
	MsgBarrierResp
	// MsgHeartbeat reports liveness to the scheduler.
	MsgHeartbeat
	// MsgShutdown tells a node to terminate.
	MsgShutdown
	// MsgSetCond reconfigures a server's synchronization model at
	// runtime; Vals carries the encoded syncmodel.Spec.
	MsgSetCond
	// MsgSetCondAck confirms the reconfiguration.
	MsgSetCondAck
	// MsgMigrate hands departing keys to their new owner after a view
	// change (View: the view's epoch; Keys: the moved keys; Vals: their
	// checkpoint stream plus the donor's controller image).
	MsgMigrate
	// MsgStats asks a server for its synchronization state.
	MsgStats
	// MsgStatsResp answers MsgStats; Vals carries the encoded state (see
	// core.ShardState).
	MsgStatsResp
	// MsgView installs a new cluster view; Vals carries the encoded
	// clusterview.View. Servers migrate departing keys before acking,
	// workers adopt the routing and ack immediately.
	MsgView
	// MsgViewAck confirms a view installation (servers ack only after all
	// expected key arrivals landed).
	MsgViewAck
	// MsgViewReq asks a node for its current cluster view; the answer is a
	// MsgView carrying the encoded view with the requester's Seq.
	MsgViewReq
	// MsgReplicate forwards one applied wave from a shard primary to its
	// backup: controller state (V_train, round counts, progress), dedup
	// pairs, and per-key deltas (or a full snapshot when Progress says so).
	// Seq is the monotone wave number.
	MsgReplicate
	// MsgReplicateAck acknowledges replicated waves cumulatively: Seq is
	// the highest wave applied in order. Progress < 0 asks the primary for
	// a fresh snapshot (the backup has no replica state for it).
	MsgReplicateAck
	// MsgPromote asks the host of a shard's backup replica to take over a
	// dead primary: Seq is the dead server's rank, Vals the encoded view
	// that rebinds the rank's address. Answered with MsgPromoteAck.
	MsgPromote
	// MsgPromoteAck reports promotion success (Progress ≥ 0) or failure
	// (Progress < 0).
	MsgPromoteAck
	// MsgStaleView rejects a request fenced by view-epoch mismatch; Seq
	// echoes the rejected request and Vals carries the server's current
	// encoded view so the sender can adopt it and re-issue.
	MsgStaleView
	// MsgPullRO requests a lock-free read-only pull served from the
	// server's current epoch snapshot, never the live shard. For RO
	// messages the View field is reinterpreted as a snapshot-epoch stamp
	// (the low 32 bits of kvstore.Snapshot.Epoch), not a cluster-view
	// epoch: the request's View is the client's minimum-epoch bound (0 =
	// any epoch). Empty Keys means the whole shard.
	MsgPullRO
	// MsgPullROResp answers MsgPullRO: Vals carries the snapshot
	// segments, View the served snapshot's epoch stamp, and Progress the
	// snapshot's V_train cut — the client's bounded-staleness evidence.
	//lint:dispatch response type, consumed inline by the RO client's await loop
	MsgPullROResp
	// MsgPullRORetry rejects a MsgPullRO under admission control (reader
	// pool saturated) or when no snapshot satisfies the epoch bound yet;
	// Progress carries a retry-after hint in milliseconds.
	//lint:dispatch response type, consumed inline by the RO client's await loop
	MsgPullRORetry
)

// String returns a short message-type name.
func (t MsgType) String() string {
	switch t {
	case MsgPush:
		return "push"
	case MsgPushAck:
		return "push_ack"
	case MsgPull:
		return "pull"
	case MsgPullResp:
		return "pull_resp"
	case MsgRegister:
		return "register"
	case MsgRegisterAck:
		return "register_ack"
	case MsgBarrier:
		return "barrier"
	case MsgBarrierResp:
		return "barrier_resp"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgShutdown:
		return "shutdown"
	case MsgSetCond:
		return "set_cond"
	case MsgSetCondAck:
		return "set_cond_ack"
	case MsgMigrate:
		return "migrate"
	case MsgStats:
		return "stats"
	case MsgStatsResp:
		return "stats_resp"
	case MsgView:
		return "view"
	case MsgViewAck:
		return "view_ack"
	case MsgViewReq:
		return "view_req"
	case MsgReplicate:
		return "replicate"
	case MsgReplicateAck:
		return "replicate_ack"
	case MsgPromote:
		return "promote"
	case MsgPromoteAck:
		return "promote_ack"
	case MsgStaleView:
		return "stale_view"
	case MsgPullRO:
		return "pull_ro"
	case MsgPullROResp:
		return "pull_ro_resp"
	case MsgPullRORetry:
		return "pull_ro_retry"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// Message is the unit of communication between nodes.
type Message struct {
	Type MsgType
	From NodeID
	To   NodeID
	// Seq matches a response to its request; the requester allocates it.
	Seq uint64
	// Progress is the sender's training iteration (sPush/sPull report it).
	Progress int32
	// View is the cluster-view epoch the sender routed by. Servers fence
	// requests carrying an older epoch than their installed view
	// (MsgStaleView). Zero means unfenced: control traffic and nodes
	// predating the view protocol.
	View uint32
	// Keys lists the parameter keys this message touches, in ascending
	// order. Vals concatenates the per-key segments in the same order;
	// segment lengths come from the model layout shared by both ends.
	Keys []keyrange.Key
	Vals []float64
	// Segs continues the payload after Vals: segments the sender lends
	// for the duration of one copying Send, so a payload can go out
	// straight from where it lives (a worker's delta, a shard's stripes)
	// without a staging copy. On the wire they are indistinguishable from
	// Vals — the receiver gets one flat Vals. Paths that outlive the Send
	// call (Clone, and SendOwned/SendRetained on pointer-delivering
	// transports) flatten them into pooled Vals first; a plain Send on such
	// a transport must not carry Segs.
	Segs [][]float64
	// owner tracks pool ownership (see pool.go); zero for plain messages.
	owner uint8
	// aborted is set (to 1, atomically) once the message's lender took
	// its segments back (Abort): no Send may start writing it any more.
	// A plain word rather than an atomic.Bool keeps Message copyable.
	aborted uint32
}

// PayloadBytes returns the approximate wire size of the message payload,
// used by simulators and metrics to account communication volume.
func (m *Message) PayloadBytes() int {
	return 8*m.numVals() + 4*len(m.Keys) + headerBytes
}

// numVals returns the number of payload values: Vals plus every segment
// of Segs.
func (m *Message) numVals() int {
	n := len(m.Vals)
	for _, s := range m.Segs {
		n += len(s)
	}
	return n
}
