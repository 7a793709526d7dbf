package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/fluentps/fluentps/internal/clusterview"
	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/transport"
)

// Scheduler is FluentPS's reduced-role coordinator. Unlike PS-Lite's
// scheduler it carries no synchronization state at all — the paper
// offloads synchronization onto servers. What remains is membership
// (waiting for the expected node count to register) and liveness
// (tracking heartbeats).
type Scheduler struct {
	ep      transport.Endpoint
	servers int
	workers int
	// assign, when set via DistributeAssignment, is the canonical key
	// assignment shipped to every node in its registration ack (§III-A:
	// the scheduler "divides the whole key space into several key
	// ranges").
	assign *keyrange.Assignment
	// view, when set via DistributeClusterView, supersedes assign: the
	// registration ack carries the full epoch-versioned view (membership,
	// roles, assignment, replication factor) instead of a bare assignment.
	view *clusterview.View

	mu         sync.Mutex
	registered map[transport.NodeID]bool
	lastSeen   map[transport.NodeID]time.Time
	pending    []*transport.Message // registrations awaiting quorum
}

// NewScheduler builds a scheduler expecting the given cluster shape over
// an endpoint whose id must be transport.Scheduler().
func NewScheduler(ep transport.Endpoint, servers, workers int) (*Scheduler, error) {
	if got, want := ep.ID(), transport.Scheduler(); got != want {
		return nil, fmt.Errorf("core: endpoint id %s is not the scheduler id", got)
	}
	if servers < 1 || workers < 1 {
		return nil, fmt.Errorf("core: cluster needs ≥1 server and ≥1 worker, got %d/%d", servers, workers)
	}
	return &Scheduler{
		ep:         ep,
		servers:    servers,
		workers:    workers,
		registered: make(map[transport.NodeID]bool),
		lastSeen:   make(map[transport.NodeID]time.Time),
	}, nil
}

// DistributeAssignment makes the scheduler the source of truth for the
// key space: every registration ack will carry this assignment, and
// RegisterAndFetch on servers/workers returns it — so only the scheduler
// needs the slicing configuration. Call before Run.
func (s *Scheduler) DistributeAssignment(a *keyrange.Assignment) {
	s.assign = a
}

// DistributeClusterView makes the scheduler hand the bootstrap cluster
// view to every registering node: each ack carries the encoded view
// (Progress=1 tags the payload format), and RegisterAndFetchView returns
// it. Supersedes DistributeAssignment — the view embeds the assignment.
// Call before Run.
func (s *Scheduler) DistributeClusterView(v *clusterview.View) {
	s.view = v
	s.assign = v.Assignment
}

// Run serves registration and heartbeat messages until ctx is cancelled,
// the endpoint closes, or a shutdown message arrives. nil ctx means run
// until close/shutdown.
func (s *Scheduler) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		msg, err := recvCtx(ctx, s.ep)
		if err != nil {
			if err == transport.ErrClosed || ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("core: scheduler recv: %w", err)
		}
		switch msg.Type {
		case transport.MsgRegister:
			// handleRegister retains the registration until the quorum
			// ack goes out; it owns the release.
			if err := s.handleRegister(msg); err != nil {
				return err
			}
		case transport.MsgHeartbeat:
			s.mu.Lock()
			s.lastSeen[msg.From] = time.Now()
			s.mu.Unlock()
			transport.ReleaseReceived(msg)
		case transport.MsgShutdown:
			transport.ReleaseReceived(msg)
			return nil
		default:
			transport.ReleaseReceived(msg)
		}
	}
}

func (s *Scheduler) handleRegister(msg *transport.Message) error {
	s.mu.Lock()
	s.registered[msg.From] = true
	s.lastSeen[msg.From] = time.Now()
	s.pending = append(s.pending, msg)
	complete := len(s.registered) >= s.servers+s.workers
	var toAck []*transport.Message
	if complete {
		toAck = s.pending
		s.pending = nil
	}
	s.mu.Unlock()
	for _, reg := range toAck {
		from := reg.From
		ack := &transport.Message{Type: transport.MsgRegisterAck, To: from, Seq: reg.Seq}
		if s.view != nil {
			// Progress distinguishes the payload: 1 = encoded cluster
			// view, 0 = legacy bare assignment.
			ack.Progress = 1
			ack.Vals = s.view.Encode(nil)
		} else if s.assign != nil {
			ack.Vals = encodeAssignment(s.assign)
		}
		err := s.ep.Send(ack)
		transport.ReleaseReceived(reg)
		if err != nil {
			return fmt.Errorf("core: scheduler ack %s: %w", from, err)
		}
	}
	return nil
}

// encodeAssignment packs an assignment as [numServers, serverOf...] — the
// legacy bare-assignment registration payload.
func encodeAssignment(a *keyrange.Assignment) []float64 {
	out := make([]float64, 1+a.NumKeys())
	out[0] = float64(a.NumServers())
	for k := 0; k < a.NumKeys(); k++ {
		out[1+k] = float64(a.ServerOf(keyrange.Key(k)))
	}
	return out
}

// decodeAssignment unpacks encodeAssignment's payload for a known layout.
func decodeAssignment(layout *keyrange.Layout, vals []float64) (*keyrange.Assignment, error) {
	if len(vals) != 1+layout.NumKeys() {
		return nil, fmt.Errorf("core: assignment payload has %d values, want %d",
			len(vals), 1+layout.NumKeys())
	}
	servers := int(vals[0])
	serverOf := make([]int, layout.NumKeys())
	for k := range serverOf {
		s := int(vals[1+k])
		if s < 0 || s >= servers {
			return nil, fmt.Errorf("core: key %d assigned to invalid server %d of %d", k, s, servers)
		}
		serverOf[k] = s
	}
	return keyrange.FromServerOf(serverOf, servers), nil
}

// RegisterAndFetch registers the node, blocks until the cluster
// assembles, and returns the canonical key assignment the scheduler
// distributes (nil if the scheduler was not given one). layout must be
// the model's communication layout so the payload can be validated. ctx
// bounds the wait for the quorum ack; nil means wait forever.
func RegisterAndFetch(ctx context.Context, ep transport.Endpoint, layout *keyrange.Layout) (*keyrange.Assignment, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	msg := &transport.Message{Type: transport.MsgRegister, To: transport.Scheduler()}
	if err := ep.Send(msg); err != nil {
		return nil, fmt.Errorf("core: register %s: %w", ep.ID(), err)
	}
	resp, err := recvCtx(ctx, ep)
	if err != nil {
		return nil, fmt.Errorf("core: await registration ack: %w", err)
	}
	if resp.Type != transport.MsgRegisterAck {
		typ := resp.Type
		transport.ReleaseReceived(resp)
		return nil, fmt.Errorf("core: unexpected %s before registration ack", typ)
	}
	if len(resp.Vals) == 0 {
		transport.ReleaseReceived(resp)
		return nil, nil
	}
	if resp.Progress == 1 {
		// The scheduler distributes full views; this legacy caller only
		// wants the assignment embedded in it.
		v, _, err := clusterview.Decode(resp.Vals)
		transport.ReleaseReceived(resp)
		if err != nil {
			return nil, fmt.Errorf("core: decode view from registration ack: %w", err)
		}
		return v.Assignment, nil
	}
	// decodeAssignment copies the payload into fresh owner slices, so
	// releasing resp afterwards is safe.
	a, err := decodeAssignment(layout, resp.Vals)
	transport.ReleaseReceived(resp)
	return a, err
}

// RegisterAndFetchView registers the node, blocks until the cluster
// assembles, and returns the cluster view the scheduler distributes — or
// nil when the scheduler only knows a bare assignment (or nothing), in
// which case callers fall back to flag-derived bootstrap. ctx bounds the
// wait; nil means wait forever.
func RegisterAndFetchView(ctx context.Context, ep transport.Endpoint) (*clusterview.View, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	msg := &transport.Message{Type: transport.MsgRegister, To: transport.Scheduler()}
	if err := ep.Send(msg); err != nil {
		return nil, fmt.Errorf("core: register %s: %w", ep.ID(), err)
	}
	resp, err := recvCtx(ctx, ep)
	if err != nil {
		return nil, fmt.Errorf("core: await registration ack: %w", err)
	}
	if resp.Type != transport.MsgRegisterAck {
		typ := resp.Type
		transport.ReleaseReceived(resp)
		return nil, fmt.Errorf("core: unexpected %s before registration ack", typ)
	}
	if resp.Progress != 1 || len(resp.Vals) == 0 {
		transport.ReleaseReceived(resp)
		return nil, nil
	}
	v, _, err := clusterview.Decode(resp.Vals)
	transport.ReleaseReceived(resp)
	if err != nil {
		return nil, fmt.Errorf("core: decode view from registration ack: %w", err)
	}
	return v, nil
}

// Alive returns the nodes whose last heartbeat (or registration) is within
// the given window.
func (s *Scheduler) Alive(window time.Duration) []transport.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff := time.Now().Add(-window)
	var out []transport.NodeID
	for id, ts := range s.lastSeen {
		if ts.After(cutoff) {
			out = append(out, id)
		}
	}
	return out
}

// StartHeartbeats sends MsgHeartbeat to the scheduler every interval
// until stop is closed; the returned channel closes when the loop exits.
// Send failures stop the loop (the endpoint is gone; the scheduler will
// notice the silence through Alive's window).
func StartHeartbeats(ep transport.Endpoint, interval time.Duration, stop <-chan struct{}) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				msg := &transport.Message{Type: transport.MsgHeartbeat, To: transport.Scheduler()}
				if err := ep.Send(msg); err != nil {
					return
				}
			}
		}
	}()
	return done
}

// RegisterAsync announces the node to the scheduler without waiting for
// the quorum confirmation. Servers use this: they must already be serving
// when the scheduler releases the workers, so they register and
// immediately enter their Run loop (which ignores the eventual ack).
func RegisterAsync(ep transport.Endpoint) error {
	msg := &transport.Message{Type: transport.MsgRegister, To: transport.Scheduler()}
	if err := ep.Send(msg); err != nil {
		return fmt.Errorf("core: register %s: %w", ep.ID(), err)
	}
	return nil
}

// Register is the client half of registration: it announces id to the
// scheduler and blocks until the scheduler confirms the full cluster has
// assembled. Workers call it before training; servers should use
// RegisterAsync followed by Run instead, so early worker traffic finds
// them already serving. ctx bounds the wait for the quorum ack; nil
// means wait forever.
func Register(ctx context.Context, ep transport.Endpoint) error {
	if ctx == nil {
		ctx = context.Background()
	}
	seq := uint64(time.Now().UnixNano())
	msg := &transport.Message{Type: transport.MsgRegister, To: transport.Scheduler(), Seq: seq}
	if err := ep.Send(msg); err != nil {
		return fmt.Errorf("core: register %s: %w", ep.ID(), err)
	}
	resp, err := recvCtx(ctx, ep)
	if err != nil {
		return fmt.Errorf("core: await registration ack: %w", err)
	}
	typ := resp.Type
	transport.ReleaseReceived(resp)
	if typ == transport.MsgRegisterAck {
		return nil
	}
	// Anything else arriving this early is a protocol violation.
	return fmt.Errorf("core: unexpected %s before registration ack", typ)
}
