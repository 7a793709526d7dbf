package core

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/transport"
)

// A push borrows the caller's delta until its handle is spent: the
// request messages lend delta's per-key slices as Segs, and the frames
// are written from them. These tests pin that contract and the request
// handoff between a worker's sender pipes and its completions.

// gatedEndpoint turns a pointer-delivering endpoint into a copying one
// (so the worker hands it the request message itself, Segs included) and
// can stall chosen sends: before delivering (a send stuck on a full
// socket) or after (a send whose reply overtakes its return). It records
// the payload of every push it delivers.
type gatedEndpoint struct {
	transport.Endpoint
	stallBefore bool
	// hold picks the sends that stall; nil stalls none.
	hold    func(*transport.Message) bool
	stalled chan struct{} // one token per stalled send
	release chan struct{} // closed by openGate to let stalled sends go
	open    sync.Once

	mu     sync.Mutex
	pushes [][]float64
}

func newGatedEndpoint(inner transport.Endpoint, stallBefore bool, hold func(*transport.Message) bool) *gatedEndpoint {
	return &gatedEndpoint{
		Endpoint:    inner,
		stallBefore: stallBefore,
		hold:        hold,
		stalled:     make(chan struct{}, 16),
		release:     make(chan struct{}),
	}
}

func (g *gatedEndpoint) SendCopies() bool { return true }

// openGate lets every stalled send go, now and from then on.
func (g *gatedEndpoint) openGate() { g.open.Do(func() { close(g.release) }) }

// Close opens the gate first, so a failing test cannot strand a sender
// pipe inside Send.
func (g *gatedEndpoint) Close() error {
	g.openGate()
	return g.Endpoint.Close()
}

func (g *gatedEndpoint) Send(m *transport.Message) error {
	stall := g.hold != nil && g.hold(m)
	if stall && g.stallBefore {
		g.stalled <- struct{}{}
		<-g.release
	}
	c := m.Clone()
	if c.Type == transport.MsgPush {
		g.mu.Lock()
		g.pushes = append(g.pushes, c.Vals)
		g.mu.Unlock()
	}
	err := g.Endpoint.Send(c)
	if stall && !g.stallBefore {
		g.stalled <- struct{}{}
		<-g.release
	}
	return err
}

func (g *gatedEndpoint) sentPushes() [][]float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([][]float64(nil), g.pushes...)
}

// once returns a hold predicate that stalls the first push only.
func once() func(*transport.Message) bool {
	var fired atomic.Bool
	return func(m *transport.Message) bool {
		return m.Type == transport.MsgPush && fired.CompareAndSwap(false, true)
	}
}

// borrowServers starts one ASP server per shard of assign for a single
// worker, on endpoints from endpoint, initialised to zero; cleanup waits
// for them to stop (shutdownServers).
func borrowServers(t *testing.T, layout *keyrange.Layout, assign *keyrange.Assignment, endpoint func(transport.NodeID) transport.Endpoint) {
	t.Helper()
	for m := 0; m < assign.NumServers(); m++ {
		srv, err := NewServer(endpoint(transport.Server(m)), ServerConfig{
			Rank: m, NumWorkers: 1, Layout: layout, Assignment: assign,
			Model: syncmodel.ASP(), Drain: syncmodel.Lazy,
			Init: func(k keyrange.Key, seg []float64) { clear(seg) },
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { defer close(done); _ = srv.Run() }()
		t.Cleanup(func() { <-done })
	}
}

// shutdownServers sends MsgShutdown to every server from ep.
func shutdownServers(ep transport.Endpoint, servers int) {
	for m := 0; m < servers; m++ {
		_ = ep.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(m)})
	}
}

// tcpCluster listens one TCP endpoint per id on loopback and gives every
// endpoint the full address book.
func tcpCluster(t *testing.T, ids ...transport.NodeID) map[transport.NodeID]*transport.TCPEndpoint {
	t.Helper()
	eps := make(map[transport.NodeID]*transport.TCPEndpoint, len(ids))
	for _, id := range ids {
		ep, err := transport.ListenTCP(id, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		eps[id] = ep
		t.Cleanup(func() { ep.Close() })
	}
	for _, ep := range eps {
		for id, peer := range eps {
			ep.SetPeer(id, peer.Addr())
		}
	}
	return eps
}

// TestLetGoRecyclesOnce: the pipe and the completion side each let go of
// a request once, in either order, and exactly the second one recycles
// it and its message.
func TestLetGoRecyclesOnce(t *testing.T) {
	for _, order := range [][2]int32{{reqPipeDone, reqFinished}, {reqFinished, reqPipeDone}} {
		w := &Worker{}
		msg := transport.NewMessage()
		msg.Type, msg.Seq = transport.MsgPush, 5
		p := w.getReq(msg, 0)
		w.letGo(p, order[0])
		if p.msg != msg || msg.Type != transport.MsgPush {
			t.Fatalf("order %v: the first party to let go recycled the request", order)
		}
		w.letGo(p, order[1])
		if p.msg != nil || msg.Type != 0 {
			t.Fatalf("order %v: the second party to let go did not recycle the request", order)
		}
	}
}

// TestReplyOvertakingSendRecyclesOnce: a push whose ack arrives while
// its pipe is still inside Send (the reply overtakes the pipe's return)
// is completed by Wait but recycled only once the pipe lets go — exactly
// once, by the pipe. Before the two-party handoff, such a request and
// its pooled message were dropped to the garbage collector.
func TestReplyOvertakingSendRecyclesOnce(t *testing.T) {
	layout := keyrange.MustLayout([]int{4, 4})
	assign, err := keyrange.EPS(layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewChanNetwork(16)
	borrowServers(t, layout, assign, func(id transport.NodeID) transport.Endpoint { return net.Endpoint(id) })
	defer shutdownServers(net.Endpoint(transport.Worker(99)), 1)
	gate := newGatedEndpoint(net.Endpoint(transport.Worker(0)), false, once())
	w, err := NewWorker(gate, WorkerConfig{Rank: 0, Layout: layout, Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	delta := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	h, err := w.SPushAsync(tctx, 0, delta)
	if err != nil {
		t.Fatal(err)
	}
	p := h.reqs[0]
	msg := p.msg
	<-gate.stalled // delivered; the pipe is now parked inside Send
	ackd := make(chan error, 1)
	go func() { ackd <- h.Wait(tctx) }()
	// Wait completes the request but must not return while the pipe can
	// still read delta: it returns only after the send does.
	waitUntil(t, 2*time.Second, "the ack to complete the request", func() bool {
		return p.state.Load()&reqFinished != 0
	})
	if p.msg != msg || msg.Type != transport.MsgPush || len(msg.Segs) != 2 {
		t.Fatal("request recycled while its pipe was still inside Send")
	}
	select {
	case err := <-ackd:
		t.Fatalf("Wait returned (%v) while the push's send was still in progress", err)
	case <-time.After(20 * time.Millisecond):
	}
	gate.openGate()
	if err := <-ackd; err != nil {
		t.Fatal(err)
	}
	if p.state.Load()&(reqPipeDone|reqFinished) != reqPipeDone|reqFinished {
		t.Fatalf("request state %b after Wait, want both parties let go", p.state.Load())
	}
	if p.msg != nil || msg.Type != 0 || len(msg.Segs) != 0 {
		t.Fatal("request not recycled once its pipe let go")
	}
	// Recycled exactly once: a second Put would hand the same entry out
	// twice.
	a, _ := w.reqPool.Get().(*pendingReq)
	b, _ := w.reqPool.Get().(*pendingReq)
	if a == p && b == p {
		t.Fatal("request recycled twice")
	}
}

// TestPushBorrowContract: once SPushAsync's handle is spent — Discard or
// Wait returned — the caller may overwrite delta without changing what
// any server applies. Every step overwrites delta with garbage right
// after spending the handle; the exact-sum audit (dyadic updates, so any
// order of application sums exactly) proves the servers applied the
// values delta held while it was borrowed, over real TCP and over the
// in-process transport.
func TestPushBorrowContract(t *testing.T) {
	for _, tcp := range []bool{true, false} {
		name := "chan"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			layout := keyrange.MustLayout([]int{64, 32, 64, 32, 16, 48})
			assign, err := keyrange.EPS(layout, 2)
			if err != nil {
				t.Fatal(err)
			}
			var endpoint func(transport.NodeID) transport.Endpoint
			if tcp {
				eps := tcpCluster(t, transport.Server(0), transport.Server(1), transport.Worker(0), transport.Worker(99))
				endpoint = func(id transport.NodeID) transport.Endpoint { return eps[id] }
			} else {
				net := transport.NewChanNetwork(64)
				endpoint = func(id transport.NodeID) transport.Endpoint { return net.Endpoint(id) }
			}
			borrowServers(t, layout, assign, endpoint)
			defer shutdownServers(endpoint(transport.Worker(99)), 2)
			w, err := NewWorker(endpoint(transport.Worker(0)), WorkerConfig{Rank: 0, Layout: layout, Assignment: assign})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()

			const steps = 60
			dim := layout.TotalDim()
			want := make([]float64, dim)
			delta := make([]float64, dim)
			for i := 0; i < steps; i++ {
				for j := range delta {
					delta[j] = float64((i*31+j*7)%513-256) / 65536
					want[j] += delta[j]
				}
				h, err := w.SPushAsync(tctx, i, delta)
				if err != nil {
					t.Fatal(err)
				}
				if i%2 == 0 && i != steps-1 {
					h.Discard()
				} else if err := h.Wait(tctx); err != nil {
					t.Fatal(err)
				}
				for j := range delta {
					delta[j] = math.NaN()
				}
			}
			got := make([]float64, dim)
			if err := w.SPull(tctx, steps, got); err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("coordinate %d is %v, want exactly %v: a push carried delta contents written after its handle was spent", j, got[j], want[j])
				}
			}
		})
	}
}

// TestCancelledWaitNeverSendsLaterDelta: a push queued behind a stalled
// send is withdrawn when its Wait fails (here: cancelled), so Wait
// returns without waiting for the stall to clear, and contents the caller
// writes into delta afterwards never reach the wire.
func TestCancelledWaitNeverSendsLaterDelta(t *testing.T) {
	layout := keyrange.MustLayout([]int{4, 4})
	assign, err := keyrange.EPS(layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewChanNetwork(16)
	borrowServers(t, layout, assign, func(id transport.NodeID) transport.Endpoint { return net.Endpoint(id) })
	defer shutdownServers(net.Endpoint(transport.Worker(99)), 1)
	gate := newGatedEndpoint(net.Endpoint(transport.Worker(0)), true, once())
	w, err := NewWorker(gate, WorkerConfig{Rank: 0, Layout: layout, Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	first := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	h1, err := w.SPushAsync(tctx, 0, first)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.stalled // the first push is stuck inside Send
	second := []float64{2, 2, 2, 2, 2, 2, 2, 2}
	h2, err := w.SPushAsync(tctx, 1, second)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	waited := make(chan error, 1)
	go func() { waited <- h2.Wait(ctx) }()
	select {
	case err := <-waited:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Wait returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled Wait blocked on a send it never started")
	}
	const later = 1e9
	for i := range second {
		second[i] = later
	}
	gate.openGate()
	if err := h1.Wait(tctx); err != nil {
		t.Fatal(err)
	}
	// A pull rides the same pipe behind the withdrawn push: once it is
	// answered, the pipe has passed the push without sending it.
	got := make([]float64, layout.TotalDim())
	if err := w.SPull(tctx, 1, got); err != nil {
		t.Fatal(err)
	}
	pushes := gate.sentPushes()
	if len(pushes) != 1 {
		t.Fatalf("%d pushes reached the wire, want only the first", len(pushes))
	}
	for _, v := range pushes[0] {
		if v == later {
			t.Fatal("delta contents written after Wait returned reached the wire")
		}
	}
	for i, v := range got {
		if v != 1 {
			t.Fatalf("coordinate %d is %v after the first push alone, want 1", i, v)
		}
	}
}

// TestPushPullStepAllocations pins the data plane's steady state over
// real TCP in the benchmark's two ASP shapes — 2 servers, 64 keys × 4096
// (1 MiB per shard each way) and 8 keys × 32: a synchronous push+pull
// step allocates at most the two operation handles, and no payload array
// regrows (well under 1 KiB allocated per step).
func TestPushPullStepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts are meaningless")
	}
	for _, shape := range []struct {
		name          string
		keys, keySize int
	}{{"large", 64, 4096}, {"small", 8, 32}} {
		t.Run(shape.name, func(t *testing.T) {
			sizes := make([]int, shape.keys)
			for i := range sizes {
				sizes[i] = shape.keySize
			}
			layout := keyrange.MustLayout(sizes)
			assign, err := keyrange.EPS(layout, 2)
			if err != nil {
				t.Fatal(err)
			}
			eps := tcpCluster(t, transport.Server(0), transport.Server(1), transport.Worker(0), transport.Worker(99))
			endpoint := func(id transport.NodeID) transport.Endpoint { return eps[id] }
			borrowServers(t, layout, assign, endpoint)
			defer shutdownServers(eps[transport.Worker(99)], 2)
			w, err := NewWorker(eps[transport.Worker(0)], WorkerConfig{Rank: 0, Layout: layout, Assignment: assign})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			delta := make([]float64, layout.TotalDim())
			params := make([]float64, layout.TotalDim())
			i := 0
			step := func() {
				if err := w.SPush(tctx, i, delta); err != nil {
					t.Fatal(err)
				}
				if err := w.SPull(tctx, i, params); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for k := 0; k < 200; k++ { // fill the pools and the connections
				step()
			}
			if allocs := testing.AllocsPerRun(200, step); allocs > 2 {
				t.Errorf("push+pull step allocates %.0f objects, want ≤ 2 (the operation handles)", allocs)
			}
			const steps = 400
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for k := 0; k < steps; k++ {
				step()
			}
			runtime.ReadMemStats(&after)
			if per := float64(after.TotalAlloc-before.TotalAlloc) / steps; per >= 1024 {
				t.Errorf("push+pull step allocates %.0f B per step, want < 1 KiB: a payload array regrows", per)
			}
		})
	}
}

// TestStalledPeerDoesNotHoldTheBorrow: a push to a server that stopped
// reading does not hold its delta past the bound the caller set — the
// ctx of Wait, or WorkerConfig.Timeout for Discard. Over TCP the stalled
// write is cut short, so the peer sees the frame end mid-way and never
// applies bytes the caller goes on to overwrite; over ChanNetwork the
// send waits on a full inbox with its own flattened copy.
func TestStalledPeerDoesNotHoldTheBorrow(t *testing.T) {
	const bound = 300 * time.Millisecond
	// 16 MiB: more than the socket buffers of a loopback pair hold when
	// the receiver never reads.
	big := keyrange.MustLayout([]int{1 << 20, 1 << 20})
	small := keyrange.MustLayout([]int{4, 4})
	for _, tc := range []struct {
		name    string
		tcp     bool
		discard bool
	}{
		{"tcp-wait", true, false},
		{"tcp-discard", true, true},
		{"chan-wait", false, false},
		{"chan-discard", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			layout := small
			if tc.tcp {
				layout = big
			}
			assign, err := keyrange.EPS(layout, 1)
			if err != nil {
				t.Fatal(err)
			}
			var ep, stalled transport.Endpoint
			var accepted chan net.Conn
			if tc.tcp {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close()
				accepted = make(chan net.Conn, 4)
				go func() {
					for {
						c, err := ln.Accept()
						if err != nil {
							return
						}
						accepted <- c
					}
				}()
				tep, err := transport.ListenTCP(transport.Worker(0), "127.0.0.1:0",
					map[transport.NodeID]string{transport.Server(0): ln.Addr().String()})
				if err != nil {
					t.Fatal(err)
				}
				ep = tep
			} else {
				// A server endpoint nobody drains, one slot deep: the
				// first push fills it, the second blocks in Send.
				cn := transport.NewChanNetwork(1)
				stalled = cn.Endpoint(transport.Server(0))
				ep = cn.Endpoint(transport.Worker(0))
			}
			cfg := WorkerConfig{Rank: 0, Layout: layout, Assignment: assign}
			if tc.discard {
				cfg.Timeout = bound
			}
			w, err := NewWorker(ep, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if stalled != nil {
				// Closed before the worker, whose pipe it unblocks.
				defer stalled.Close()
			}
			delta := make([]float64, layout.TotalDim())
			if !tc.tcp {
				filler, err := w.SPushAsync(tctx, 0, delta)
				if err != nil {
					t.Fatal(err)
				}
				defer filler.Discard()
			}
			h, err := w.SPushAsync(tctx, 1, delta)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				if tc.discard {
					h.Discard()
					done <- nil
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), bound)
				defer cancel()
				done <- h.Wait(ctx)
			}()
			select {
			case err := <-done:
				if !tc.discard && !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("Wait returned %v, want context.DeadlineExceeded", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the push held delta long past its bound: the stalled send was waited out")
			}
			if !tc.tcp {
				return
			}
			peer := <-accepted
			defer peer.Close()
			peer.SetReadDeadline(time.Now().Add(10 * time.Second))
			n, err := io.Copy(io.Discard, peer)
			if err != nil {
				t.Fatalf("reading the cut stream: %v", err)
			}
			if frame := int64(4 + 33 + 4*2 + 8*layout.TotalDim()); n >= frame {
				t.Fatalf("the peer read %d bytes, the whole %d-byte frame: the write was not cut", n, frame)
			}
		})
	}
}
