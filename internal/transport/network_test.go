package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/fluentps/fluentps/internal/keyrange"
)

func TestChanNetworkBasicDelivery(t *testing.T) {
	net := NewChanNetwork(8)
	a := net.Endpoint(Worker(0))
	b := net.Endpoint(Server(0))
	defer a.Close()
	defer b.Close()

	msg := &Message{Type: MsgPush, To: Server(0), Seq: 9, Vals: []float64{1, 2}}
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.From != Worker(0) {
		t.Errorf("From = %v, want worker/0 (auto-filled)", got.From)
	}
	if got.Seq != 9 || len(got.Vals) != 2 {
		t.Errorf("message mangled: %+v", got)
	}
}

func TestChanNetworkEndpointIdempotent(t *testing.T) {
	net := NewChanNetwork(0)
	a := net.Endpoint(Worker(1))
	b := net.Endpoint(Worker(1))
	if a != b {
		t.Error("Endpoint should return the same endpoint for the same id")
	}
}

func TestChanNetworkSendToUnknownPeer(t *testing.T) {
	net := NewChanNetwork(0)
	a := net.Endpoint(Worker(0))
	defer a.Close()
	err := a.Send(&Message{Type: MsgPush, To: Server(99)})
	if err == nil {
		t.Error("send to unregistered peer should error")
	}
}

func TestChanNetworkOrderingPerPair(t *testing.T) {
	net := NewChanNetwork(128)
	a := net.Endpoint(Worker(0))
	b := net.Endpoint(Server(0))
	defer a.Close()
	defer b.Close()
	for i := 0; i < 100; i++ {
		if err := a.Send(&Message{Type: MsgPush, To: Server(0), Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Seq != uint64(i) {
			t.Fatalf("out of order: got seq %d at position %d", m.Seq, i)
		}
		ReleaseReceived(m)
	}
}

func TestChanNetworkRecvAfterCloseReturnsErrClosed(t *testing.T) {
	net := NewChanNetwork(0)
	a := net.Endpoint(Worker(0))
	a.Close()
	if _, err := a.Recv(); err != ErrClosed {
		t.Errorf("Recv after close = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestChanNetworkCloseUnblocksRecv(t *testing.T) {
	net := NewChanNetwork(0)
	a := net.Endpoint(Worker(0))
	errc := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Errorf("blocked Recv returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock after Close")
	}
}

func TestChanNetworkConcurrentSenders(t *testing.T) {
	net := NewChanNetwork(4096)
	server := net.Endpoint(Server(0))
	defer server.Close()
	const workers, msgsEach = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ep := net.Endpoint(Worker(w))
			for i := 0; i < msgsEach; i++ {
				if err := ep.Send(&Message{Type: MsgPush, To: Server(0), Seq: uint64(i)}); err != nil {
					t.Errorf("worker %d send: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	seen := map[NodeID]int{}
	for i := 0; i < workers*msgsEach; i++ {
		m, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		seen[m.From]++
		ReleaseReceived(m)
	}
	for w := 0; w < workers; w++ {
		if seen[Worker(w)] != msgsEach {
			t.Errorf("worker %d delivered %d msgs, want %d", w, seen[Worker(w)], msgsEach)
		}
	}
}

// startTCPPair wires two TCP endpoints with each other's addresses.
func startTCPPair(t testing.TB) (a, b *TCPEndpoint) {
	t.Helper()
	var err error
	a, err = ListenTCP(Worker(0), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err = ListenTCP(Server(0), "127.0.0.1:0", nil)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.SetPeer(Server(0), b.Addr())
	b.SetPeer(Worker(0), a.Addr())
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := startTCPPair(t)
	req := &Message{Type: MsgPull, To: Server(0), Seq: 5, Keys: []keyrange.Key{1, 2}, Progress: 3}
	if err := a.Send(req); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgPull || got.Seq != 5 || got.Progress != 3 || len(got.Keys) != 2 {
		t.Fatalf("request mangled: %+v", got)
	}
	resp := &Message{Type: MsgPullResp, To: got.From, Seq: got.Seq, Vals: []float64{1, 2, 3}}
	if err := b.Send(resp); err != nil {
		t.Fatal(err)
	}
	back, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if back.Type != MsgPullResp || back.Seq != 5 || len(back.Vals) != 3 {
		t.Fatalf("response mangled: %+v", back)
	}
}

func TestTCPManyMessagesManyGoroutines(t *testing.T) {
	a, b := startTCPPair(t)
	const n = 200
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				m := &Message{Type: MsgPush, To: Server(0), Seq: uint64(g*n + i), Vals: []float64{float64(i)}}
				if err := a.Send(m); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for i := 0; i < 4*n; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if seen[m.Seq] {
			t.Fatalf("duplicate seq %d", m.Seq)
		}
		seen[m.Seq] = true
		ReleaseReceived(m)
	}
}

func TestTCPSendToUnknownPeer(t *testing.T) {
	a, err := ListenTCP(Worker(0), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(&Message{Type: MsgPush, To: Server(7)}); err == nil {
		t.Error("send without address book entry should error")
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	a, _ := startTCPPair(t)
	a.Close()
	if err := a.Send(&Message{Type: MsgPush, To: Server(0)}); err != ErrClosed {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
	if _, err := a.Recv(); err != ErrClosed {
		t.Errorf("recv after close = %v, want ErrClosed", err)
	}
}

func TestTCPDialFailure(t *testing.T) {
	a, err := ListenTCP(Worker(0), "127.0.0.1:0", map[NodeID]string{
		Server(0): "127.0.0.1:1", // nothing listens on port 1
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(&Message{Type: MsgPush, To: Server(0)}); err == nil {
		t.Error("dial to dead address should error")
	}
}

func TestTCPLargePayload(t *testing.T) {
	a, b := startTCPPair(t)
	vals := make([]float64, 100000)
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	if err := a.Send(&Message{Type: MsgPush, To: Server(0), Vals: vals}); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Vals) != len(vals) || got.Vals[99999] != vals[99999] {
		t.Fatal("large payload corrupted")
	}
	ReleaseReceived(got)
}

func TestTCPFullMesh(t *testing.T) {
	const servers, workers = 2, 3
	book := map[NodeID]string{}
	var eps []*TCPEndpoint
	mk := func(id NodeID) {
		ep, err := ListenTCP(id, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		book[id] = ep.Addr()
		eps = append(eps, ep)
	}
	for m := 0; m < servers; m++ {
		mk(Server(m))
	}
	for n := 0; n < workers; n++ {
		mk(Worker(n))
	}
	for _, ep := range eps {
		for id, addr := range book {
			ep.SetPeer(id, addr)
		}
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	// Every worker sends to every server; every server gets `workers` messages.
	for n := 0; n < workers; n++ {
		for m := 0; m < servers; m++ {
			msg := &Message{Type: MsgPush, To: Server(m), Seq: uint64(n)}
			if err := eps[servers+n].Send(msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	for m := 0; m < servers; m++ {
		from := map[NodeID]bool{}
		for i := 0; i < workers; i++ {
			msg, err := eps[m].Recv()
			if err != nil {
				t.Fatal(err)
			}
			from[msg.From] = true
			ReleaseReceived(msg)
		}
		if len(from) != workers {
			t.Errorf("server %d heard from %d workers, want %d", m, len(from), workers)
		}
	}
}

func ExampleChanNetwork() {
	net := NewChanNetwork(4)
	w := net.Endpoint(Worker(0))
	s := net.Endpoint(Server(0))
	_ = w.Send(&Message{Type: MsgPush, To: Server(0), Vals: []float64{0.5}})
	m, _ := s.Recv()
	fmt.Println(m.Type, m.From, m.Vals[0])
	ReleaseReceived(m)
	// Output: push worker/0 0.5
}

// TestTCPSendReconnectsWithBackoff: a Send to a peer that is not up yet
// succeeds once the peer starts listening within the redial budget — the
// reconnect-with-backoff path that lets a worker ride out a server
// restart.
func TestTCPSendReconnectsWithBackoff(t *testing.T) {
	// Reserve a port, then free it so the late-starting peer can bind it.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	a, err := ListenTCP(Worker(0), "127.0.0.1:0", map[NodeID]string{Server(0): addr})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetRedial(RedialPolicy{Attempts: 20, Base: 20 * time.Millisecond, Max: 100 * time.Millisecond})

	started := make(chan *TCPEndpoint, 1)
	go func() {
		time.Sleep(80 * time.Millisecond) // let the first attempts fail
		b, err := ListenTCP(Server(0), addr, nil)
		if err != nil {
			started <- nil
			return
		}
		started <- b
	}()
	if err := a.Send(&Message{Type: MsgPush, To: Server(0), Seq: 11}); err != nil {
		t.Fatalf("send did not survive the peer's late start: %v", err)
	}
	b := <-started
	if b == nil {
		t.Fatal("late peer failed to listen (port raced away)")
	}
	defer b.Close()
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq != 11 {
		t.Fatalf("Seq = %d, want 11", m.Seq)
	}
	ReleaseReceived(m)
}

// TestTCPSendZeroRetries: RedialPolicy{} restores strict fail-fast
// semantics for callers that implement their own recovery.
func TestTCPSendZeroRetries(t *testing.T) {
	a, err := ListenTCP(Worker(0), "127.0.0.1:0", map[NodeID]string{
		Server(0): "127.0.0.1:1", // nothing listens on port 1
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetRedial(RedialPolicy{})
	start := time.Now()
	if err := a.Send(&Message{Type: MsgPush, To: Server(0)}); err == nil {
		t.Fatal("dial to dead address should error")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("zero-retry send took %v, want immediate failure", d)
	}
}

// stalledPeer listens on loopback and accepts connections it never reads
// from: a peer whose receive window closes, so a large frame written to it
// blocks inside the kernel. Accepted connections arrive on the channel.
func stalledPeer(t *testing.T) (addr string, accepted <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns <- c
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		for {
			select {
			case c := <-conns:
				c.Close()
			default:
				return
			}
		}
	})
	return ln.Addr().String(), conns
}

// TestTCPAbortCutsStalledWrite: Abort tears down a frame write blocked on
// a peer that stopped reading — the Send fails with ErrAborted at once
// and the peer sees the stream end mid-frame — and a message aborted
// before its Send is never written at all.
func TestTCPAbortCutsStalledWrite(t *testing.T) {
	addr, accepted := stalledPeer(t)
	e, err := ListenTCP(Worker(0), "127.0.0.1:0", map[NodeID]string{Server(0): addr})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// 16 MiB: more than the socket buffers of a loopback pair hold when
	// the receiver never reads.
	payload := make([]float64, 2<<20)
	m := &Message{Type: MsgPush, To: Server(0), Keys: []keyrange.Key{0, 1},
		Segs: [][]float64{payload[:1<<20], payload[1<<20:]}}
	frame := int64(4 + EncodedSize(m))
	sent := make(chan error, 1)
	go func() { sent <- e.Send(m) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		e.lentMu.Lock()
		writing := len(e.lent)
		e.lentMu.Unlock()
		if writing > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the frame write never started")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-sent:
		t.Fatalf("Send to a peer that never reads returned %v; the frame should not fit its buffers", err)
	case <-time.After(100 * time.Millisecond):
	}
	if e.Abort(m) {
		t.Fatal("Abort reported the segments free while their frame was mid-write")
	}
	select {
	case err := <-sent:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("aborted Send returned %v, want ErrAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not cut the stalled write short")
	}
	peer := <-accepted
	peer.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := io.Copy(io.Discard, peer)
	if err != nil {
		t.Fatalf("reading the cut stream: %v", err)
	}
	if n >= frame {
		t.Fatalf("the peer read %d bytes, the whole %d-byte frame: the write was not cut", n, frame)
	}

	// Aborted before its Send: nothing is written, not even a dial.
	early := &Message{Type: MsgPush, To: Server(0), Keys: []keyrange.Key{0}, Segs: [][]float64{payload[:8]}}
	if !e.Abort(early) {
		t.Fatal("Abort of a message nobody is writing must report it free")
	}
	if err := e.Send(early); !errors.Is(err, ErrAborted) {
		t.Fatalf("Send of an aborted message returned %v, want ErrAborted", err)
	}
	select {
	case <-accepted:
		t.Fatal("Send of an aborted message dialed the peer")
	case <-time.After(50 * time.Millisecond):
	}
}

// BenchmarkTCPEcho1MiB is one ping-pong of a 1 MiB push between two
// TCPEndpoints on loopback: the per-frame latency of the write and read
// paths for the large-frame shape, which a server's pull response and a
// worker's push both take.
func BenchmarkTCPEcho1MiB(b *testing.B) {
	a, srv := startTCPPair(b)
	go func() {
		for {
			m, err := srv.Recv()
			if err != nil {
				return
			}
			m.From, m.To = NodeID{}, m.From
			err = srv.Send(m)
			ReleaseReceived(m)
			if err != nil {
				return
			}
		}
	}()
	m := &Message{Type: MsgPush, To: Server(0), Keys: []keyrange.Key{0}, Vals: make([]float64, 1<<17)}
	b.SetBytes(2 * 8 << 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(m); err != nil {
			b.Fatal(err)
		}
		back, err := a.Recv()
		if err != nil {
			b.Fatal(err)
		}
		ReleaseReceived(back)
	}
}
