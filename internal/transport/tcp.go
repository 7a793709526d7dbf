package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPEndpoint is a node endpoint backed by real TCP sockets, for
// multi-process deployments (one process per scheduler/server/worker).
//
// Each endpoint listens on its own address and lazily dials peers from an
// address book. Connections are cached; writes to one peer are serialized
// through a per-connection mutex, and a background accept loop feeds all
// inbound messages into a single inbox so Recv has the same semantics as
// the in-process network.
// RedialPolicy bounds how a TCPEndpoint's Send recovers from a dead or
// undialable peer connection: after the first failed write the endpoint
// redials immediately once, then backs off exponentially from Base up to
// Max for the remaining attempts.
type RedialPolicy struct {
	// Attempts is the number of retries after the initial try. Zero
	// disables reconnection (a single failed write fails the Send).
	Attempts int
	// Base is the backoff before the second retry (the first retry is
	// immediate, preserving the fast path for stale cached connections);
	// it doubles per subsequent retry.
	Base time.Duration
	// Max caps the backoff. Zero means no cap.
	Max time.Duration
}

// DefaultRedial is the reconnect policy new TCP endpoints start with.
var DefaultRedial = RedialPolicy{Attempts: 3, Base: 10 * time.Millisecond, Max: 250 * time.Millisecond}

// delay returns the pause before retry number n (counting from 1).
func (p RedialPolicy) delay(n int) time.Duration {
	if n <= 1 || p.Base <= 0 {
		return 0 // first retry is immediate
	}
	d := p.Base
	for i := 2; i < n; i++ {
		d *= 2
		if p.Max > 0 && d >= p.Max {
			return p.Max
		}
	}
	if p.Max > 0 && d > p.Max {
		return p.Max
	}
	return d
}

type TCPEndpoint struct {
	id       NodeID
	listener net.Listener
	book     map[NodeID]string
	redial   RedialPolicy

	inbox chan *Message
	done  chan struct{}

	mu    sync.Mutex
	conns map[NodeID]*tcpConn

	// lent maps each connection that is writing a frame of a message
	// with borrowed segments (Segs) to that message, so Abort can cut the
	// write short. Lock order: a connection's mu, then lentMu, then mu.
	lentMu sync.Mutex
	lent   map[*tcpConn]*Message

	closeOnce sync.Once
	wg        sync.WaitGroup
}

type tcpConn struct {
	mu sync.Mutex // serializes frame writes
	c  net.Conn
	fw *frameWriter // guarded by mu
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{c: c, fw: newFrameWriter()}
}

// frameStageBytes is the staging buffer of a frame writer: a frame whose
// whole encoding fits is copied into it and leaves in one Write, so acks
// and small pushes cost one copy and one syscall.
const frameStageBytes = 4096

// frameWriter writes frames: every TCP connection owns one, and
// WriteFrame borrows a pooled one. A frame that fits the staging buffer
// is encoded into it whole and leaves in one Write. A larger one fills
// the staging buffer with [len ‖ header ‖ keys] and the payload's first
// values, writes it, and sends the rest of Vals and Segs as one vectored
// write (writev) that reads the payload where it lives. Writing that
// first full chunk on its own is faster than one writev of the whole
// frame: a 1 MiB ping-pong between two TCPEndpoints (BenchmarkTCPEcho1MiB,
// 2 vCPU loopback) takes ~425–545 µs (median ≈ 465) this way against
// ~540–600 µs as a single writev, and a writev after a head-only write is
// no faster. The
// scratch slices are reused across frames: a net.Buffers built per
// frame would escape, one allocation per write.
type frameWriter struct {
	stage []byte
	rest  [][]float64 // the payload pieces left after the staged chunk
	iov   [][]byte    // backing array of bufs
	bufs  net.Buffers // the view WriteTo consumes
}

func newFrameWriter() *frameWriter {
	return &frameWriter{stage: make([]byte, 0, frameStageBytes)}
}

// write writes m's frame to w; the bytes are exactly len ‖ Encode(m).
func (fw *frameWriter) write(w io.Writer, m *Message) error {
	n, err := checkFrameSize(m)
	if err != nil {
		return err
	}
	return fw.writeSized(w, m, n)
}

// writeSized writes m's frame, whose encoding checkFrameSize measured as
// n bytes.
func (fw *frameWriter) writeSized(w io.Writer, m *Message, n int) error {
	buf := appendHead(binary.LittleEndian.AppendUint32(fw.stage[:0], uint32(n)), m)
	if 4+n <= frameStageBytes {
		buf = appendPayload(buf, m)
		fw.stage = buf
		_, err := w.Write(buf)
		return err
	}
	rest := append(append(fw.rest[:0], m.Vals), m.Segs...)
	room := max(0, (frameStageBytes-len(buf))/8)
	for i := 0; i < len(rest) && room > 0; i++ {
		k := min(room, len(rest[i]))
		buf = appendVals(buf, rest[i][:k])
		rest[i] = rest[i][k:]
		room -= k
	}
	fw.stage, fw.rest = buf, rest
	_, err := w.Write(buf)
	if err == nil {
		err = fw.writePieces(w, rest)
	}
	clear(rest) // the scratch must not pin the payload past this frame
	return err
}

// ListenTCP creates an endpoint for id listening on addr (e.g.
// "127.0.0.1:9001"). book maps every peer's NodeID to its dialable
// address; entries may be added for nodes that start later, as dialing is
// lazy. Passing addr ":0" picks a free port — read it back via Addr.
func ListenTCP(id NodeID, addr string, book map[NodeID]string) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	e := &TCPEndpoint{
		id:       id,
		listener: ln,
		book:     make(map[NodeID]string, len(book)),
		inbox:    make(chan *Message, 1024),
		done:     make(chan struct{}),
		conns:    make(map[NodeID]*tcpConn),
		lent:     make(map[*tcpConn]*Message),
	}
	e.redial = DefaultRedial
	for k, v := range book {
		e.book[k] = v
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr returns the address the endpoint is listening on.
func (e *TCPEndpoint) Addr() string { return e.listener.Addr().String() }

// ID returns the node this endpoint belongs to.
func (e *TCPEndpoint) ID() NodeID { return e.id }

// SetRedial replaces the endpoint's reconnect policy. Call it before the
// endpoint is shared with sending goroutines.
func (e *TCPEndpoint) SetRedial(p RedialPolicy) { e.redial = p }

// SetPeer registers or updates a peer's address in the address book.
func (e *TCPEndpoint) SetPeer(id NodeID, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.book[id] = addr
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		e.wg.Add(1)
		go e.readLoop(c)
	}
}

func (e *TCPEndpoint) readLoop(c net.Conn) {
	defer e.wg.Done()
	defer c.Close()
	r := bufio.NewReader(c)
	wrapped := newTCPConn(c)
	var peer NodeID
	registered := false
	defer func() {
		// Unregister the reply path when the connection dies so later
		// sends do not pick a dead socket.
		if registered {
			e.dropConn(peer, wrapped)
		}
	}()
	for {
		m, err := ReadFrame(r)
		if err != nil {
			return // EOF or broken peer; outstanding requests time out upstream
		}
		if !registered {
			// Adopt the connection as the reply path to this peer, so
			// nodes we cannot dial (admin tools, workers behind NAT) can
			// still be answered.
			e.mu.Lock()
			if _, ok := e.conns[m.From]; !ok {
				e.conns[m.From] = wrapped
				peer = m.From
				registered = true
			}
			e.mu.Unlock()
		}
		select {
		case e.inbox <- m:
		case <-e.done:
			return
		}
	}
}

// Send delivers m to m.To, dialing the peer on first use. A write or dial
// failure (e.g. a stale reply path whose peer went away, or a peer that is
// restarting) drops the cached connection and reconnects: the first retry
// redials immediately, later retries back off exponentially per the
// endpoint's RedialPolicy. A peer with no address-book entry fails
// immediately — waiting cannot conjure an address.
func (e *TCPEndpoint) Send(m *Message) error {
	if m.From == (NodeID{}) {
		m.From = e.id
	}
	var lastErr error
	for attempt := 0; attempt <= e.redial.Attempts; attempt++ {
		if d := e.redial.delay(attempt); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-e.done:
				t.Stop()
				return ErrClosed
			case <-t.C:
			}
		}
		select {
		case <-e.done:
			return ErrClosed
		default:
		}
		if atomic.LoadUint32(&m.aborted) != 0 {
			return ErrAborted
		}
		conn, err := e.conn(m.To)
		if err != nil {
			if errorIsNoAddr(err) {
				if lastErr != nil {
					return fmt.Errorf("%w (after reconnect: %v)", lastErr, err)
				}
				return err
			}
			lastErr = err
			continue
		}
		if err := e.writeTo(conn, m); err != nil {
			if errors.Is(err, ErrAborted) {
				return err // Abort tore the connection down itself
			}
			e.dropConn(m.To, conn)
			lastErr = err
			continue
		}
		return nil
	}
	return fmt.Errorf("transport: send to %s failed after %d attempts: %w", m.To, e.redial.Attempts+1, lastErr)
}

// SendCopies reports true: Send encodes m into a frame before returning,
// so callers may recycle a pooled message as soon as Send completes.
func (e *TCPEndpoint) SendCopies() bool { return true }

func (e *TCPEndpoint) writeTo(conn *tcpConn, m *Message) error {
	conn.mu.Lock()
	defer conn.mu.Unlock()
	lends := len(m.Segs) > 0
	if lends && !e.lend(conn, m) {
		return fmt.Errorf("transport: write frame to %s: %w", m.To, ErrAborted)
	}
	err := conn.fw.write(conn.c, m)
	if lends {
		e.lentMu.Lock()
		delete(e.lent, conn)
		e.lentMu.Unlock()
		if err != nil && atomic.LoadUint32(&m.aborted) != 0 {
			err = ErrAborted
		}
	}
	if err != nil {
		return fmt.Errorf("transport: write frame to %s: %w", m.To, err)
	}
	return nil
}

// lend records that conn is about to write a frame of m, which borrows
// segments; it reports false, recording nothing, when m was aborted.
func (e *TCPEndpoint) lend(conn *tcpConn, m *Message) bool {
	e.lentMu.Lock()
	defer e.lentMu.Unlock()
	if atomic.LoadUint32(&m.aborted) != 0 {
		return false
	}
	e.lent[conn] = m
	return true
}

// Abort implements Aborter: it marks m aborted, so no Send starts
// writing it, and drops every connection a frame of m is being written
// on, so the blocked write returns and the peer sees the stream end
// mid-frame.
func (e *TCPEndpoint) Abort(m *Message) bool {
	atomic.StoreUint32(&m.aborted, 1)
	e.lentMu.Lock()
	defer e.lentMu.Unlock()
	free := true
	for conn, lm := range e.lent {
		if lm == m {
			e.dropConn(m.To, conn)
			free = false
		}
	}
	return free
}

func (e *TCPEndpoint) conn(to NodeID) (*tcpConn, error) {
	e.mu.Lock()
	if c, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return c, nil
	}
	addr, ok := e.book[to]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: %w for %s", errNoAddr, to)
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s (%s): %w", to, addr, err)
	}
	c := newTCPConn(raw)
	e.mu.Lock()
	if existing, ok := e.conns[to]; ok {
		// Lost a race with a concurrent dial; keep the established one.
		e.mu.Unlock()
		raw.Close()
		return existing, nil
	}
	e.conns[to] = c
	e.mu.Unlock()
	// Connections are bidirectional: the peer replies over this socket
	// (it may have no dialable address for us), so read from it too.
	e.wg.Add(1)
	go e.readLoop(raw)
	return c, nil
}

func (e *TCPEndpoint) dropConn(to NodeID, c *tcpConn) {
	c.c.Close()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.conns[to] == c {
		delete(e.conns, to)
	}
}

// Recv returns the next inbound message, or ErrClosed after Close. EOF on
// an individual peer connection is not an endpoint error; it simply stops
// that peer's stream.
func (e *TCPEndpoint) Recv() (*Message, error) {
	select {
	case m := <-e.inbox:
		return m, nil
	case <-e.done:
		select {
		case m := <-e.inbox:
			return m, nil
		default:
			return nil, ErrClosed
		}
	}
}

// Close shuts the listener and all cached connections.
func (e *TCPEndpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		e.listener.Close()
		e.mu.Lock()
		for _, c := range e.conns {
			c.c.Close()
		}
		e.conns = map[NodeID]*tcpConn{}
		e.mu.Unlock()
	})
	return nil
}

// errNoAddr marks the one non-retryable Send failure: an unknown peer.
var errNoAddr = fmt.Errorf("no address")

func errorIsNoAddr(err error) bool { return errors.Is(err, errNoAddr) }

var (
	_ Endpoint  = (*TCPEndpoint)(nil)
	_ io.Closer = (*TCPEndpoint)(nil)
)
