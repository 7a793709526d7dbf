package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fluentps/fluentps/internal/telemetry"
)

// Multiplexed sessions: many logical message streams over one
// connection, built on the pooled frame codec.
//
// A fan-out of read-only clients must not cost the server one TCP
// connection (and two goroutines) per client. A MuxSession carries any
// number of logical streams over a single conn with exactly one reader
// and one writer goroutine per side; each stream speaks the ordinary
// Message codec and looks like a tiny endpoint (Send/Recv).
//
// Wire format — every mux frame is
//
//	length   uint32  (of everything after itself)
//	streamID uint32
//	kind     uint8
//	payload  bytes
//
// with four frame kinds:
//
//	muxData   payload = one encoded Message (the standard wire codec)
//	muxWindow payload = uint32 credit delta (flow control, see below)
//	muxClose  payload = empty; the sender is done with the stream
//	muxReject payload = uint32 retry-after hint in milliseconds
//
// Streams open implicitly: the initiator just sends the first muxData
// frame with a fresh stream ID, and the accepting side materializes the
// stream (or answers muxReject when it is at MaxStreams — admission
// control, so a pull storm backpressures instead of OOMing the server).
//
// Flow control is a count-based credit window on the initiator→acceptor
// direction: the initiator starts with Window credits per stream, each
// Send spends one, and the acceptor returns one credit (muxWindow) each
// time the application consumes a message with Recv. Responses ride
// uncredited — a request/response protocol bounds them by the window
// already. Send blocks while the window is empty; the wait is recorded
// in the transport.stream_stall_ns histogram.
//
// All streams share one outbound queue drained round-robin by the
// session's single writer goroutine, so one chatty stream cannot starve
// the rest between its frames.

// Mux frame kinds.
const (
	muxData   = 1
	muxWindow = 2
	muxClose  = 3
	muxReject = 4
)

// muxHeaderBytes is the streamID+kind preamble inside the length prefix.
const muxHeaderBytes = 5

// Mux defaults; MuxConfig zero values resolve to these.
const (
	DefaultMaxStreams = 64
	DefaultMuxWindow  = 8
)

// MuxConfig parameterizes a session. The zero value is usable.
type MuxConfig struct {
	// MaxStreams caps concurrently open streams on the accepting side;
	// excess opens are answered with muxReject (admission control).
	MaxStreams int
	// Window is the per-stream credit window for initiator sends.
	Window int
	// RetryAfter is the hint returned with muxReject.
	RetryAfter time.Duration
	// Telemetry receives transport.streams_active and
	// transport.stream_stall_ns; nil (telemetry.Nop) disables both.
	Telemetry *telemetry.Registry
}

func (c MuxConfig) withDefaults() MuxConfig {
	if c.MaxStreams <= 0 {
		c.MaxStreams = DefaultMaxStreams
	}
	if c.Window <= 0 {
		c.Window = DefaultMuxWindow
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Millisecond
	}
	return c
}

// MuxRejectedError reports that the peer refused a stream under
// admission control; RetryAfter is its backoff hint.
type MuxRejectedError struct{ RetryAfter time.Duration }

func (e *MuxRejectedError) Error() string {
	return fmt.Sprintf("transport: stream rejected, retry after %v", e.RetryAfter)
}

// muxFrame is one queued outbound frame in a pooled buffer.
type muxFrame struct{ bp *[]byte }

// MuxSession multiplexes logical streams over one reliable byte
// connection. Construct with NewMuxClient (initiator) or NewMuxServer
// (acceptor); both sides run one reader and one writer goroutine.
type MuxSession struct {
	conn     io.ReadWriteCloser
	cfg      MuxConfig
	accepter bool

	mu      sync.Mutex
	streams map[uint32]*MuxStream
	nextID  uint32
	err     error
	closed  bool

	wmu     sync.Mutex
	wcond   *sync.Cond
	ring    []*MuxStream // round-robin ring of streams with pending frames
	wclosed bool

	accept chan *MuxStream
	done   chan struct{}
	wg     sync.WaitGroup

	active *telemetry.Gauge
	stall  *telemetry.Histogram
}

// MuxStream is one logical message stream of a session. Send and Recv
// are each safe for one goroutine at a time (the usual endpoint
// contract); different streams are fully independent.
type MuxStream struct {
	sess *MuxSession
	id   uint32

	inbox    chan *Message
	closedCh chan struct{} // closed exactly once when the stream dies

	// Initiator-side credit window (credited == true): Send blocks while
	// credit is zero; muxWindow frames from the peer refill it.
	cmu      sync.Mutex
	ccond    *sync.Cond
	credit   int
	credited bool
	dead     bool // guarded by cmu; set by markDead

	pending []muxFrame // guarded by sess.wmu
	inRing  bool       // guarded by sess.wmu

	granting  bool // acceptor side: Recv returns a credit to the peer
	closeOnce sync.Once
	retryMs   atomic.Int32 // >0 once rejected
}

func newMuxSession(conn io.ReadWriteCloser, cfg MuxConfig, accepter bool) *MuxSession {
	cfg = cfg.withDefaults()
	s := &MuxSession{
		conn:     conn,
		cfg:      cfg,
		accepter: accepter,
		streams:  make(map[uint32]*MuxStream),
		done:     make(chan struct{}),
		active:   cfg.Telemetry.Gauge("transport.streams_active"),
		stall:    cfg.Telemetry.Histogram("transport.stream_stall_ns"),
	}
	s.wcond = sync.NewCond(&s.wmu)
	if accepter {
		s.accept = make(chan *MuxStream, cfg.MaxStreams)
	}
	s.wg.Add(2)
	go s.readLoop()
	go s.writeLoop()
	return s
}

// NewMuxClient starts the initiator side of a session: OpenStream mints
// streams, each flow-controlled by cfg.Window.
func NewMuxClient(conn io.ReadWriteCloser, cfg MuxConfig) *MuxSession {
	return newMuxSession(conn, cfg, false)
}

// NewMuxServer starts the accepting side: streams the peer opens arrive
// at AcceptStream, at most cfg.MaxStreams concurrently.
func NewMuxServer(conn io.ReadWriteCloser, cfg MuxConfig) *MuxSession {
	return newMuxSession(conn, cfg, true)
}

// DialMux connects to addr over TCP and returns the initiator session.
func DialMux(addr string, cfg MuxConfig) (*MuxSession, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial mux %s: %w", addr, err)
	}
	return NewMuxClient(conn, cfg), nil
}

func (s *MuxSession) newStream(id uint32, credited bool) *MuxStream {
	st := &MuxStream{
		sess:     s,
		id:       id,
		inbox:    make(chan *Message, s.cfg.Window),
		closedCh: make(chan struct{}),
		credit:   s.cfg.Window,
		credited: credited,
		granting: !credited,
	}
	st.ccond = sync.NewCond(&st.cmu)
	s.active.Add(1)
	return st
}

// OpenStream mints a new flow-controlled stream (initiator side only).
func (s *MuxSession) OpenStream() (*MuxStream, error) {
	if s.accepter {
		return nil, fmt.Errorf("transport: OpenStream on accepting mux session")
	}
	s.mu.Lock()
	if s.closed {
		err := s.err
		s.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return nil, err
	}
	s.nextID++
	st := s.newStream(s.nextID, true)
	s.streams[st.id] = st
	s.mu.Unlock()
	return st, nil
}

// AcceptStream blocks until the peer opens a stream (acceptor side
// only), returning ErrClosed (or the session's transport error) once
// the session is down.
func (s *MuxSession) AcceptStream() (*MuxStream, error) {
	if !s.accepter {
		return nil, fmt.Errorf("transport: AcceptStream on initiating mux session")
	}
	select {
	case st := <-s.accept:
		return st, nil
	case <-s.done:
		s.mu.Lock()
		err := s.err
		s.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return nil, err
	}
}

// enqueue appends a built frame to st's pending queue and makes the
// stream ready for the round-robin writer.
func (s *MuxSession) enqueue(st *MuxStream, f muxFrame) error {
	s.wmu.Lock()
	if s.wclosed {
		s.wmu.Unlock()
		putFrameBuf(f.bp)
		return ErrClosed
	}
	st.pending = append(st.pending, f)
	if !st.inRing {
		st.inRing = true
		s.ring = append(s.ring, st)
	}
	s.wmu.Unlock()
	s.wcond.Signal()
	return nil
}

// buildFrame lays out `length | streamID | kind | payload` in a pooled
// buffer; payload space is returned for the caller to fill.
func buildFrame(id uint32, kind uint8, payloadLen int) (muxFrame, []byte) {
	bp := getFrameBuf(4 + muxHeaderBytes + payloadLen)
	buf := binary.LittleEndian.AppendUint32((*bp)[:0], uint32(muxHeaderBytes+payloadLen))
	buf = binary.LittleEndian.AppendUint32(buf, id)
	buf = append(buf, kind)
	return muxFrame{bp: bp}, buf
}

func (s *MuxSession) enqueueCtl(st *MuxStream, kind uint8, arg uint32) error {
	n := 0
	if kind == muxWindow || kind == muxReject {
		n = 4
	}
	f, buf := buildFrame(st.id, kind, n)
	if n == 4 {
		buf = binary.LittleEndian.AppendUint32(buf, arg)
	}
	*f.bp = buf
	return s.enqueue(st, f)
}

// writeLoop is the session's single writer: it drains one frame per
// ready stream in round-robin order, so concurrent streams interleave
// fairly on the wire.
func (s *MuxSession) writeLoop() {
	defer s.wg.Done()
	for {
		s.wmu.Lock()
		for len(s.ring) == 0 && !s.wclosed {
			s.wcond.Wait()
		}
		if len(s.ring) == 0 {
			s.wmu.Unlock()
			return
		}
		st := s.ring[0]
		s.ring = s.ring[1:]
		f := st.pending[0]
		st.pending = st.pending[1:]
		if len(st.pending) > 0 {
			s.ring = append(s.ring, st)
		} else {
			st.inRing = false
		}
		s.wmu.Unlock()
		_, err := s.conn.Write(*f.bp)
		putFrameBuf(f.bp)
		if err != nil {
			s.fail(fmt.Errorf("transport: mux write: %w", err))
			return
		}
	}
}

// readLoop is the session's single reader: it demultiplexes frames to
// their streams, materializes implicitly opened streams (or rejects
// them at MaxStreams), and applies credit grants.
func (s *MuxSession) readLoop() {
	defer s.wg.Done()
	var hdr [4 + muxHeaderBytes]byte
	for {
		if _, err := io.ReadFull(s.conn, hdr[:]); err != nil {
			s.fail(err)
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		if n < muxHeaderBytes || n > muxHeaderBytes+maxFrameBytes {
			s.fail(fmt.Errorf("transport: invalid mux frame length %d", n))
			return
		}
		id := binary.LittleEndian.Uint32(hdr[4:8])
		kind := hdr[8]
		payloadLen := int(n) - muxHeaderBytes
		var bp *[]byte
		var payload []byte
		if payloadLen > 0 {
			bp = getFrameBuf(payloadLen)
			payload = (*bp)[:payloadLen]
			if _, err := io.ReadFull(s.conn, payload); err != nil {
				putFrameBuf(bp)
				s.fail(fmt.Errorf("transport: mux read body: %w", err))
				return
			}
		}
		ok := s.dispatchFrame(id, kind, payload)
		if bp != nil {
			putFrameBuf(bp)
		}
		if !ok {
			return
		}
	}
}

// dispatchFrame routes one received frame; false means session-fatal.
func (s *MuxSession) dispatchFrame(id uint32, kind uint8, payload []byte) bool {
	switch kind {
	case muxData:
		st, rejected := s.streamForData(id)
		if rejected {
			return true
		}
		if st == nil {
			return true // stream already closed; drop quietly
		}
		n, err := declaredVals(payload)
		if err != nil {
			s.fail(fmt.Errorf("transport: mux decode: %w", err))
			return false
		}
		m := NewSizedMessage(n)
		if err := DecodeInto(m, payload); err != nil {
			Release(m)
			s.fail(fmt.Errorf("transport: mux decode: %w", err))
			return false
		}
		m.owner = ownerReceiver
		select {
		case st.inbox <- m:
		case <-st.closedCh:
			Release(m)
		case <-s.done:
			Release(m)
			return false
		}
	case muxWindow:
		if len(payload) != 4 {
			s.fail(fmt.Errorf("transport: mux window frame length %d", len(payload)))
			return false
		}
		if st := s.lookup(id); st != nil {
			st.grant(int(binary.LittleEndian.Uint32(payload)))
		}
	case muxClose:
		if st := s.lookup(id); st != nil {
			s.dropStream(st)
			st.markDead()
		}
	case muxReject:
		if len(payload) != 4 {
			s.fail(fmt.Errorf("transport: mux reject frame length %d", len(payload)))
			return false
		}
		if st := s.lookup(id); st != nil {
			ms := int32(binary.LittleEndian.Uint32(payload))
			if ms < 1 {
				ms = 1
			}
			st.retryMs.Store(ms)
			s.dropStream(st)
			st.markDead()
		}
	default:
		s.fail(fmt.Errorf("transport: unknown mux frame kind %d", kind))
		return false
	}
	return true
}

// streamForData resolves the stream for an incoming data frame,
// materializing it on the accepting side (implicit open) or rejecting
// it when the session is at MaxStreams.
func (s *MuxSession) streamForData(id uint32) (st *MuxStream, rejected bool) {
	s.mu.Lock()
	st = s.streams[id]
	if st != nil || !s.accepter || s.closed {
		s.mu.Unlock()
		return st, false
	}
	if len(s.streams) >= s.cfg.MaxStreams {
		s.mu.Unlock()
		// The rejected stream never existed here; answer on a transient
		// handle that shares only the wire ID.
		tmp := &MuxStream{sess: s, id: id}
		_ = s.enqueueCtl(tmp, muxReject, uint32(s.cfg.RetryAfter.Milliseconds()))
		return nil, true
	}
	st = s.newStream(id, false)
	s.streams[id] = st
	s.mu.Unlock()
	select {
	case s.accept <- st:
	case <-s.done:
	}
	return st, false
}

func (s *MuxSession) lookup(id uint32) *MuxStream {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streams[id]
}

func (s *MuxSession) dropStream(st *MuxStream) {
	s.mu.Lock()
	if _, ok := s.streams[st.id]; ok {
		delete(s.streams, st.id)
		s.active.Add(-1)
	}
	s.mu.Unlock()
}

// fail tears the session down with err: conn closed, writer woken,
// every stream unblocked.
func (s *MuxSession) fail(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if err != io.EOF {
		s.err = err
	}
	open := make([]*MuxStream, 0, len(s.streams))
	for _, st := range s.streams {
		open = append(open, st)
	}
	s.streams = make(map[uint32]*MuxStream)
	s.active.Add(-int64(len(open)))
	s.mu.Unlock()

	close(s.done)
	_ = s.conn.Close()
	s.wmu.Lock()
	s.wclosed = true
	for _, st := range open {
		for _, f := range st.pending {
			putFrameBuf(f.bp)
		}
		st.pending = nil
	}
	s.ring = nil
	s.wmu.Unlock()
	s.wcond.Broadcast()
	for _, st := range open {
		st.markDead()
	}
}

// Close shuts the session down: both goroutines exit, every stream's
// Recv returns ErrClosed, and queued frames are recycled.
func (s *MuxSession) Close() error {
	s.fail(nil)
	s.wg.Wait()
	return nil
}

// Err returns the session's terminal transport error (nil for a clean
// local Close or remote EOF).
func (s *MuxSession) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ID returns the stream's wire ID.
func (st *MuxStream) ID() uint32 { return st.id }

// Send encodes m as one data frame and queues it. On the initiator
// side it first takes a flow-control credit, blocking while the window
// is empty (the wait lands in transport.stream_stall_ns). The message
// is fully encoded before Send returns, so the caller keeps ownership
// of m (like a copying transport).
func (st *MuxStream) Send(m *Message) error {
	start := time.Now()
	waited := false
	st.cmu.Lock()
	if st.credited {
		for st.credit <= 0 && !st.dead {
			waited = true
			st.ccond.Wait()
		}
	}
	if st.dead {
		st.cmu.Unlock()
		return st.termErr()
	}
	if st.credited {
		st.credit--
	}
	st.cmu.Unlock()
	if waited {
		st.sess.stall.Observe(time.Since(start))
	}
	n := EncodedSize(m)
	if n > maxFrameBytes {
		return fmt.Errorf("transport: mux message of %d bytes exceeds frame limit %d", n, maxFrameBytes)
	}
	f, buf := buildFrame(st.id, muxData, n)
	buf = Encode(buf, m)
	*f.bp = buf
	return st.sess.enqueue(st, f)
}

// Recv returns the next message on the stream (pooled, receiver-owned:
// release with ReleaseReceived). On the accepting side it returns one
// flow-control credit to the peer. A rejected stream returns
// *MuxRejectedError; a closed stream or session returns ErrClosed or
// the session's transport error.
func (st *MuxStream) Recv() (*Message, error) {
	select {
	case m := <-st.inbox:
		if st.granting {
			_ = st.sess.enqueueCtl(st, muxWindow, 1)
		}
		return m, nil
	case <-st.closedCh:
	}
	// The stream died, but messages delivered before the close are still
	// readable — drain them before reporting termination.
	select {
	case m := <-st.inbox:
		return m, nil
	default:
		return nil, st.termErr()
	}
}

// Close retires the stream: the peer sees muxClose, and both sides
// forget the ID.
func (st *MuxStream) Close() error {
	st.sess.dropStream(st)
	_ = st.sess.enqueueCtl(st, muxClose, 0)
	st.markDead()
	return nil
}

// markDead terminates the stream exactly once: credit waiters wake,
// Recv observes closedCh, delivered-but-unread pooled messages are left
// to the garbage collector (safe per the pool contract).
func (st *MuxStream) markDead() {
	st.closeOnce.Do(func() {
		st.cmu.Lock()
		st.dead = true
		st.cmu.Unlock()
		st.ccond.Broadcast()
		close(st.closedCh)
	})
}

func (st *MuxStream) termErr() error {
	if ms := st.retryMs.Load(); ms > 0 {
		return &MuxRejectedError{RetryAfter: time.Duration(ms) * time.Millisecond}
	}
	if st.sess != nil {
		if err := st.sess.Err(); err != nil {
			return err
		}
	}
	return ErrClosed
}

// grant refills the send window by n and wakes blocked senders.
func (st *MuxStream) grant(n int) {
	st.cmu.Lock()
	st.credit += n
	st.cmu.Unlock()
	st.ccond.Broadcast()
}
