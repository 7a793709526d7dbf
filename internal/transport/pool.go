package transport

import (
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/fluentps/fluentps/internal/keyrange"
)

// Message pooling.
//
// The push/pull hot path creates one Message per server per operation and
// one response per request; without reuse that is four allocations (struct,
// Keys, Vals, frame buffer) per message at steady state. The pool removes
// them, at the cost of an explicit ownership discipline:
//
//   - NewMessage returns a pooled message OWNED BY ITS CREATOR. The creator
//     must eventually call Release exactly once, after the message is
//     provably out of every queue and handler (for a worker request: after
//     the matching response arrived; for a server response sent over a
//     copying transport: right after Send returns).
//   - A pooled message exclusively owns the backing arrays of its Keys and
//     Vals slices. Fill them with append(m.Keys[:0], ...) — never alias a
//     shared slice into a pooled message, and never retain m.Keys/m.Vals
//     past the message's release.
//   - Ownership can be handed to the receiver: SendOwned transfers a
//     creator-owned message to whoever drains it from Endpoint.Recv when the
//     transport delivers pointers (ChanNetwork), or releases it immediately
//     after Send when the transport copies (TCP encodes the frame). The
//     receiving side calls ReleaseReceived on every message it is done
//     with; it recycles exactly the messages whose ownership reached the
//     receiver (TCP-decoded frames and handed-off pointers) and is a no-op
//     on everything else, so plain &Message{} literals and still
//     sender-owned messages pass through untouched.
//
// Both Release and ReleaseReceived are nil-safe no-ops on non-pooled
// messages, so call sites need no knowledge of where a message came from.

// Ownership states of a pooled message.
const (
	// ownerNone marks a plain, non-pooled message; releases are no-ops.
	ownerNone uint8 = iota
	// ownerSender: the creator (NewMessage caller) releases it.
	ownerSender
	// ownerReceiver: the consumer draining it from Recv releases it.
	ownerReceiver
)

// Messages are pooled by the size class of their payload array, so a
// recycled 1 MiB Vals serves the next 1 MiB frame instead of drifting
// into an ack while a payload-bearing Get regrows from nil. Class 0 holds
// payload-free messages (cap(Vals) = 0); class c ≥ 1 holds messages with
// 2^(c-1) ≤ cap(Vals) < 2^c, except the last class, which holds every
// capacity from its floor up. A Get for n values draws from the smallest
// class whose every member holds n, and a miss there allocates the
// class's floor capacity — so a recycled message always serves the class
// it is filed under.
const numPoolClasses = 26 // floors up to 2^24 values, twice MaxFrameBytes

var msgPools [numPoolClasses]sync.Pool

func init() {
	for c := range msgPools {
		floor := 0
		if c > 0 {
			floor = 1 << (c - 1)
		}
		msgPools[c].New = func() any {
			msgPoolMisses.Add(1)
			return &Message{Vals: make([]float64, 0, floor)}
		}
	}
}

// needClass returns the smallest class every member of which holds n
// values, or numPoolClasses when no class does.
func needClass(n int) int {
	if n == 0 {
		return 0
	}
	return bits.Len(uint(n-1)) + 1
}

// holdClass returns the class a message whose Vals has capacity c is
// filed under.
func holdClass(c int) int {
	return min(bits.Len(uint(c)), numPoolClasses-1)
}

// Pool telemetry: Gets counts every NewMessage/NewSizedMessage, Misses
// the ones the pool could not satisfy from recycled storage (each miss is
// a fresh struct with a class-floor Vals array and Keys that regrow from
// nil). hit rate = 1 − Misses/Gets. Two
// relaxed atomic adds per message keep the accounting always-on without
// measurable hot-path cost.
var (
	msgPoolGets   atomic.Uint64
	msgPoolMisses atomic.Uint64
)

// MessagePoolStats reports how many pooled messages were requested and
// how many requests missed the pool since process start, summed over
// every size class.
func MessagePoolStats() (gets, misses uint64) {
	return msgPoolGets.Load(), msgPoolMisses.Load()
}

// NewMessage returns an empty, payload-free pooled message owned by the
// caller. Its Keys slice keeps the capacity of its previous use — fill it
// with append(m.Keys[:0], ...) to reuse the backing array. A message
// whose Vals will carry a payload should come from NewSizedMessage.
func NewMessage() *Message { return NewSizedMessage(0) }

// NewSizedMessage returns an empty pooled message owned by the caller
// whose Vals can hold n values without growing: fill it with
// append(m.Vals[:0], ...) or resize it within its capacity.
func NewSizedMessage(n int) *Message {
	msgPoolGets.Add(1)
	var m *Message
	if c := needClass(n); c < numPoolClasses {
		m = msgPools[c].Get().(*Message)
	} else {
		msgPoolMisses.Add(1)
		m = &Message{Vals: make([]float64, 0, n)}
	}
	m.owner = ownerSender
	return m
}

// Release recycles a creator-owned pooled message. It must only be called
// by the message's creator, after no queue, timer, or handler can still
// reference it. No-op on nil and non-pooled messages.
func Release(m *Message) {
	if m == nil || m.owner != ownerSender {
		return
	}
	recycle(m)
}

// ReleaseReceived recycles a message obtained from Endpoint.Recv whose
// ownership was transferred to the receiver: TCP-decoded frames and
// messages sent with SendOwned over a pointer-delivering transport. No-op
// on nil, non-pooled, and still sender-owned messages, so receive loops
// can call it unconditionally on every message they finish with.
func ReleaseReceived(m *Message) {
	if m == nil || m.owner != ownerReceiver {
		return
	}
	recycle(m)
}

func recycle(m *Message) {
	m.Type = 0
	m.From = NodeID{}
	m.To = NodeID{}
	m.Seq = 0
	m.Progress = 0
	m.View = 0
	m.Keys = m.Keys[:0]
	m.Vals = m.Vals[:0]
	// A pooled message must never pin the memory its segments borrowed.
	clear(m.Segs)
	m.Segs = m.Segs[:0]
	m.owner = ownerNone
	atomic.StoreUint32(&m.aborted, 0)
	msgPools[holdClass(cap(m.Vals))].Put(m)
}

// ReceiverOwned reports whether the receiver of this message is
// responsible for releasing it — i.e. whether the apply loop draining it
// from Recv will recycle it after handling. Handlers that retain the
// message's Keys or Vals past their return must copy when this is true.
func (m *Message) ReceiverOwned() bool { return m.owner == ownerReceiver }

// Clone returns a deep, non-pooled copy of m with Segs flattened into
// Vals. Fault injectors and other wrappers that re-deliver a message
// later must clone it, because the original may be recycled by its owner
// — and its borrowed segments handed back — as soon as the first
// delivery is processed.
func (m *Message) Clone() *Message {
	c := &Message{}
	copyHead(c, m)
	if len(m.Keys) > 0 {
		c.Keys = append(make([]keyrange.Key, 0, len(m.Keys)), m.Keys...)
	}
	if n := m.numVals(); n > 0 {
		c.Vals = appendFlat(make([]float64, 0, n), m)
	}
	return c
}

// appendFlat appends m's whole payload — Vals, then each of Segs — to dst.
func appendFlat(dst []float64, m *Message) []float64 {
	dst = append(dst, m.Vals...)
	for _, s := range m.Segs {
		dst = append(dst, s...)
	}
	return dst
}

// flatten returns a pooled, creator-owned copy of m whose Vals hold m's
// whole payload: the form a message takes before it outlives the Send
// call that lent its segments.
func flatten(m *Message) *Message {
	c := NewSizedMessage(m.numVals())
	copyHead(c, m)
	c.Keys = append(c.Keys[:0], m.Keys...)
	c.Vals = appendFlat(c.Vals[:0], m)
	return c
}

// Copier is implemented by endpoints whose Send fully copies the message
// before returning (e.g. TCP, which encodes it into a frame). On such
// transports a sender may mutate or release a message as soon as Send
// returns; on pointer-delivering transports (ChanNetwork) the receiver
// owns the pointer until it is done handling it.
type Copier interface {
	// SendCopies reports whether Send copies the message before returning.
	SendCopies() bool
}

// SendCopies reports whether ep's Send copies messages. Endpoints that do
// not implement Copier are assumed to deliver pointers.
func SendCopies(ep Endpoint) bool {
	c, ok := ep.(Copier)
	return ok && c.SendCopies()
}

// SendOwned sends a creator-owned pooled message and disposes of it
// according to the transport's delivery semantics: released immediately
// when Send copies, ownership handed to the receiving consumer when Send
// delivers the pointer. The caller must not touch m afterwards. This is
// the one-shot send for responses and acks; requests that may need
// retransmission must keep ownership and use plain Send + a later Release.
// Segments m borrows are read only until SendOwned returns: a
// pointer-delivering transport gets a flattened copy, and m is released.
func SendOwned(ep Endpoint, m *Message) error {
	if m.owner != ownerSender {
		return ep.Send(m)
	}
	if SendCopies(ep) {
		err := ep.Send(m)
		Release(m)
		return err
	}
	if len(m.Segs) > 0 {
		c := flatten(m)
		Release(m)
		m = c
	}
	// Hand off before Send: once the pointer is in the peer's queue the
	// receiver may drain and recycle it at any moment.
	m.owner = ownerReceiver
	return ep.Send(m)
}

// SendRetained sends a creator-owned pooled message while the caller KEEPS
// ownership — the send for requests that may be retransmitted and are
// released by their creator once the operation completes. On a copying
// transport the message itself goes out (the frame encoder reads it
// synchronously, so the sender and receiver never share memory). On a
// pointer-delivering transport a pooled receiver-owned copy, Segs
// flattened into Vals, is sent instead: the receiver's release discipline
// applies to the copy, and m — with whatever its segments borrow — never
// escapes its creator or outlives the call. Failed or dropped copies are
// left to the garbage collector, consistent with every other fault path.
func SendRetained(ep Endpoint, m *Message) error { return ep.Send(Retained(ep, m)) }

// Retained returns the message SendRetained hands to ep.Send: m itself
// on a copying transport, otherwise its receiver-owned flattened copy.
// When it returns a copy, nothing reads m's segments any more — a lender
// whose Send may block behind a full queue can take them back before the
// send completes.
func Retained(ep Endpoint, m *Message) *Message {
	if m.owner != ownerSender || SendCopies(ep) {
		return m
	}
	c := flatten(m)
	c.owner = ownerReceiver
	return c
}

// ErrAborted is returned by a Send that Abort cut short.
var ErrAborted = errors.New("transport: send aborted")

// Aborter is implemented by copying endpoints whose Send of a message
// that borrows segments can be cut short from another goroutine (TCP:
// a write blocked on a peer that stopped reading, or a redial).
type Aborter interface {
	// Abort makes every Send of m that has not finished writing fail
	// with ErrAborted instead of reading m's segments any further. It
	// reports whether m is free at once: false means a frame of m was
	// mid-write; that write is being torn down and its Send returns
	// promptly, so the caller waits for it before reusing the segments.
	// A frame cut mid-write never reaches the peer whole.
	Abort(m *Message) bool
}

// Abort cuts short the Sends of m on ep (see Aborter) and reports whether
// m's segments are free at once. It reports false, leaving the sends to
// finish, when ep cannot abort — wrappers such as Flaky read m outside
// the inner Send, so the capability is not looked up through them.
func Abort(ep Endpoint, m *Message) bool {
	a, ok := ep.(Aborter)
	return ok && a.Abort(m)
}

// Frame buffer pooling: WriteFrame and ReadFrame stage every frame through
// a pooled byte slice, so steady-state framing allocates nothing.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getFrameBuf(n int) *[]byte {
	bp := framePool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	return bp
}

func putFrameBuf(bp *[]byte) {
	*bp = (*bp)[:0]
	framePool.Put(bp)
}
