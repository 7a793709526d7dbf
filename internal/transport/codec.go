package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"github.com/fluentps/fluentps/internal/keyrange"
)

// Wire format (little-endian):
//
//	type     uint8
//	fromRole uint8
//	fromRank uint16
//	toRole   uint8
//	toRank   uint16
//	seq      uint64
//	progress int32
//	view     uint32
//	numKeys  uint32
//	numVals  uint32
//	keys     numKeys × uint32
//	vals     numVals × float64 (IEEE-754 bits)
//
// Framing on stream transports prefixes each encoded message with a uint32
// length.
const headerBytes = 1 + 1 + 2 + 1 + 2 + 8 + 4 + 4 + 4 + 4

// maxFrameBytes bounds a single message (64 MiB) so a corrupt length prefix
// cannot make a reader allocate unbounded memory. Frame writers enforce
// the same bound on the send side.
const maxFrameBytes = 64 << 20

// MaxFrameBytes is the largest encoded message a stream transport will
// send or accept. Callers splitting huge pushes should stay under it.
const MaxFrameBytes = maxFrameBytes

// EncodedSize returns the exact number of bytes Encode will produce for m.
func EncodedSize(m *Message) int {
	return headerBytes + 4*len(m.Keys) + 8*m.numVals()
}

// Encode appends the wire encoding of m to buf and returns the extended
// slice. Pass a reused buffer to avoid allocation on hot paths.
func Encode(buf []byte, m *Message) []byte {
	need := EncodedSize(m)
	if cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	return appendPayload(appendHead(buf, m), m)
}

// appendHead appends everything of m's encoding that precedes the float
// payload: the fixed header and the keys.
func appendHead(buf []byte, m *Message) []byte {
	buf = append(buf, byte(m.Type), byte(m.From.Role))
	buf = binary.LittleEndian.AppendUint16(buf, m.From.Rank)
	buf = append(buf, byte(m.To.Role))
	buf = binary.LittleEndian.AppendUint16(buf, m.To.Rank)
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Progress))
	buf = binary.LittleEndian.AppendUint32(buf, m.View)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Keys)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.numVals()))
	for _, k := range m.Keys {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
	}
	return buf
}

// appendPayload appends m's whole float payload: Vals, then each of Segs.
func appendPayload(buf []byte, m *Message) []byte {
	buf = appendVals(buf, m.Vals)
	for _, s := range m.Segs {
		buf = appendVals(buf, s)
	}
	return buf
}

// appendVals appends the float payload: each value's IEEE-754 bits,
// little-endian.
func appendVals(buf []byte, vals []float64) []byte {
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// Decode parses one message from data, which must contain exactly one
// encoded message. The returned message is freshly allocated (not pooled);
// hot paths decode into reused storage with DecodeInto instead.
func Decode(data []byte) (*Message, error) {
	m := &Message{}
	if err := DecodeInto(m, data); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses one message from data into m, reusing m's Keys/Vals
// backing arrays when they have capacity. On error m is left in an
// unspecified state. data must contain exactly one encoded message.
func DecodeInto(m *Message, data []byte) error {
	if len(data) < headerBytes {
		return fmt.Errorf("transport: short message: %d bytes", len(data))
	}
	numKeys, numVals, err := decodeHeader(m, data, uint64(len(data)))
	if err != nil {
		return err
	}
	m.Keys = resize(m.Keys, numKeys)
	decodeKeys(m.Keys, data[headerBytes:])
	m.Vals = resize(m.Vals, numVals)
	decodeVals(m.Vals, data[headerBytes+4*numKeys:])
	return nil
}

// declaredVals returns the value count the encoded message in data
// declares, after the same length checks DecodeInto makes, so a receive
// path can size its pooled message before decoding into it.
func declaredVals(data []byte) (int, error) {
	if len(data) < headerBytes {
		return 0, fmt.Errorf("transport: short message: %d bytes", len(data))
	}
	var head Message
	_, numVals, err := decodeHeader(&head, data, uint64(len(data)))
	return numVals, err
}

// copyHead copies the fixed-header fields of src into dst.
func copyHead(dst, src *Message) {
	dst.Type, dst.From, dst.To, dst.Seq, dst.Progress, dst.View = src.Type, src.From, src.To, src.Seq, src.Progress, src.View
}

// decodeHeader parses the fixed header (the first headerBytes of hdr)
// into m and returns the key and value counts. The counts are
// attacker-controlled, so they are checked against the message length n
// in 64-bit arithmetic before the caller sizes anything with them.
func decodeHeader(m *Message, hdr []byte, n uint64) (numKeys, numVals int, err error) {
	m.Type = MsgType(hdr[0])
	m.From = NodeID{Role: Role(hdr[1]), Rank: binary.LittleEndian.Uint16(hdr[2:])}
	m.To = NodeID{Role: Role(hdr[4]), Rank: binary.LittleEndian.Uint16(hdr[5:])}
	m.Seq = binary.LittleEndian.Uint64(hdr[7:])
	m.Progress = int32(binary.LittleEndian.Uint32(hdr[15:]))
	m.View = binary.LittleEndian.Uint32(hdr[19:])
	nk := binary.LittleEndian.Uint32(hdr[23:])
	nv := binary.LittleEndian.Uint32(hdr[27:])
	if want := headerBytes + 4*uint64(nk) + 8*uint64(nv); n != want {
		return 0, 0, fmt.Errorf("transport: message length %d, want %d (keys=%d vals=%d)", n, want, nk, nv)
	}
	return int(nk), int(nv), nil
}

// resize returns s with n elements, reusing the backing array when it
// has capacity. A nil slice stays nil at n = 0, so non-pooled decodes
// stay canonical.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func decodeKeys(keys []keyrange.Key, data []byte) {
	for i := range keys {
		keys[i] = keyrange.Key(binary.LittleEndian.Uint32(data[4*i:]))
	}
}

func decodeVals(vals []float64, data []byte) {
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
}

// Framing moves the float payload without a staging copy beyond its
// first 4 KiB: a frameWriter (tcp.go) copies a frame that fits its
// staging buffer whole, and of a larger one stages the length prefix, the
// header, the keys and the first payload values, then writes the rest of
// m.Vals and of each of m.Segs from their own memory; ReadFrame reads the payload straight into the pooled message's
// Vals. On a little-endian host the wire bytes of a []float64 are its
// memory (vals_le.go); elsewhere a build constraint selects the portable
// helpers below, which stage the payload through a frame buffer one
// element at a time (vals_portable.go). Either way the bytes on the wire
// are exactly len ‖ Encode(m).
//
// WriteFrame only reads m, and only until it returns — the ownership
// rule of a copying Send (SendCopies) is unchanged: the sender must not
// mutate m.Vals or the segments of m.Segs while Send runs, and may reuse
// them once it returns.

// checkFrameSize returns m's encoded size, or an error when it exceeds
// MaxFrameBytes.
func checkFrameSize(m *Message) (int, error) {
	n := EncodedSize(m)
	if n > maxFrameBytes {
		return 0, fmt.Errorf("transport: message of %d bytes exceeds frame limit %d (keys=%d vals=%d)",
			n, maxFrameBytes, len(m.Keys), m.numVals())
	}
	return n, nil
}

// frameWriters serves WriteFrame the writer a TCP connection owns, so
// both write a frame the same way and steady-state framing allocates
// nothing.
var frameWriters = sync.Pool{New: func() any { return newFrameWriter() }}

// WriteFrame writes m to w with a uint32 length prefix, exactly as a
// TCPEndpoint writes it to a connection: a frame that fits 4 KiB leaves
// in one Write, a larger one as a 4 KiB Write followed by one vectored
// write of the rest (on a plain io.Writer, one Write per piece). Messages larger than MaxFrameBytes are rejected
// before a single byte is written: the receive side enforces the same
// bound, so shipping an oversized frame would poison the peer's stream
// mid-connection instead of failing the one offending send.
func WriteFrame(w io.Writer, m *Message) error {
	n, err := checkFrameSize(m)
	if err != nil {
		return err
	}
	fw := frameWriters.Get().(*frameWriter)
	err = fw.writeSized(w, m, n)
	frameWriters.Put(fw)
	if err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed message from r. It returns io.EOF
// unwrapped when the stream ends cleanly at a frame boundary.
//
// The returned message is pooled and owned by the receiver: the consumer
// that finishes handling it should call ReleaseReceived to recycle it
// (dropping it to the garbage collector is safe but wastes the pool).
func ReadFrame(r io.Reader) (*Message, error) {
	// Length, header, and keys go through a pooled scratch buffer: a
	// local array handed to io.ReadFull would escape to the heap, one
	// allocation per frame.
	bp := getFrameBuf(4 + headerBytes)
	defer putFrameBuf(bp)
	lenbuf := (*bp)[:4]
	if _, err := io.ReadFull(r, lenbuf); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("transport: read frame length: %w", err)
	}
	n := binary.LittleEndian.Uint32(lenbuf)
	if n < headerBytes || n > maxFrameBytes {
		return nil, fmt.Errorf("transport: invalid frame length %d", n)
	}
	hdr := (*bp)[:headerBytes]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("transport: read frame header: %w", err)
	}
	// The header is checked against the frame length before its counts
	// size anything; the payload count then picks the pool size class.
	var head Message
	numKeys, numVals, err := decodeHeader(&head, hdr, uint64(n))
	if err != nil {
		return nil, err
	}
	m := NewSizedMessage(numVals)
	copyHead(m, &head)
	if err := readBody(r, m, bp, numKeys, numVals); err != nil {
		Release(m)
		return nil, err
	}
	m.owner = ownerReceiver
	return m, nil
}

// readBody reads the keys and the payload of one message from r into m.
func readBody(r io.Reader, m *Message, scratch *[]byte, numKeys, numVals int) error {
	m.Keys = resize(m.Keys, numKeys)
	if numKeys > 0 {
		if cap(*scratch) < 4*numKeys {
			*scratch = make([]byte, 0, 4*numKeys)
		}
		raw := (*scratch)[:4*numKeys]
		if _, err := io.ReadFull(r, raw); err != nil {
			return fmt.Errorf("transport: read frame keys: %w", err)
		}
		decodeKeys(m.Keys, raw)
	}
	m.Vals = resize(m.Vals, numVals)
	if numVals > 0 {
		if err := readVals(r, m.Vals); err != nil {
			return fmt.Errorf("transport: read frame payload: %w", err)
		}
	}
	return nil
}

// writeValsPortable writes the wire encoding of vals (little-endian
// IEEE-754 bits) to w through a pooled staging buffer. It is the payload
// writer on hosts whose float64 memory is not already that encoding, and
// the reference the tests hold the zero-copy writer to.
func writeValsPortable(w io.Writer, vals []float64) error {
	bp := getFrameBuf(8 * len(vals))
	buf := appendVals((*bp)[:0], vals)
	_, err := w.Write(buf)
	*bp = buf
	putFrameBuf(bp)
	return err
}

// readValsPortable fills vals from their wire encoding on r; the
// counterpart of writeValsPortable.
func readValsPortable(r io.Reader, vals []float64) error {
	bp := getFrameBuf(8 * len(vals))
	defer putFrameBuf(bp)
	buf := (*bp)[:8*len(vals)]
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	decodeVals(vals, buf)
	return nil
}
