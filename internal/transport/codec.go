package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

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
// cannot make a reader allocate unbounded memory. WriteFrame enforces the
// same bound on the send side.
const maxFrameBytes = 64 << 20

// MaxFrameBytes is the largest encoded message a stream transport will
// send or accept. Callers splitting huge pushes should stay under it.
const MaxFrameBytes = maxFrameBytes

// EncodedSize returns the exact number of bytes Encode will produce for m.
func EncodedSize(m *Message) int {
	return headerBytes + 4*len(m.Keys) + 8*len(m.Vals)
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
	return appendVals(appendHead(buf, m), m.Vals)
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
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Vals)))
	for _, k := range m.Keys {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
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

// Framing moves the float payload without a staging copy: WriteFrame
// encodes only the length prefix, the header, and the keys into a small
// pooled buffer and hands the memory of m.Vals to the writer; ReadFrame
// reads the payload straight into the pooled message's Vals. On a
// little-endian host the wire bytes of a []float64 are its memory
// (vals_le.go); elsewhere a build constraint selects the portable
// helpers below, which stage the payload through a frame buffer one
// element at a time (vals_portable.go). Either way the bytes on the wire
// are exactly len ‖ Encode(m).
//
// WriteFrame only reads m, and only until it returns — the ownership
// rule of a copying Send (SendCopies) is unchanged: the sender must not
// mutate m.Vals while Send runs, and may reuse m once it returns.

// WriteFrame writes m to w with a uint32 length prefix. Messages larger
// than MaxFrameBytes are rejected before a single byte is written: the
// receive side enforces the same bound, so shipping an oversized frame
// would poison the peer's stream mid-connection instead of failing the
// one offending send.
//
// The frame leaves in two Writes (head, then payload). Callers that want
// one segment per small frame wrap w in a bufio.Writer, as TCPEndpoint
// does; a payload larger than the bufio buffer bypasses it.
func WriteFrame(w io.Writer, m *Message) error {
	n := EncodedSize(m)
	if n > maxFrameBytes {
		return fmt.Errorf("transport: message of %d bytes exceeds frame limit %d (keys=%d vals=%d)",
			n, maxFrameBytes, len(m.Keys), len(m.Vals))
	}
	bp := getFrameBuf(4 + headerBytes + 4*len(m.Keys))
	head := binary.LittleEndian.AppendUint32((*bp)[:0], uint32(n))
	head = appendHead(head, m)
	_, err := w.Write(head)
	*bp = head
	putFrameBuf(bp)
	if err == nil && len(m.Vals) > 0 {
		err = writeVals(w, m.Vals)
	}
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
	m := NewMessage()
	if err := readBody(r, m, bp, n); err != nil {
		Release(m)
		return nil, err
	}
	m.owner = ownerReceiver
	return m, nil
}

// readBody reads the n-byte encoding of one message from r into m.
func readBody(r io.Reader, m *Message, scratch *[]byte, n uint32) error {
	hdr := (*scratch)[:headerBytes]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("transport: read frame header: %w", err)
	}
	numKeys, numVals, err := decodeHeader(m, hdr, uint64(n))
	if err != nil {
		return err
	}
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
