package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzDecode: arbitrary bytes must never panic the codec; valid messages
// must re-encode to the same bytes.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(Encode(nil, sampleMessage()))
	f.Add(Encode(nil, &Message{Type: MsgShutdown, From: Scheduler(), To: Worker(9)}))
	f.Add(Encode(nil, &Message{Type: MsgPull, From: Worker(1), To: Server(0), Seq: 1 << 63, Progress: -1}))
	f.Add(Encode(nil, &Message{Type: MsgPush, From: Worker(65535), To: Server(65535), Progress: -2147483648}))
	f.Add(bytes.Repeat([]byte{0xFF}, headerBytes))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		round := Encode(nil, m)
		ReleaseReceived(m)
		if !bytes.Equal(round, data) {
			t.Fatalf("decode/encode not idempotent:\n in  %x\n out %x", data, round)
		}
	})
}

// FuzzReadFrame is differential: on every frame of an arbitrary stream
// ReadFrame must accept exactly what Decode accepts on the frame's body,
// yield the identical message, and consume exactly the frame — so the
// streaming reader (which sizes and fills Keys/Vals as it goes) can
// never drift from the reference decoder. Rejections must not panic,
// over-allocate, or loop.
func FuzzReadFrame(f *testing.F) {
	frame := func(n uint32, body []byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, n), body...)
	}
	good := Encode(nil, sampleMessage())
	f.Add(frame(uint32(len(good)), good))
	f.Add(append(frame(uint32(len(good)), good), frame(uint32(len(good)), good)...))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{4, 0, 0, 0, 1, 2, 3, 4})
	// Boundary lengths: exactly headerBytes (minimal valid), one short of
	// it, exactly maxFrameBytes (no key/value counts can add up to it, so
	// it dies at the count check, before anything is sized), one past it.
	minimal := make([]byte, headerBytes)
	minimal[0] = byte(MsgHeartbeat)
	f.Add(frame(headerBytes, minimal))
	f.Add(frame(headerBytes-1, nil))
	f.Add(frame(maxFrameBytes, minimal))
	f.Add(frame(maxFrameBytes+1, nil))
	// A header whose numVals claims more than the frame length holds.
	lying := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(lying[27:], 1<<30)
	f.Add(frame(uint32(len(lying)), lying))
	// The stream ends in the middle of Vals, and in the middle of Keys.
	f.Add(frame(uint32(len(good)), good[:len(good)-9]))
	f.Add(frame(uint32(len(good)), good[:headerBytes+5]))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for rest := data; ; {
			got, err := ReadFrame(r)
			var want *Message
			var n int
			if len(rest) >= 4 {
				n = int(binary.LittleEndian.Uint32(rest))
				if n >= headerBytes && n <= maxFrameBytes && len(rest)-4 >= n {
					want, _ = Decode(rest[4 : 4+n])
				}
			}
			if want == nil {
				if err == nil {
					t.Fatalf("ReadFrame accepted a frame Decode rejects: %x", rest)
				}
				if len(rest) == 0 && err != io.EOF {
					t.Fatalf("clean end of stream reported as %v, want io.EOF", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("ReadFrame rejected a frame Decode accepts: %v\n%x", err, rest[:4+n])
			}
			if !sameMessage(got, want) {
				t.Fatalf("ReadFrame and Decode disagree:\n got  %+v\n want %+v", got, want)
			}
			if !got.ReceiverOwned() {
				t.Fatal("ReadFrame must hand the message to the receiver")
			}
			ReleaseReceived(got)
			rest = rest[4+n:]
			if r.Len() != len(rest) {
				t.Fatalf("after a %d-byte frame the reader has %d bytes left, want %d", 4+n, r.Len(), len(rest))
			}
		}
	})
}
