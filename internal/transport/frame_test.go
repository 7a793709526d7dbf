package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"github.com/fluentps/fluentps/internal/keyrange"
)

// frameCases are the shapes the frame path treats differently: no body
// at all, head only, payload only, both, and a payload far larger than
// any bufio buffer.
func frameCases() map[string]*Message {
	rng := rand.New(rand.NewSource(7))
	big := make([]float64, 1<<17) // 1 MiB of payload
	for i := range big {
		big[i] = math.Float64frombits(rng.Uint64()) // every bit pattern, NaNs included
	}
	return map[string]*Message{
		"empty":     {Type: MsgHeartbeat, From: Worker(2), To: Scheduler(), Seq: 9, Progress: -1, View: 3},
		"keys-only": {Type: MsgPull, From: Worker(1), To: Server(0), Seq: 7, Keys: []keyrange.Key{2, 40, 41}},
		"vals-only": {Type: MsgSetCond, From: Worker(100), To: Server(1), Seq: 1, Vals: []float64{1.5, math.Inf(-1), -0.0}},
		"sample":    sampleMessage(),
		"1MiB":      {Type: MsgPush, From: Worker(0), To: Server(1), Seq: 1 << 40, Progress: 12, View: 2, Keys: []keyrange.Key{0, 1, 2, 3}, Vals: big},
	}
}

// TestWriteFrameGoldenBytes: the frame on the wire is byte for byte the
// length prefix followed by Encode(m) — the zero-copy path changed how
// the bytes are produced, never which bytes.
func TestWriteFrameGoldenBytes(t *testing.T) {
	for name, m := range frameCases() {
		body := Encode(nil, m)
		want := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
		want = append(want, body...)
		var got bytes.Buffer
		if err := WriteFrame(&got, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: frame differs from len ‖ Encode(m) (%d vs %d bytes)", name, got.Len(), len(want))
		}
		back, err := ReadFrame(&got)
		if err != nil {
			t.Fatalf("%s: read back: %v", name, err)
		}
		if !sameMessage(back, m) {
			t.Errorf("%s: read back a different message", name)
		}
		ReleaseReceived(back)
	}
}

// TestValsHelpersAgree holds the payload helpers this platform selected
// (zero-copy on little-endian hosts) to the portable ones every other
// platform runs: same bytes out, same floats in.
func TestValsHelpersAgree(t *testing.T) {
	for name, m := range frameCases() {
		var fast, portable bytes.Buffer
		if err := writeVals(&fast, m.Vals); err != nil {
			t.Fatal(err)
		}
		if err := writeValsPortable(&portable, m.Vals); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fast.Bytes(), portable.Bytes()) {
			t.Errorf("%s: writeVals and writeValsPortable produce different bytes", name)
		}
		a, b := make([]float64, len(m.Vals)), make([]float64, len(m.Vals))
		if err := readVals(bytes.NewReader(portable.Bytes()), a); err != nil {
			t.Fatal(err)
		}
		if err := readValsPortable(bytes.NewReader(fast.Bytes()), b); err != nil {
			t.Fatal(err)
		}
		for i, v := range m.Vals {
			if want := math.Float64bits(v); math.Float64bits(a[i]) != want || math.Float64bits(b[i]) != want {
				t.Fatalf("%s: value %d read back as %x / %x, want %x", name, i, math.Float64bits(a[i]), math.Float64bits(b[i]), want)
			}
		}
	}
}

// TestReadFrameReleasesOnTruncatedPayload: a stream that dies mid-Vals
// is an error, and the half-filled pooled message goes back to the pool
// instead of leaking to the collector once per broken connection.
func TestReadFrameReleasesOnTruncatedPayload(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; miss counts are meaningless")
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, frameCases()["1MiB"]); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadFrame(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated payload must error")
	}
	_, before := MessagePoolStats()
	for i := 0; i < 50; i++ {
		if _, err := ReadFrame(bytes.NewReader(cut)); err == nil {
			t.Fatal("truncated payload must error")
		}
	}
	if _, after := MessagePoolStats(); after-before > 5 {
		t.Errorf("50 failed reads missed the message pool %d times: the failed message is not released", after-before)
	}
}

// TestTCPLargeFrameBitExact: a 1 MiB push and the 1 MiB pull response
// cross two real TCP endpoints with every bit intact. Run under -race:
// the sender's Vals are read by the socket write with no copy in between.
func TestTCPLargeFrameBitExact(t *testing.T) {
	a, b := startTCPPair(t)
	push := frameCases()["1MiB"]
	push.From, push.To = NodeID{}, Server(0)
	for round := 0; round < 3; round++ {
		if err := a.Send(push); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		push.From = Worker(0) // Send stamped it
		if !sameMessage(got, push) {
			t.Fatal("1 MiB push arrived altered")
		}
		// Answer from the received message's own storage, as a server
		// echoing parameters would, then recycle it.
		resp := NewMessage()
		resp.Type, resp.To, resp.Seq = MsgPullResp, got.From, got.Seq
		resp.Vals = append(resp.Vals[:0], got.Vals...)
		ReleaseReceived(got)
		if err := SendOwned(b, resp); err != nil {
			t.Fatal(err)
		}
		back, err := a.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if back.Type != MsgPullResp || len(back.Vals) != len(push.Vals) {
			t.Fatalf("response mangled: type %s, %d vals", back.Type, len(back.Vals))
		}
		for i, v := range push.Vals {
			if math.Float64bits(back.Vals[i]) != math.Float64bits(v) {
				t.Fatalf("round %d: value %d came back as %x, want %x", round, i, math.Float64bits(back.Vals[i]), math.Float64bits(v))
			}
		}
		ReleaseReceived(back)
	}
}
