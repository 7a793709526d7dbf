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
// at all, head only, payload only, both, a payload far larger than any
// staging buffer, and payloads carried partly or wholly in borrowed
// segments — none, zero-length ones, a frame small enough for
// frameWriter's single-copy path, and 1 MiB in 32 segments that
// frameWriter sends vectored.
func frameCases() map[string]*Message {
	rng := rand.New(rand.NewSource(7))
	big := make([]float64, 1<<17) // 1 MiB of payload
	for i := range big {
		big[i] = math.Float64frombits(rng.Uint64()) // every bit pattern, NaNs included
	}
	segs := make([][]float64, 32)
	keys := make([]keyrange.Key, 32)
	for i := range segs {
		segs[i] = big[i<<12 : (i+1)<<12]
		keys[i] = keyrange.Key(i)
	}
	return map[string]*Message{
		"empty":     {Type: MsgHeartbeat, From: Worker(2), To: Scheduler(), Seq: 9, Progress: -1, View: 3},
		"keys-only": {Type: MsgPull, From: Worker(1), To: Server(0), Seq: 7, Keys: []keyrange.Key{2, 40, 41}},
		"vals-only": {Type: MsgSetCond, From: Worker(100), To: Server(1), Seq: 1, Vals: []float64{1.5, math.Inf(-1), -0.0}},
		"sample":    sampleMessage(),
		"1MiB":      {Type: MsgPush, From: Worker(0), To: Server(1), Seq: 1 << 40, Progress: 12, View: 2, Keys: []keyrange.Key{0, 1, 2, 3}, Vals: big},
		"segs-none": {Type: MsgPullResp, From: Server(0), To: Worker(1), Seq: 3, Keys: []keyrange.Key{5}, Vals: []float64{2}, Segs: [][]float64{}},
		"segs-zero-length": {Type: MsgPullResp, From: Server(1), To: Worker(0), Seq: 4, Keys: []keyrange.Key{1, 2, 3},
			Segs: [][]float64{{}, {math.NaN(), 1}, nil, {-3}}},
		"segs-staged": {Type: MsgPush, From: Worker(3), To: Server(0), Seq: 5, Keys: []keyrange.Key{0, 1},
			Vals: []float64{0.25}, Segs: [][]float64{big[:200], big[200:300]}},
		"segs-1MiB": {Type: MsgPush, From: Worker(1), To: Server(1), Seq: 6, Progress: 3, View: 2, Keys: keys, Segs: segs},
	}
}

// TestWriteFrameGoldenBytes: the frame on the wire is byte for byte the
// length prefix followed by Encode(m), whether WriteFrame or a TCP
// connection's frameWriter writes it and whether the payload sits in Vals
// or in borrowed Segs — the zero-copy paths changed how the bytes are
// produced, never which bytes. Borrowed segments arrive as one flat Vals.
func TestWriteFrameGoldenBytes(t *testing.T) {
	for name, m := range frameCases() {
		flat := m.Clone()
		if len(flat.Segs) != 0 {
			t.Fatalf("%s: Clone kept %d borrowed segments", name, len(flat.Segs))
		}
		body := Encode(nil, m)
		if !bytes.Equal(body, Encode(nil, flat)) {
			t.Fatalf("%s: Encode(m) differs from Encode of its flattened clone", name)
		}
		want := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
		want = append(want, body...)
		var got bytes.Buffer
		if err := WriteFrame(&got, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: frame differs from len ‖ Encode(m) (%d vs %d bytes)", name, got.Len(), len(want))
		}

		// frameWriter: one Write for a frame that fits the staging buffer;
		// otherwise one for the staged chunk (head and the payload's first
		// values) and one per non-empty piece of the rest — what a
		// vectored write degrades to on a plain io.Writer.
		fw := newFrameWriter()
		cw := &countingWriter{}
		for round := 0; round < 2; round++ { // the second round reuses the scratch
			cw.Reset()
			cw.writes = 0
			if err := fw.write(cw, m); err != nil {
				t.Fatalf("%s: frameWriter: %v", name, err)
			}
			if !bytes.Equal(cw.Bytes(), want) {
				t.Errorf("%s: frameWriter frame differs from len ‖ Encode(m) (%d vs %d bytes)", name, cw.Len(), len(want))
			}
			wantWrites := 1
			if len(want) > frameStageBytes {
				room := max(0, (frameStageBytes-(4+headerBytes+4*len(m.Keys)))/8)
				for _, piece := range append([][]float64{m.Vals}, m.Segs...) {
					staged := min(room, len(piece))
					room -= staged
					if len(piece) > staged {
						wantWrites++
					}
				}
			}
			if cw.writes != wantWrites {
				t.Errorf("%s: frameWriter issued %d writes, want %d", name, cw.writes, wantWrites)
			}
		}
		for _, b := range fw.iov {
			if b != nil {
				t.Fatalf("%s: frameWriter scratch still references the payload after the write", name)
			}
		}
		for _, p := range fw.rest {
			if p != nil {
				t.Fatalf("%s: frameWriter scratch still references the payload after the write", name)
			}
		}

		back, err := ReadFrame(&got)
		if err != nil {
			t.Fatalf("%s: read back: %v", name, err)
		}
		if !sameMessage(back, flat) {
			t.Errorf("%s: read back a different message", name)
		}
		ReleaseReceived(back)
	}
}

// countingWriter is a bytes.Buffer that counts Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestValsHelpersAgree holds the payload helpers this platform selected
// (zero-copy on little-endian hosts) to the portable ones every other
// platform runs — for Vals and for every borrowed segment: same bytes
// out, same floats in.
func TestValsHelpersAgree(t *testing.T) {
	for name, m := range frameCases() {
		var fast, portable bytes.Buffer
		pieces := append([][]float64{m.Vals}, m.Segs...)
		if err := newFrameWriter().writePieces(&fast, pieces); err != nil {
			t.Fatal(err)
		}
		for _, p := range pieces {
			if err := writeValsPortable(&portable, p); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(fast.Bytes(), portable.Bytes()) {
			t.Errorf("%s: the vectored payload writer and writeValsPortable produce different bytes", name)
		}
		flat := m.Clone().Vals
		if !bytes.Equal(portable.Bytes(), appendVals(nil, flat)) {
			t.Errorf("%s: the portable segment writer does not write the flattened payload", name)
		}
		a, b := make([]float64, len(flat)), make([]float64, len(flat))
		if err := readVals(bytes.NewReader(portable.Bytes()), a); err != nil {
			t.Fatal(err)
		}
		if err := readValsPortable(bytes.NewReader(fast.Bytes()), b); err != nil {
			t.Fatal(err)
		}
		for i, v := range flat {
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

// TestTCPBorrowedSegmentsBitExact: a 1 MiB push lent as 32 borrowed
// segments crosses two real TCP endpoints as one vectored frame and
// arrives as one flat Vals with every bit intact; the answer goes back
// the same way through SendOwned. Run under -race: the sockets read the
// segments in place, and overwriting them after Send returns must not
// reach the receiver.
func TestTCPBorrowedSegmentsBitExact(t *testing.T) {
	a, b := startTCPPair(t)
	push := frameCases()["segs-1MiB"]
	want := push.Clone().Vals
	push.From, push.To = NodeID{}, Server(0)
	for round := 0; round < 3; round++ {
		if err := a.Send(push); err != nil {
			t.Fatal(err)
		}
		// Send returned: the borrow is over, the lender may scribble.
		saved := append([]float64(nil), push.Segs[0]...)
		for i := range push.Segs[0] {
			push.Segs[0][i] = -1
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		copy(push.Segs[0], saved)
		if len(got.Segs) != 0 || len(got.Vals) != len(want) {
			t.Fatalf("round %d: received %d vals in %d segments, want %d flat", round, len(got.Vals), len(got.Segs), len(want))
		}
		for i, v := range want {
			if math.Float64bits(got.Vals[i]) != math.Float64bits(v) {
				t.Fatalf("round %d: value %d arrived as %x, want %x", round, i, math.Float64bits(got.Vals[i]), math.Float64bits(v))
			}
		}
		// Answer by lending the received payload back in segments.
		resp := NewMessage()
		resp.Type, resp.To, resp.Seq = MsgPullResp, got.From, got.Seq
		resp.Keys = append(resp.Keys[:0], got.Keys...)
		for i := range got.Keys {
			resp.Segs = append(resp.Segs, got.Vals[i<<12:(i+1)<<12])
		}
		if err := SendOwned(b, resp); err != nil {
			t.Fatal(err)
		}
		ReleaseReceived(got)
		back, err := a.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if back.Type != MsgPullResp || len(back.Vals) != len(want) {
			t.Fatalf("response mangled: type %s, %d vals", back.Type, len(back.Vals))
		}
		for i, v := range want {
			if math.Float64bits(back.Vals[i]) != math.Float64bits(v) {
				t.Fatalf("round %d: value %d came back as %x, want %x", round, i, math.Float64bits(back.Vals[i]), math.Float64bits(v))
			}
		}
		ReleaseReceived(back)
	}
}
