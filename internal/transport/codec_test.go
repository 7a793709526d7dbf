package transport

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/fluentps/fluentps/internal/keyrange"
)

func sampleMessage() *Message {
	return &Message{
		Type:     MsgPush,
		From:     Worker(3),
		To:       Server(1),
		Seq:      42,
		Progress: 17,
		Keys:     []keyrange.Key{0, 5, 9},
		Vals:     []float64{1.5, -2.25, math.Pi, 0},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sampleMessage()
	buf := Encode(nil, m)
	if len(buf) != EncodedSize(m) {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(buf), EncodedSize(m))
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestEncodeDecodeEmptyPayload(t *testing.T) {
	m := &Message{Type: MsgBarrier, From: Worker(0), To: Scheduler(), Seq: 1, Progress: -1}
	got, err := Decode(Encode(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("round trip mismatch: got %+v want %+v", got, m)
	}
	if got.Progress != -1 {
		t.Errorf("negative progress mangled: %d", got.Progress)
	}
}

func TestEncodeAppendsToExistingBuffer(t *testing.T) {
	prefix := []byte{0xAA, 0xBB}
	buf := Encode(prefix, sampleMessage())
	if buf[0] != 0xAA || buf[1] != 0xBB {
		t.Fatal("Encode clobbered existing buffer contents")
	}
	got, err := Decode(buf[2:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 42 {
		t.Errorf("Seq = %d", got.Seq)
	}
	ReleaseReceived(got)
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("nil input should error")
	}
	if _, err := Decode(make([]byte, headerBytes-1)); err == nil {
		t.Error("short input should error")
	}
	good := Encode(nil, sampleMessage())
	if _, err := Decode(good[:len(good)-1]); err == nil {
		t.Error("truncated payload should error")
	}
	if _, err := Decode(append(good, 0)); err == nil {
		t.Error("trailing garbage should error")
	}
}

func TestWriteReadFrame(t *testing.T) {
	var buf bytes.Buffer
	msgs := []*Message{
		sampleMessage(),
		{Type: MsgPull, From: Worker(1), To: Server(0), Seq: 7, Keys: []keyrange.Key{2}},
		{Type: MsgShutdown, From: Scheduler(), To: Worker(5)},
	}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameMessage(got, want) {
			t.Errorf("frame %d mismatch: got %+v want %+v", i, got, want)
		}
		ReleaseReceived(got)
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("expected io.EOF at stream end, got %v", err)
	}
}

func TestReadFrameRejectsBogusLength(t *testing.T) {
	// Length prefix larger than maxFrameBytes.
	data := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(data)); err == nil {
		t.Error("huge frame length should error")
	}
	// Length prefix below the header size.
	data = []byte{1, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(data)); err == nil {
		t.Error("tiny frame length should error")
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, sampleMessage()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(data)); err == nil {
		t.Error("truncated body should error")
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(typ uint8, fromRole, toRole uint8, fromRank, toRank uint16, seq uint64,
		progress int32, keys []uint32, vals []float64) bool {
		m := &Message{
			Type:     MsgType(typ),
			From:     NodeID{Role: Role(fromRole % 3), Rank: fromRank},
			To:       NodeID{Role: Role(toRole % 3), Rank: toRank},
			Seq:      seq,
			Progress: progress,
		}
		for _, k := range keys {
			m.Keys = append(m.Keys, keyrange.Key(k))
		}
		for _, v := range vals {
			if math.IsNaN(v) {
				v = 0 // NaN != NaN breaks DeepEqual; bit-accuracy is tested below
			}
			m.Vals = append(m.Vals, v)
		}
		got, err := Decode(Encode(nil, m))
		if err != nil {
			return false
		}
		same := reflect.DeepEqual(normalize(m), normalize(got))
		ReleaseReceived(got)
		return same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sameMessage compares the wire-visible fields of two messages. ReadFrame
// returns pooled messages whose unexported ownership state (and reused,
// non-nil empty slices) make reflect.DeepEqual against a literal unusable.
func sameMessage(a, b *Message) bool {
	if a.Type != b.Type || a.From != b.From || a.To != b.To ||
		a.Seq != b.Seq || a.Progress != b.Progress || a.View != b.View {
		return false
	}
	if len(a.Keys) != len(b.Keys) || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			return false
		}
	}
	for i := range a.Vals {
		if math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) {
			return false
		}
	}
	return true
}

// normalize maps nil and empty slices to a canonical form for DeepEqual.
func normalize(m *Message) *Message {
	out := *m
	if len(out.Keys) == 0 {
		out.Keys = nil
	}
	if len(out.Vals) == 0 {
		out.Vals = nil
	}
	return &out
}

func TestCodecPreservesFloatBits(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.0, math.SmallestNonzeroFloat64}
	m := &Message{Type: MsgPullResp, From: Server(0), To: Worker(0), Vals: specials}
	got, err := Decode(Encode(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range specials {
		if math.Float64bits(got.Vals[i]) != math.Float64bits(v) {
			t.Errorf("val %d: bits %x != %x", i, math.Float64bits(got.Vals[i]), math.Float64bits(v))
		}
	}
	ReleaseReceived(got)
}

func TestNodeIDAndMsgTypeStrings(t *testing.T) {
	if Server(3).String() != "server/3" {
		t.Errorf("Server(3) = %q", Server(3).String())
	}
	if Scheduler().String() != "scheduler/0" {
		t.Errorf("Scheduler() = %q", Scheduler().String())
	}
	if MsgPull.String() != "pull" {
		t.Errorf("MsgPull = %q", MsgPull.String())
	}
	if MsgType(200).String() == "" || Role(9).String() == "" {
		t.Error("unknown enum values must still format")
	}
}

func TestPayloadBytes(t *testing.T) {
	m := sampleMessage()
	if got := m.PayloadBytes(); got != headerBytes+4*3+8*4 {
		t.Errorf("PayloadBytes = %d", got)
	}
}

func BenchmarkEncode(b *testing.B) {
	m := &Message{Type: MsgPush, From: Worker(0), To: Server(0), Vals: make([]float64, 4096)}
	buf := make([]byte, 0, EncodedSize(m))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], m)
	}
}

func BenchmarkDecode(b *testing.B) {
	m := &Message{Type: MsgPush, From: Worker(0), To: Server(0), Vals: make([]float64, 4096)}
	buf := Encode(nil, m)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteFrameRejectsOversized: the send side enforces the same frame
// bound as the receive side, failing the one offending send instead of
// shipping a frame the peer will reject mid-stream (poisoning the whole
// connection).
func TestWriteFrameRejectsOversized(t *testing.T) {
	over := &Message{Type: MsgPush, From: Worker(0), To: Server(0),
		Vals: make([]float64, (maxFrameBytes-headerBytes)/8+1)}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, over); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized send wrote %d bytes before failing; the stream is now poisoned", buf.Len())
	}

	// The boundary frame (exactly the limit) must still round-trip.
	boundary := &Message{Type: MsgPush, From: Worker(0), To: Server(0),
		Vals: make([]float64, (maxFrameBytes-headerBytes)/8)}
	if err := WriteFrame(&buf, boundary); err != nil {
		t.Fatalf("boundary frame rejected: %v", err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("boundary frame unreadable: %v", err)
	}
	if len(got.Vals) != len(boundary.Vals) {
		t.Fatalf("boundary round trip lost payload: %d vals, want %d", len(got.Vals), len(boundary.Vals))
	}
	ReleaseReceived(got)
}

// TestNegativeProgressRoundTrip: Progress is signed on the wire (workers
// report -1 before their first iteration in some states).
func TestNegativeProgressRoundTrip(t *testing.T) {
	m := &Message{Type: MsgPull, From: Worker(1), To: Server(0), Seq: 3, Progress: -1}
	got, err := Decode(Encode(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Progress != -1 {
		t.Fatalf("Progress = %d, want -1", got.Progress)
	}
	ReleaseReceived(got)
}
