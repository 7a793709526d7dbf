package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/fluentps/fluentps/internal/keyrange"
)

// TestFrameRoundTripIsAllocationFree: at steady state the frame path —
// encode into a pooled buffer, decode into a pooled message, release —
// must not allocate. This is the microbenchmark-as-test form of the hot
// path acceptance criterion.
func TestFrameRoundTripIsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	m := sampleMessage()
	var buf bytes.Buffer
	// Warm the pools so steady state is what is measured.
	for i := 0; i < 4; i++ {
		buf.Reset()
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseReceived(got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseReceived(got)
	})
	// bytes.Buffer internals may occasionally grow; the codec itself must
	// contribute nothing per message.
	if allocs > 1 {
		t.Errorf("frame round trip allocates %.1f objects/op, want ≤1", allocs)
	}
}

// TestPoolReuseDoesNotAliasPayloads: concurrent goroutines each pump
// distinct messages through the pooled frame path; recycled buffers and
// messages must never leak one goroutine's payload into another's. Run
// with -race to catch sharing, and with content checks to catch logical
// aliasing even without the detector.
func TestPoolReuseDoesNotAliasPayloads(t *testing.T) {
	const (
		goroutines = 8
		iters      = 500
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; i < iters; i++ {
				want := &Message{
					Type:     MsgPush,
					From:     Worker(g),
					To:       Server(0),
					Seq:      uint64(i),
					Progress: int32(g),
					Keys:     []keyrange.Key{keyrange.Key(g), keyrange.Key(i % 7)},
					Vals:     []float64{float64(g), float64(i), float64(g * i)},
				}
				buf.Reset()
				if err := WriteFrame(&buf, want); err != nil {
					errs <- err
					return
				}
				got, err := ReadFrame(&buf)
				if err != nil {
					errs <- err
					return
				}
				if !sameMessage(got, want) {
					errs <- fmt.Errorf("goroutine %d iter %d: payload corrupted: got %+v want %+v", g, i, got, want)
					ReleaseReceived(got)
					return
				}
				ReleaseReceived(got)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReleaseIsNoOpOnPlainMessages: messages built as literals must pass
// through both release functions untouched, so call sites never need to
// know a message's provenance.
func TestReleaseIsNoOpOnPlainMessages(t *testing.T) {
	m := sampleMessage()
	Release(m)
	ReleaseReceived(m)
	Release(nil)
	ReleaseReceived(nil)
	if len(m.Keys) != 3 || len(m.Vals) != 4 {
		t.Fatalf("release mutated a non-pooled message: %+v", m)
	}
	if m.ReceiverOwned() {
		t.Fatal("plain message reports receiver ownership")
	}
}

// TestCloneIsDeepAndIndependent: a clone must not share backing arrays
// with its source — fault injectors rely on this to re-deliver frames
// after the original may have been recycled.
func TestCloneIsDeepAndIndependent(t *testing.T) {
	src := NewMessage()
	src.Type = MsgPullResp
	src.From = Server(1)
	src.To = Worker(2)
	src.Seq = 9
	src.Keys = append(src.Keys[:0], 1, 2, 3)
	src.Vals = append(src.Vals[:0], 1.5, 2.5)
	c := src.Clone()
	if !sameMessage(c, src) {
		t.Fatalf("clone differs from source: %+v vs %+v", c, src)
	}
	// Recycle the source and scribble over its storage; the clone must be
	// unaffected.
	keys, vals := src.Keys, src.Vals
	Release(src)
	for i := range keys {
		keys[i] = 99
	}
	for i := range vals {
		vals[i] = -1
	}
	if c.Keys[0] != 1 || c.Keys[2] != 3 || c.Vals[0] != 1.5 {
		t.Fatalf("clone shares storage with released source: %+v", c)
	}
	if c.ReceiverOwned() {
		t.Fatal("clone must be non-pooled")
	}
}

// TestSendOwnedHandsOffOverChan: over a pointer-delivering transport the
// receiver gets the exact pooled message with ownership transferred, so
// its ReleaseReceived recycles it.
func TestSendOwnedHandsOffOverChan(t *testing.T) {
	net := NewChanNetwork(4)
	a := net.Endpoint(Worker(0))
	b := net.Endpoint(Server(0))
	defer a.Close()
	defer b.Close()

	m := NewMessage()
	m.Type = MsgPushAck
	m.To = Server(0)
	if SendCopies(a) {
		t.Fatal("chan endpoints must not report copying sends")
	}
	if err := SendOwned(a, m); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatal("chan transport did not deliver the sender's pointer")
	}
	if !got.ReceiverOwned() {
		t.Fatal("SendOwned over chan must transfer ownership to the receiver")
	}
	ReleaseReceived(got)
}

func BenchmarkDecodeInto(b *testing.B) {
	m := &Message{Type: MsgPush, From: Worker(0), To: Server(0), Vals: make([]float64, 4096)}
	buf := Encode(nil, m)
	out := &Message{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(out, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameRoundTrip measures the full pooled framing path: encode +
// length prefix into a pooled buffer, then decode into a pooled message
// and release it — the per-message codec cost of the TCP transport.
func BenchmarkFrameRoundTrip(b *testing.B) {
	m := &Message{
		Type: MsgPush, From: Worker(0), To: Server(0),
		Keys: []keyrange.Key{1, 2, 3, 4},
		Vals: make([]float64, 4096),
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteFrame(&buf, m); err != nil {
			b.Fatal(err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			b.Fatal(err)
		}
		ReleaseReceived(got)
	}
}

func BenchmarkWriteFrame(b *testing.B) {
	m := &Message{Type: MsgPush, From: Worker(0), To: Server(0), Vals: make([]float64, 4096)}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteFrame(&buf, m); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSizedPoolClasses: a sized get never regrows — its Vals holds the n
// values asked for — and a recycled message only serves the requests its
// size class can hold, so a payload array never grows after it reached
// its class. The class arithmetic is checked exhaustively for small
// sizes and at the powers of two around the 1 MiB pull response; the
// pool itself is exercised for the same sizes.
func TestSizedPoolClasses(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 100, 128, 129, 4095, 4096, 4097, 1<<17 - 1, 1 << 17, 1<<17 + 1}
	for n := 0; n <= 1100; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		c := needClass(n)
		floor := 0
		if c > 0 {
			floor = 1 << (c - 1)
		}
		if floor < n {
			t.Fatalf("n=%d: class %d allocates %d values on a miss", n, c, floor)
		}
		if holdClass(floor) != c {
			t.Fatalf("n=%d: a miss-allocated message (cap %d) files under class %d, not its own %d", n, floor, holdClass(floor), c)
		}
		for _, capacity := range sizes {
			if holdClass(capacity) == c && capacity < n {
				t.Fatalf("class %d holds cap %d but serves requests for %d values", c, capacity, n)
			}
		}
		m := NewSizedMessage(n)
		if cap(m.Vals) < n || len(m.Vals) != 0 || len(m.Keys) != 0 || len(m.Segs) != 0 {
			t.Fatalf("NewSizedMessage(%d): len %d cap %d, keys %d, segs %d", n, len(m.Vals), cap(m.Vals), len(m.Keys), len(m.Segs))
		}
		backing := cap(m.Vals)
		m.Vals = append(m.Vals, make([]float64, n)...)
		if cap(m.Vals) != backing {
			t.Fatalf("NewSizedMessage(%d) regrew on filling: cap %d → %d", n, backing, cap(m.Vals))
		}
		Release(m)
	}
	// A message whose Vals grew to an odd capacity files under the class
	// its capacity guarantees, never one that promises more.
	odd := NewMessage()
	odd.Vals = make([]float64, 0, 100)
	Release(odd)
	for i := 0; i < 8; i++ {
		m := NewSizedMessage(100)
		if cap(m.Vals) < 100 {
			t.Fatalf("NewSizedMessage(100) returned cap %d", cap(m.Vals))
		}
		Release(m)
	}
}

// TestRecycleDropsBorrowedSegments: a pooled message must not pin the
// memory its segments borrowed once it is back in the pool.
func TestRecycleDropsBorrowedSegments(t *testing.T) {
	m := NewMessage()
	lent := make([]float64, 8)
	m.Segs = append(m.Segs, lent, lent[:4])
	segs := m.Segs[:2]
	Release(m)
	if segs[0] != nil || segs[1] != nil {
		t.Fatal("recycled message still references its borrowed segments")
	}
}

// TestPointerTransportsFlattenSegments: a message whose payload is lent
// in Segs outlives its Send on a pointer-delivering transport, so
// SendOwned, SendRetained and Clone hand over a flattened copy; the
// lender may overwrite its segments as soon as the call returns.
func TestPointerTransportsFlattenSegments(t *testing.T) {
	net := NewChanNetwork(4)
	a := net.Endpoint(Worker(0))
	b := net.Endpoint(Server(0))
	defer a.Close()
	defer b.Close()
	lent := []float64{1, 2, 3, 4, 5}
	build := func() *Message {
		m := NewMessage()
		m.Type, m.To, m.Seq = MsgPush, Server(0), 11
		m.Keys = append(m.Keys[:0], 0, 1)
		m.Vals = append(m.Vals[:0], 0.5)
		m.Segs = append(m.Segs, lent[:2], lent[2:])
		return m
	}
	want := []float64{0.5, 1, 2, 3, 4, 5}
	check := func(how string, got *Message) {
		t.Helper()
		if got.Seq != 11 || len(got.Keys) != 2 || len(got.Segs) != 0 || len(got.Vals) != len(want) {
			t.Fatalf("%s: got seq %d, %d keys, %d vals in %d segments", how, got.Seq, len(got.Keys), len(got.Vals), len(got.Segs))
		}
		for i, v := range want {
			if got.Vals[i] != v {
				t.Fatalf("%s: value %d is %v, want %v", how, i, got.Vals[i], v)
			}
		}
	}
	scribble := func() {
		for i := range lent {
			lent[i] = -1
		}
	}
	reset := func() { copy(lent, want[1:]) }

	if err := SendOwned(a, build()); err != nil {
		t.Fatal(err)
	}
	scribble()
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	check("SendOwned", got)
	if !got.ReceiverOwned() {
		t.Fatal("SendOwned over chan must transfer ownership of the flattened copy")
	}
	ReleaseReceived(got)

	reset()
	m := build()
	if err := SendRetained(a, m); err != nil {
		t.Fatal(err)
	}
	scribble()
	got, err = b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	check("SendRetained", got)
	ReleaseReceived(got)
	Release(m)

	reset()
	m = build()
	c := m.Clone()
	Release(m)
	scribble()
	check("Clone", c)
}
