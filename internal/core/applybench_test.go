package core

import (
	"fmt"
	"testing"

	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/transport"
)

// benchApplyThroughput measures server-side push-apply throughput: one
// pusher keeps a window of raw pushes in flight (so the receive queue
// always has a backlog for the engine to form waves from) and b.N pushes
// flow through the server. The pusher does no gather/copy work — each
// windowed message is pre-filled and only its Seq changes — so the
// measured time is dominated by the server's apply stage. Sub-benchmarks
// contrast a pool of one (ApplyWorkers=1, batches applied inline) with a
// pool of four.
func benchApplyThroughput(b *testing.B, applyWorkers int) {
	const (
		numKeys = 32
		keyDim  = 1024
		window  = 32
	)
	sizes := make([]int, numKeys)
	for i := range sizes {
		sizes[i] = keyDim
	}
	layout := keyrange.MustLayout(sizes)
	assign, err := keyrange.EPS(layout, 1)
	if err != nil {
		b.Fatal(err)
	}
	net := transport.NewChanNetwork(256)
	srv, err := NewServer(net.Endpoint(transport.Server(0)), ServerConfig{
		Rank: 0, NumWorkers: 1, Layout: layout, Assignment: assign,
		Model: syncmodel.ASP(), Drain: syncmodel.Lazy,
		ApplyWorkers: applyWorkers, ApplyStripes: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	go srv.Run()
	defer func() {
		ep := net.Endpoint(transport.Worker(99))
		_ = ep.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(0)})
		ep.Close()
	}()

	ep := net.Endpoint(transport.Worker(0))
	defer ep.Close()
	keys := make([]keyrange.Key, numKeys)
	for i := range keys {
		keys[i] = keyrange.Key(i)
	}
	vals := make([]float64, layout.TotalDim())
	for i := range vals {
		vals[i] = 1
	}
	msgs := make([]*transport.Message, window)
	for i := range msgs {
		msgs[i] = &transport.Message{
			Type: transport.MsgPush, To: transport.Server(0),
			Keys: keys, Vals: vals,
		}
	}
	awaitAck := func() {
		for {
			msg, err := ep.Recv()
			if err != nil {
				b.Fatal(err)
			}
			ok := msg.Type == transport.MsgPushAck
			transport.ReleaseReceived(msg)
			if ok {
				return
			}
		}
	}

	b.SetBytes(8 * int64(layout.TotalDim()))
	b.ReportAllocs()
	b.ResetTimer()
	inflight := 0
	for i := 0; i < b.N; i++ {
		if inflight == window {
			// Acks come back in seq order, so one ack frees the oldest
			// window slot — exactly the one about to be reused.
			awaitAck()
			inflight--
		}
		m := msgs[i%window]
		m.Seq = uint64(i + 1)
		m.Progress = int32(i)
		if err := ep.Send(m); err != nil {
			b.Fatal(err)
		}
		inflight++
	}
	for ; inflight > 0; inflight-- {
		awaitAck()
	}
	b.StopTimer()
}

func BenchmarkApplyThroughput(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchApplyThroughput(b, workers)
		})
	}
}
