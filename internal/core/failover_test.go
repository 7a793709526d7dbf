package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/fluentps/fluentps/internal/clusterview"
	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/transport"
)

// blackhole wraps an endpoint so a send to a vanished peer is silently
// dropped instead of failing the request — the in-process analogue of a
// dead TCP peer, which is a timeout, not a synchronous error. Recovery
// flows through the worker's retransmission path exactly as it would over
// a real network: the same seq is re-sent until the rank's new process
// answers. The endpoint's own closure still surfaces as ErrClosed.
type blackhole struct {
	inner transport.Endpoint
}

func (b *blackhole) ID() transport.NodeID { return b.inner.ID() }

func (b *blackhole) Send(m *transport.Message) error {
	if err := b.inner.Send(m); err != nil && !errors.Is(err, transport.ErrClosed) {
		return nil
	} else if err != nil {
		return err
	}
	return nil
}

func (b *blackhole) Recv() (*transport.Message, error) { return b.inner.Recv() }
func (b *blackhole) Close() error                      { return b.inner.Close() }
func (b *blackhole) SendCopies() bool                  { return transport.SendCopies(b.inner) }
func (b *blackhole) Unwrap() transport.Endpoint        { return b.inner }

// TestFailoverKillServer kills one of two replicated servers mid-training
// — either rank, abruptly, under a flaky data plane — promotes its backup,
// and proves exactly-once application across the failover:
//
//   - the final parameters equal the exact sequential sum of every
//     worker's every update (a lost update is off by one step, a
//     double-applied one by one step the other way);
//   - V_train after failover is at least V_train sampled before the kill
//     (the promoted shard restored a consistent clock, not a fresh one);
//   - dedup hits and retries are non-zero (the fault schedule and the
//     dead window actually exercised the retry/dedup machinery).
//
// Each kill runs at both apply-pool sizes: a pool of one replicates
// waves-of-one applied inline, a pool of four coalesced waves.
func TestFailoverKillServer(t *testing.T) {
	for _, dead := range []int{0, 1} {
		t.Run(fmt.Sprintf("kill-rank-%d", dead), func(t *testing.T) {
			forEachPool(t, func(t *testing.T, applyWorkers int) { runFailover(t, dead, applyWorkers) })
		})
	}
}

func runFailover(t *testing.T, dead, applyWorkers int) {
	const (
		servers = 2
		workers = 2
		iters   = 40
		killAt  = 8 // pushes applied on the doomed shard before the kill
	)
	layout := keyrange.MustLayout([]int{2, 3, 2, 3})
	assign, err := keyrange.EPS(layout, servers)
	if err != nil {
		t.Fatal(err)
	}
	view := clusterview.Bootstrap("", make([]string, servers), make([]string, workers), assign, 2)
	faults := func(seed int64) transport.FlakyConfig {
		return transport.FlakyConfig{
			Drop:      0.05,
			Duplicate: 0.05,
			Delay:     0.10,
			MaxDelay:  2 * time.Millisecond,
			Seed:      seed,
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	before := runtime.NumGoroutine()
	net := transport.NewChanNetwork(4096)

	srvs := make([]*Server, servers)
	flakies := make([]*transport.Flaky, servers)
	srvErrs := make([]chan error, servers)
	for m := 0; m < servers; m++ {
		fep := transport.NewFlaky(net.Endpoint(transport.Server(m)), faults(int64(m)))
		flakies[m] = fep
		srv, err := NewServer(fep, ServerConfig{
			Rank:       m,
			NumWorkers: workers,
			Layout:     layout,
			Model:      syncmodel.SSP(2),
			Drain:      syncmodel.Lazy,
			Seed:       int64(m),
			View:       view,
			// The promoted sub-server inherits the pool size with the config.
			ApplyWorkers: applyWorkers,
			OpenEndpoint: func(id transport.NodeID) (transport.Endpoint, error) {
				return net.Endpoint(id), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		srvs[m] = srv
		srvErrs[m] = make(chan error, 1)
		go func(m int, srv *Server) { srvErrs[m] <- srv.Run() }(m, srv)
	}

	ws := make([]*Worker, workers)
	wErrs := make(chan error, workers)
	for n := 0; n < workers; n++ {
		wep := &blackhole{inner: transport.NewFlaky(net.Endpoint(transport.Worker(n)), faults(int64(100+n)))}
		w, err := NewWorker(wep, WorkerConfig{
			Rank: n, Layout: layout, View: view,
			Timeout: 60 * time.Second,
			Retry:   RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		ws[n] = w
		go func(n int, w *Worker) {
			wErrs <- func() error {
				delta := make([]float64, layout.TotalDim())
				params := make([]float64, layout.TotalDim())
				for i := range delta {
					delta[i] = 0.01
				}
				for i := 0; i < iters; i++ {
					if err := w.SPush(tctx, i, delta); err != nil {
						return fmt.Errorf("worker %d push %d: %w", n, i, err)
					}
					if i < iters-1 {
						if err := w.SPull(tctx, i, params); err != nil {
							return fmt.Errorf("worker %d pull %d: %w", n, i, err)
						}
					}
				}
				return nil
			}()
		}(n, w)
	}

	admin := net.Endpoint(transport.Worker(50))

	// Let training reach steady state on the doomed shard, sample its
	// V_train, then kill it abruptly: no shutdown handshake, the endpoint
	// just vanishes mid-conversation.
	waitUntil(t, 20*time.Second, "training to reach the doomed shard", func() bool {
		return srvs[dead].Stats().Pushes >= killAt
	})
	vtrainBefore, err := QueryStats(ctx, admin, dead)
	if err != nil {
		t.Fatal(err)
	}
	if err := flakies[dead].Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-srvErrs[dead]; err != nil {
		t.Fatalf("killed server exited with %v, want clean close", err)
	}
	// Leave the cluster headless for a few retry intervals so in-flight
	// requests genuinely hit the dead window.
	time.Sleep(30 * time.Millisecond)

	// Failover: promote the backup's replica onto the surviving process,
	// then distribute the rebound view so workers redial.
	var next *clusterview.View
	var promoteErr error
	waitUntil(t, 10*time.Second, "promotion to succeed", func() bool {
		next, promoteErr = PromoteServer(ctx, admin, view, dead)
		return promoteErr == nil
	})
	if err := DistributeView(ctx, admin, next, nil); err != nil {
		t.Fatal(err)
	}

	for n := 0; n < workers; n++ {
		if err := <-wErrs; err != nil {
			t.Fatal(err)
		}
	}

	// Exactly-once, by arithmetic: every dimension received every push
	// exactly once along the surviving lineage, so the final value is the
	// same sequential sum the test can replay locally. One lost update is
	// off by a full step, one double-applied update by a step the other
	// way — both far above the tolerance.
	params := make([]float64, layout.TotalDim())
	if err := ws[0].SPull(ctx, iters-1, params); err != nil {
		t.Fatal(err)
	}
	scale := 1 / float64(workers)
	want := 0.0
	for j := 0; j < workers*iters; j++ {
		want += 0.01 * scale
	}
	for i, got := range params {
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("dim %d = %v, want %v: an update was lost or double-applied across the failover", i, got, want)
		}
	}

	// V_train must be monotone across the failover: the promoted shard
	// resumed from the replicated clock, never from zero.
	after, err := QueryStats(ctx, admin, dead)
	if err != nil {
		t.Fatal(err)
	}
	if after.VTrain < vtrainBefore.VTrain {
		t.Errorf("V_train went %d -> %d across failover; must be monotone", vtrainBefore.VTrain, after.VTrain)
	}

	// The fault schedule plus the dead window must have exercised the
	// retry/dedup machinery — otherwise the run proved nothing.
	var retries uint64
	for _, w := range ws {
		retries += w.Stats().Retries
	}
	if retries == 0 {
		t.Error("no retries despite frame drops and a killed server")
	}
	survivor := 1 - dead
	dedup := int64(srvs[survivor].Stats().DedupHits) + int64(after.DedupHits)
	if dedup == 0 {
		t.Error("no dedup hits despite duplicated frames and post-failover replays")
	}
	t.Logf("failover absorbed: V_train %d -> %d, %d retries, %d dedup hits",
		vtrainBefore.VTrain, after.VTrain, retries, dedup)

	// Teardown: the promoted shard first (it lives in the survivor's
	// process), then the survivor, then the workers.
	for _, m := range []int{dead, survivor} {
		if err := admin.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(m)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-srvErrs[survivor]; err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if n := w.Outstanding(); n != 0 {
			t.Errorf("worker %d still has %d in-flight requests", w.Rank(), n)
		}
		w.Close()
	}
	admin.Close()
	flakies[survivor].Close()

	defer func() {
		if t.Failed() {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Logf("goroutine dump:\n%s", buf[:n])
		}
	}()
	waitUntil(t, 5*time.Second, "cluster goroutines to wind down", func() bool {
		return runtime.NumGoroutine() <= before+3
	})
}

// TestViewFencingRejectsStaleEpoch drives the epoch fence directly: a
// request stamped with an older view is rejected with MsgStaleView
// carrying the server's current view, is NOT applied, and unstamped
// legacy traffic passes untouched.
func TestViewFencingRejectsStaleEpoch(t *testing.T) {
	layout := keyrange.MustLayout([]int{2, 3})
	assign, err := keyrange.EPS(layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	view := clusterview.Bootstrap("", make([]string, 1), make([]string, 1), assign, 1)
	view.Epoch = 3 // the cluster has moved on twice

	net := transport.NewChanNetwork(64)
	srv, err := NewServer(net.Endpoint(transport.Server(0)), ServerConfig{
		Rank: 0, NumWorkers: 1, Layout: layout,
		Model: syncmodel.SSP(8), Drain: syncmodel.Lazy,
		View: view,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Run() }()

	wep := net.Endpoint(transport.Worker(0))
	keys := assign.KeysOf(0)
	push := func(seq uint64, epoch uint32) {
		t.Helper()
		msg := &transport.Message{
			Type: transport.MsgPush, To: transport.Server(0), Seq: seq,
			View: epoch, Keys: keys, Vals: make([]float64, layout.TotalDim()),
		}
		if err := wep.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() *transport.Message {
		t.Helper()
		msg, err := wep.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}

	// Stale epoch: rejected, not applied, current view echoed back.
	push(1, 2)
	resp := recv()
	if resp.Type != transport.MsgStaleView || resp.Seq != 1 {
		t.Fatalf("stale push got %v seq %d, want MsgStaleView seq 1", resp.Type, resp.Seq)
	}
	cur, _, err := clusterview.Decode(resp.Vals)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Epoch != 3 {
		t.Fatalf("rejection carries epoch %d, want 3", cur.Epoch)
	}
	transport.ReleaseReceived(resp)

	// Current epoch passes; unstamped legacy traffic passes.
	for seq, epoch := range map[uint64]uint32{2: 3, 3: 0} {
		push(seq, epoch)
		resp := recv()
		if resp.Type != transport.MsgPushAck || resp.Seq != seq {
			t.Fatalf("push seq %d epoch %d got %v seq %d, want ack", seq, epoch, resp.Type, resp.Seq)
		}
		transport.ReleaseReceived(resp)
	}
	if got := srv.Stats().Pushes; got != 2 {
		t.Errorf("server applied %d pushes, want 2 (the fenced one must not count)", got)
	}

	if err := wep.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(0)}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wep.Close()
}

// TestWaveCodecRoundtrip checks a replication wave survives its wire
// encoding bit-for-bit — controller image, dedup pairs, per-key counters,
// and segments — for both delta and snapshot waves, and that a truncated
// frame is detected rather than misapplied.
func TestWaveCodecRoundtrip(t *testing.T) {
	layout := keyrange.MustLayout([]int{2, 3, 4})
	assign, err := keyrange.EPS(layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	view := clusterview.Bootstrap("", make([]string, 2), make([]string, 3), assign, 2)
	net := transport.NewChanNetwork(4)
	srv, err := NewServer(net.Endpoint(transport.Server(0)), ServerConfig{
		Rank: 0, NumWorkers: 3, Layout: layout,
		Model: syncmodel.SSP(2), Drain: syncmodel.Lazy,
		View: view,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, snapshot := range []bool{false, true} {
		w := &replWave{
			snapshot: snapshot,
			img: syncmodel.ControllerImage{
				VTrain:   7,
				Progress: []int{7, 9, 8},
				Counts:   map[int]int{7: 2, 8: 1},
			},
			spec:   syncmodel.Spec{Kind: syncmodel.KindSSP, S: 2},
			specOK: true,
			pairs: []dedupPair{
				{from: transport.Worker(0), seq: 41},
				{from: transport.Worker(2), seq: 40},
			},
			keys:   []keyrange.Key{0, 2},
			perKey: []uint64{3, 5},
			vals:   []float64{0.25, -0.5, 1, 2, 3, 4},
		}
		msg := srv.encodeWave(w)
		msg.Seq = 11
		got, err := decodeWave(layout, msg)
		if err != nil {
			t.Fatalf("snapshot=%v: %v", snapshot, err)
		}
		if got.snapshot != snapshot {
			t.Errorf("snapshot flag lost: got %v want %v", got.snapshot, snapshot)
		}
		if got.img.VTrain != 7 || len(got.img.Progress) != 3 || got.img.Progress[1] != 9 ||
			got.img.Counts[7] != 2 || got.img.Counts[8] != 1 {
			t.Errorf("controller image mangled: %+v", got.img)
		}
		if !got.specOK || got.spec.Kind != syncmodel.KindSSP || got.spec.S != 2 {
			t.Errorf("spec mangled: ok=%v %+v", got.specOK, got.spec)
		}
		if len(got.pairs) != 2 || got.pairs[0] != w.pairs[0] || got.pairs[1] != w.pairs[1] {
			t.Errorf("dedup pairs mangled: %+v", got.pairs)
		}
		if len(got.keys) != 2 || got.keys[0] != 0 || got.keys[1] != 2 ||
			got.perKey[0] != 3 || got.perKey[1] != 5 {
			t.Errorf("keys/counters mangled: %v %v", got.keys, got.perKey)
		}
		for i, v := range w.vals {
			if got.vals[i] != v {
				t.Errorf("segment value %d: got %v want %v", i, got.vals[i], v)
			}
		}

		// Truncations must be detected, never misapplied.
		short := msg.Clone()
		short.Vals = short.Vals[:len(short.Vals)-1]
		if _, err := decodeWave(layout, short); err == nil {
			t.Error("truncated segment decoded without error")
		}
		empty := msg.Clone()
		empty.Vals = empty.Vals[:3]
		if _, err := decodeWave(layout, empty); err == nil {
			t.Error("truncated header decoded without error")
		}
	}
}
