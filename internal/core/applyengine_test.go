package core

import (
	"sync"
	"testing"
	"time"

	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/transport"
)

// Tests for the wave-batched apply engine (applyengine.go). The rest of
// the package runs it at whatever pool size GOMAXPROCS resolves to;
// everything here pins ApplyWorkers > 1 so the worker pool runs even
// when the test host has GOMAXPROCS=1.

// batchedServer is testServer with explicit apply-engine knobs and a
// configurable layout.
func batchedServer(t *testing.T, model syncmodel.Model, workers, applyWorkers, applyStripes int, sizes []int) (*transport.ChanNetwork, *Server, *keyrange.Layout, *keyrange.Assignment) {
	t.Helper()
	layout := keyrange.MustLayout(sizes)
	assign, err := keyrange.EPS(layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewChanNetwork(256)
	srv, err := NewServer(net.Endpoint(transport.Server(0)), ServerConfig{
		Rank:         0,
		NumWorkers:   workers,
		Layout:       layout,
		Assignment:   assign,
		Model:        model,
		Drain:        syncmodel.Lazy,
		ApplyWorkers: applyWorkers,
		ApplyStripes: applyStripes,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	t.Cleanup(func() {
		ep := net.Endpoint(transport.Worker(99))
		_ = ep.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(0)})
		ep.Close()
	})
	return net, srv, layout, assign
}

func TestApplyConfigResolution(t *testing.T) {
	cases := []struct {
		cfg         ServerConfig
		wantWorkers int // resolved pool size
		wantStripes int
	}{
		{ServerConfig{ApplyWorkers: 1}, 1, 1},
		{ServerConfig{ApplyWorkers: -3}, 1, 1},
		{ServerConfig{ApplyWorkers: 4}, 4, 16},
		{ServerConfig{ApplyWorkers: 4, ApplyStripes: 2}, 4, 2},
		{ServerConfig{ApplyWorkers: 1, ApplyStripes: 8}, 1, 8},
	}
	for i, c := range cases {
		if got := c.cfg.applyWorkers(); got != c.wantWorkers {
			t.Errorf("case %d: applyWorkers()=%d, want %d", i, got, c.wantWorkers)
		}
		if c.cfg.applyStripes() != c.wantStripes {
			t.Errorf("case %d: applyStripes()=%d, want %d", i, c.cfg.applyStripes(), c.wantStripes)
		}
	}
	// Zero ApplyWorkers derives from GOMAXPROCS — whatever it resolves to,
	// it must be usable (≥ 1) and the derived stripe count consistent.
	var zero ServerConfig
	if zero.applyWorkers() < 1 {
		t.Errorf("default applyWorkers()=%d", zero.applyWorkers())
	}
}

// TestBatchedApplyMatchesExpected drives the engine with four concurrent
// pushers over overlapping keys. Gradients are integer-valued and the
// 1/N scale is a power of two, so every interleaving — whatever waves
// the engine happens to form, however gradients coalesce — must produce
// the exact same parameters.
func TestBatchedApplyMatchesExpected(t *testing.T) {
	const (
		nWorkers = 4
		rounds   = 25
	)
	sizes := []int{3, 5, 7, 1, 64, 2, 9, 11}
	net, srv, layout, assign := batchedServer(t, syncmodel.ASP(), nWorkers, 4, 8, sizes)

	workers := make([]*Worker, nWorkers)
	for rank := range workers {
		w, err := NewWorker(net.Endpoint(transport.Worker(rank)), WorkerConfig{
			Rank: rank, Layout: layout, Assignment: assign,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers[rank] = w
	}
	var wg sync.WaitGroup
	errs := make(chan error, nWorkers)
	for rank, w := range workers {
		wg.Add(1)
		go func(rank int, w *Worker) {
			defer wg.Done()
			delta := make([]float64, layout.TotalDim())
			for i := range delta {
				delta[i] = float64(4 * (rank + 1)) // ÷N=4 stays integral
			}
			for r := 0; r < rounds; r++ {
				if err := w.SPush(tctx, r, delta); err != nil {
					errs <- err
					return
				}
			}
		}(rank, w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	params := make([]float64, layout.TotalDim())
	if err := workers[0].SPull(tctx, rounds, params); err != nil {
		t.Fatal(err)
	}
	// Each worker contributed rounds × (rank+1) per element (after ÷N).
	want := float64(rounds * (1 + 2 + 3 + 4))
	for i, v := range params {
		if v != want {
			t.Fatalf("param[%d] = %v, want %v (exact integer arithmetic)", i, v, want)
		}
	}
	for _, k := range srv.shard.Keys() {
		if got := srv.shard.Updates(k); got != uint64(nWorkers*rounds) {
			t.Fatalf("key %d: %d updates, want %d", k, got, nWorkers*rounds)
		}
	}
	if st := srv.Stats(); st.Pushes != nWorkers*rounds {
		t.Fatalf("stats.Pushes = %d, want %d", st.Pushes, nWorkers*rounds)
	}
}

// TestBatchedBSPBlocksAndDrains re-checks the BSP DPR discipline with the
// engine active: deferring responses to wave boundaries must not leak a
// pull out before its round closes, and the drain must still happen.
func TestBatchedBSPBlocksAndDrains(t *testing.T) {
	net, srv, layout, assign := batchedServer(t, syncmodel.BSP(), 2, 4, 8, []int{2, 3})
	w0, err := NewWorker(net.Endpoint(transport.Worker(0)), WorkerConfig{Rank: 0, Layout: layout, Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	w1, err := NewWorker(net.Endpoint(transport.Worker(1)), WorkerConfig{Rank: 1, Layout: layout, Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	defer w1.Close()

	if err := w0.SPush(tctx, 0, make([]float64, 5)); err != nil {
		t.Fatal(err)
	}
	pulled := make(chan error, 1)
	go func() {
		params := make([]float64, 5)
		pulled <- w0.SPull(tctx, 0, params)
	}()
	select {
	case err := <-pulled:
		t.Fatalf("BSP pull completed before round closed (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := w1.SPush(tctx, 0, make([]float64, 5)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-pulled:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pull never released after round close")
	}
	if st := srv.Stats(); st.DPRs != 1 {
		t.Errorf("DPRs = %d, want 1", st.DPRs)
	}
}

// TestBatchedApplyStress is the engine's concurrent-apply stress test
// (run under -race -count=5 by `make race-stress`, and with fluentdebug
// assertions by `make race-debug`): pushers over overlapping key sets
// (the whole layout) and disjoint per-worker key sets, pullers
// interleaved, and barrier messages (stats queries) cutting waves —
// while a sampler checks that the shard's observed V_train never goes
// backwards. Integer-valued gradients make the final per-key update
// counters and parameter sums exact.
func TestBatchedApplyStress(t *testing.T) {
	const (
		nWorkers = 4
		rounds   = 30
	)
	sizes := make([]int, 16)
	for i := range sizes {
		sizes[i] = 1 + (i*5)%13
	}
	net, srv, layout, _ := batchedServer(t, syncmodel.ASP(), nWorkers, 4, 8, sizes)
	keys := layout.NumKeys()

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		// Sample V_train through the barrier (MsgStats) path: every query
		// forces a wave flush, and the sequence must be monotone.
		defer sampler.Done()
		ep := net.Endpoint(transport.Worker(50))
		defer ep.Close()
		last := -1
		for {
			select {
			case <-stop:
				return
			default:
			}
			st, err := QueryStats(tctx, ep, 0)
			if err != nil {
				return // endpoint closed at teardown
			}
			if st.VTrain < last {
				t.Errorf("V_train went backwards: %d after %d", st.VTrain, last)
				return
			}
			last = st.VTrain
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 2*nWorkers)
	for rank := 0; rank < nWorkers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			// Raw transport pushes: unlike the Worker API this lets the test
			// control key sets and seqs — windows of unacked pushes build the
			// backlog that forms multi-message waves, and re-sent seqs
			// exercise the engine's deferred dedup re-acks.
			ep := net.Endpoint(transport.Worker(rank))
			defer ep.Close()
			allKeys := make([]keyrange.Key, keys)
			for i := range allKeys {
				allKeys[i] = keyrange.Key(i)
			}
			full := make([]float64, layout.TotalDim())
			for i := range full {
				full[i] = 4
			}
			var own []keyrange.Key
			for k := rank; k < keys; k += nWorkers {
				own = append(own, keyrange.Key(k))
			}
			ownVals := make([]float64, 0, 64)
			for _, k := range own {
				for i := 0; i < layout.KeySize(k); i++ {
					ownVals = append(ownVals, 8)
				}
			}
			push := func(seq uint64, progress int, ks []keyrange.Key, vals []float64) error {
				return ep.Send(&transport.Message{
					Type: transport.MsgPush, To: transport.Server(0),
					Seq: seq, Progress: int32(progress), Keys: ks, Vals: vals,
				})
			}
			awaitAcks := func(n int) error {
				for got := 0; got < n; {
					msg, err := ep.Recv()
					if err != nil {
						return err
					}
					if msg.Type == transport.MsgPushAck {
						got++
					}
					transport.ReleaseReceived(msg)
				}
				return nil
			}
			seq := uint64(1)
			for r := 0; r < rounds; r++ {
				// Overlapping full-model push and disjoint keyed push, sent
				// back-to-back before collecting acks so they can share a wave.
				want := 2
				if err := push(seq, 2*r, allKeys, full); err != nil {
					errs <- err
					return
				}
				if err := push(seq+1, 2*r+1, own, ownVals); err != nil {
					errs <- err
					return
				}
				if r%7 == rank {
					// Duplicate of the keyed push: must be re-acked, never
					// re-applied (the final counters below would catch it).
					if err := push(seq+1, 2*r+1, own, ownVals); err != nil {
						errs <- err
						return
					}
					want++
				}
				seq += 2
				if err := awaitAcks(want); err != nil {
					errs <- err
					return
				}
				if r%5 == rank%5 {
					if err := ep.Send(&transport.Message{
						Type: transport.MsgPull, To: transport.Server(0),
						Seq: seq, Progress: int32(2*r + 1),
					}); err != nil {
						errs <- err
						return
					}
					seq++
					for {
						msg, err := ep.Recv()
						if err != nil {
							errs <- err
							return
						}
						done := msg.Type == transport.MsgPullResp
						transport.ReleaseReceived(msg)
						if done {
							break
						}
					}
				}
			}
		}(rank)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, k := range srv.shard.Keys() {
		// Full pushes: nWorkers×rounds; keyed pushes: rounds from the one
		// worker owning k's stream.
		want := uint64(nWorkers*rounds + rounds)
		if got := srv.shard.Updates(k); got != want {
			t.Fatalf("key %d: %d updates, want %d", k, got, want)
		}
		seg, err := srv.shard.GatherShard(nil, []keyrange.Key{k})
		if err != nil {
			t.Fatal(err)
		}
		// 4/4 per full push, 8/4 per keyed push: rounds×(4 + 2) per element.
		wantVal := float64(nWorkers*rounds*1 + rounds*2)
		for i, v := range seg {
			if v != wantVal {
				t.Fatalf("key %d elem %d: %v, want %v", k, i, v, wantVal)
			}
		}
	}
}
