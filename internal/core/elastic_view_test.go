package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fluentps/fluentps/internal/clusterview"
	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/transport"
)

// elasticHarness is the shared scaffolding of the live-join and drain
// tests: an in-process cluster over a reliable transport, workers
// training in the background, and the exact-sum audit proving no update
// was lost or double-applied across the membership change.
type elasticHarness struct {
	t       *testing.T
	net     *transport.ChanNetwork
	layout  *keyrange.Layout
	srvErrs map[int]chan error
	ws      []*Worker
	wErrs   chan error
	admin   transport.Endpoint
	workers int
	iters   int
	before  int
	// applyWorkers is every server's apply-pool size (forEachPool).
	applyWorkers int
	// wrap, when set, interposes on a server's endpoint (fault injection);
	// retry is the workers' retransmission policy.
	wrap  func(rank int, ep transport.Endpoint) transport.Endpoint
	retry RetryPolicy
}

// forEachPool runs body as subtests at both apply-pool shapes: a pool of
// one (no pool goroutine, one stripe, batches applied inline) and a pool
// of four — so parked-request replay and replication are proven through
// the engine whatever GOMAXPROCS the host resolves to.
func forEachPool(t *testing.T, body func(t *testing.T, applyWorkers int)) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("applyWorkers=%d", n), func(t *testing.T) { body(t, n) })
	}
}

func (h *elasticHarness) startServer(rank, numWorkers int, view *clusterview.View) {
	h.t.Helper()
	var ep transport.Endpoint = h.net.Endpoint(transport.Server(rank))
	if h.wrap != nil {
		ep = h.wrap(rank, ep)
	}
	srv, err := NewServer(ep, ServerConfig{
		Rank: rank, NumWorkers: numWorkers, Layout: h.layout,
		Model: syncmodel.SSP(2), Drain: syncmodel.Lazy,
		Seed: int64(rank), View: view, ApplyWorkers: h.applyWorkers,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	errc := make(chan error, 1)
	h.srvErrs[rank] = errc
	go func() { errc <- srv.Run() }()
}

func (h *elasticHarness) startWorkers(view *clusterview.View) {
	h.t.Helper()
	h.ws = make([]*Worker, h.workers)
	h.wErrs = make(chan error, h.workers)
	for n := 0; n < h.workers; n++ {
		w, err := NewWorker(h.net.Endpoint(transport.Worker(n)), WorkerConfig{
			Rank: n, Layout: h.layout, View: view,
			Timeout: 8 * time.Second, Retry: h.retry,
		})
		if err != nil {
			h.t.Fatal(err)
		}
		h.ws[n] = w
		go func(n int, w *Worker) {
			h.wErrs <- func() error {
				delta := make([]float64, h.layout.TotalDim())
				params := make([]float64, h.layout.TotalDim())
				for i := range delta {
					delta[i] = 0.01
				}
				for i := 0; i < h.iters; i++ {
					if err := w.SPush(tctx, i, delta); err != nil {
						return fmt.Errorf("worker %d push %d: %w", n, i, err)
					}
					if i < h.iters-1 {
						if err := w.SPull(tctx, i, params); err != nil {
							return fmt.Errorf("worker %d pull %d: %w", n, i, err)
						}
					}
				}
				return nil
			}()
		}(n, h.ws[n])
	}
}

// auditExactSum pulls the final model and checks every dimension equals
// the sequential sum of all pushed updates — the arithmetic proof that
// the membership change neither lost nor double-applied an update.
func (h *elasticHarness) auditExactSum(ctx context.Context) {
	h.t.Helper()
	params := make([]float64, h.layout.TotalDim())
	if err := h.ws[0].SPull(ctx, h.iters-1, params); err != nil {
		h.t.Fatal(err)
	}
	scale := 1 / float64(h.workers)
	want := 0.0
	for j := 0; j < h.workers*h.iters; j++ {
		want += 0.01 * scale
	}
	for i, got := range params {
		if math.Abs(got-want) > 1e-9 {
			h.t.Fatalf("dim %d = %v, want %v: an update was lost or double-applied across the membership change", i, got, want)
		}
	}
}

func (h *elasticHarness) shutdown(ranks ...int) {
	h.t.Helper()
	for _, m := range ranks {
		if err := h.admin.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(m)}); err != nil {
			h.t.Fatal(err)
		}
		if err := <-h.srvErrs[m]; err != nil {
			h.t.Fatalf("server %d exited with %v", m, err)
		}
	}
	for _, w := range h.ws {
		if n := w.Outstanding(); n != 0 {
			h.t.Errorf("worker %d still has %d in-flight requests", w.Rank(), n)
		}
		w.Close()
	}
	h.admin.Close()
	waitUntil(h.t, 5*time.Second, "cluster goroutines to wind down", func() bool {
		return runtime.NumGoroutine() <= h.before+3
	})
}

// TestLiveJoinServesDuringTransfer grows a 2-server cluster to 3 while
// workers train: the joiner starts empty (the -joining server flow),
// fluentps-admin's view transition streams a third of the keys to it, and
// training never stops — proven by the workers completing, the exact-sum
// audit, and the joiner answering with a live V_train clock (adopted from
// its donors) rather than a blank one.
func TestLiveJoinServesDuringTransfer(t *testing.T) { forEachPool(t, runLiveJoin) }

func runLiveJoin(t *testing.T, applyWorkers int) {
	const (
		workers = 2
		iters   = 60
	)
	layout := keyrange.MustLayout([]int{2, 3, 2, 3, 2, 3})
	assign, err := keyrange.EPS(layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := &elasticHarness{
		t: t, net: transport.NewChanNetwork(4096), layout: layout,
		srvErrs: make(map[int]chan error), workers: workers, iters: iters,
		before: runtime.NumGoroutine(), applyWorkers: applyWorkers,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Established cluster: two servers and the workers, all on epoch 1.
	viewOld := clusterview.Bootstrap("", make([]string, 2), make([]string, workers), assign, 1)
	h.startServer(0, workers, viewOld)
	h.startServer(1, workers, viewOld)
	h.startWorkers(viewOld)
	h.admin = h.net.Endpoint(transport.Worker(50))

	// The joiner boots empty with rank 2, exactly as fluentps-server
	// -joining does: a bootstrap view listing itself, but an assignment
	// that gives it nothing until the admin's transition.
	viewJoin := clusterview.Bootstrap("", make([]string, 3), make([]string, workers), assign, 1)
	h.startServer(2, workers, viewJoin)

	// Let training run, then grow the view mid-flight.
	waitUntil(t, 10*time.Second, "training to reach steady state", func() bool {
		st, err := QueryStats(ctx, h.admin, 0)
		return err == nil && st.Pushes >= 10
	})
	next, rank, err := viewOld.WithJoined("", layout)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 2 {
		t.Fatalf("join assigned rank %d, want 2", rank)
	}
	if err := DistributeView(ctx, h.admin, next, nil); err != nil {
		for m, errc := range h.srvErrs {
			select {
			case serr := <-errc:
				t.Logf("server %d already exited: %v", m, serr)
			default:
			}
		}
		t.Fatal(err)
	}

	// The transition is complete: the joiner holds a move-minimal share
	// of the keys and serves with a live clock.
	var keys [3]int
	total := 0
	for m := 0; m < 3; m++ {
		st, err := QueryStats(ctx, h.admin, m)
		if err != nil {
			t.Fatal(err)
		}
		keys[m] = st.Keys
		total += st.Keys
		if m == 2 {
			if st.Keys == 0 {
				t.Error("joiner received no keys")
			}
			if st.VTrain == 0 {
				t.Error("joiner serves with V_train 0; it must adopt its donors' clock")
			}
		}
	}
	if total != layout.NumKeys() {
		t.Errorf("keys split %v covers %d of %d keys", keys, total, layout.NumKeys())
	}
	if keys[2] > layout.NumKeys()/2 {
		t.Errorf("joiner took %d of %d keys; a move-minimal scale-up moves about a third", keys[2], layout.NumKeys())
	}

	for n := 0; n < workers; n++ {
		if err := <-h.wErrs; err != nil {
			for m := 0; m < 3; m++ {
				if st, serr := QueryStats(ctx, h.admin, m); serr == nil {
					t.Logf("server %d: vtrain=%d keys=%d pushes=%d pulls=%d dedup=%d", m, st.VTrain, st.Keys, st.Pushes, st.Pulls, st.DedupHits)
				}
			}
			t.Fatal(err)
		}
	}
	h.auditExactSum(ctx)
	h.shutdown(0, 1, 2)
}

// TestDrainMovesKeysWithoutStopping drains one of three servers while
// workers train: its keys stream to the survivors through the same
// checkpoint format, the drained rank keeps fencing stale traffic until
// the cluster quiesces, and no update is lost or double-applied.
func TestDrainMovesKeysWithoutStopping(t *testing.T) { forEachPool(t, runDrain) }

func runDrain(t *testing.T, applyWorkers int) {
	const (
		workers = 2
		iters   = 60
	)
	layout := keyrange.MustLayout([]int{2, 3, 2, 3, 2, 3})
	assign, err := keyrange.EPS(layout, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := &elasticHarness{
		t: t, net: transport.NewChanNetwork(4096), layout: layout,
		srvErrs: make(map[int]chan error), workers: workers, iters: iters,
		before: runtime.NumGoroutine(), applyWorkers: applyWorkers,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	view := clusterview.Bootstrap("", make([]string, 3), make([]string, workers), assign, 1)
	for m := 0; m < 3; m++ {
		h.startServer(m, workers, view)
	}
	h.startWorkers(view)
	h.admin = h.net.Endpoint(transport.Worker(50))

	waitUntil(t, 10*time.Second, "training to reach steady state", func() bool {
		st, err := QueryStats(ctx, h.admin, 2)
		return err == nil && st.Pushes >= 10
	})
	next, err := view.WithDrained(2, layout)
	if err != nil {
		t.Fatal(err)
	}
	// The transition must reach the drained rank too — it donates every
	// key — so the rank set is the union of old and new active sets.
	if err := DistributeView(ctx, h.admin, next, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}

	total := 0
	for m := 0; m < 3; m++ {
		st, err := QueryStats(ctx, h.admin, m)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Keys
		if m == 2 && st.Keys != 0 {
			t.Errorf("drained server still holds %d keys", st.Keys)
		}
	}
	if total != layout.NumKeys() {
		t.Errorf("survivors hold %d of %d keys after drain", total, layout.NumKeys())
	}

	// The drained rank idles but keeps fencing in-flight stale requests;
	// it is shut down only after the workers quiesce.
	for n := 0; n < workers; n++ {
		if err := <-h.wErrs; err != nil {
			t.Fatal(err)
		}
	}
	h.auditExactSum(ctx)
	h.shutdown(2, 0, 1)
}

// lostReplyGate is the lossy link of TestRetriedPullAfterDrainIsFenced,
// wrapped around the server that will be drained. It loses that server's
// loseNth pull response to worker 0, and from then on holds back every
// retransmission of that pull until release is closed — so training
// cannot finish before the view change, and the retry reaches the server
// strictly after it, whatever the scheduler does.
type lostReplyGate struct {
	transport.Endpoint
	inject  transport.Endpoint // re-delivers the held retries
	loseNth atomic.Int32
	lostSeq atomic.Uint64
	lost    chan struct{} // closed when the response was dropped
	release chan struct{}
	fenced  atomic.Int32 // MsgStaleView answers to the lost pull's seq
}

func (g *lostReplyGate) Send(m *transport.Message) error {
	if m.To == transport.Worker(0) {
		switch {
		case m.Type == transport.MsgPullResp && g.loseNth.Add(-1) == 0:
			g.lostSeq.Store(m.Seq)
			close(g.lost)
			return nil // lost on the wire
		case m.Type == transport.MsgStaleView && m.Seq == g.lostSeq.Load():
			g.fenced.Add(1)
		}
	}
	return g.Endpoint.Send(m)
}

func (g *lostReplyGate) Recv() (*transport.Message, error) {
	for {
		m, err := g.Endpoint.Recv()
		if err != nil {
			return nil, err
		}
		held := m.Type == transport.MsgPull && m.From == transport.Worker(0) &&
			g.loseNth.Load() <= 0 && m.Seq == g.lostSeq.Load()
		select {
		case <-g.release:
			held = false
		default:
		}
		if !held {
			return m, nil
		}
		go func() {
			<-g.release
			_ = g.inject.Send(m)
		}()
	}
}

// TestRetriedPullAfterDrainIsFenced is the regression test for a retried
// pull meeting the dedup window after its keys moved: the server answered
// a pull, the response was lost, a drain moved every key away, and only
// then did the worker's retransmission (same seq, old view stamp) arrive.
// The dedup window remembers the pull as answered; re-answering it would
// gather keys the shard no longer holds and take the server down. It must
// be fenced with MsgStaleView instead — the worker adopts the view and
// reissues to the new owners, and the exact-sum audit still holds.
func TestRetriedPullAfterDrainIsFenced(t *testing.T) { forEachPool(t, runRetriedPullAfterDrain) }

func runRetriedPullAfterDrain(t *testing.T, applyWorkers int) {
	const (
		workers = 2
		iters   = 40
		drained = 2
	)
	layout := keyrange.MustLayout([]int{2, 3, 2, 3, 2, 3})
	assign, err := keyrange.EPS(layout, 3)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewChanNetwork(4096)
	gate := &lostReplyGate{
		inject: net.Endpoint(transport.Worker(60)),
		lost:   make(chan struct{}), release: make(chan struct{}),
	}
	gate.loseNth.Store(10) // mid-training: iters is 40
	defer gate.inject.Close()
	h := &elasticHarness{
		t: t, net: net, layout: layout,
		srvErrs: make(map[int]chan error), workers: workers, iters: iters,
		before: runtime.NumGoroutine(), applyWorkers: applyWorkers,
		wrap: func(rank int, ep transport.Endpoint) transport.Endpoint {
			if rank != drained {
				return ep
			}
			gate.Endpoint = ep
			return gate
		},
		retry: RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	view := clusterview.Bootstrap("", make([]string, 3), make([]string, workers), assign, 1)
	for m := 0; m < 3; m++ {
		h.startServer(m, workers, view)
	}
	h.startWorkers(view)
	h.admin = h.net.Endpoint(transport.Worker(50))

	select {
	case <-gate.lost:
	case <-ctx.Done():
		t.Fatal("the drained server never answered worker 0's tenth pull")
	}
	next, err := view.WithDrained(drained, layout)
	if err != nil {
		t.Fatal(err)
	}
	if err := DistributeView(ctx, h.admin, next, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	close(gate.release) // the retries now reach a server that holds no keys

	for n := 0; n < workers; n++ {
		if err := <-h.wErrs; err != nil {
			select {
			case serr := <-h.srvErrs[drained]:
				t.Fatalf("%v\ndrained server exited: %v", err, serr)
			default:
			}
			t.Fatal(err)
		}
	}
	if gate.fenced.Load() == 0 {
		t.Error("the retried pull was never answered with MsgStaleView")
	}
	if st, err := QueryStats(ctx, h.admin, drained); err != nil || st.DedupHits == 0 {
		t.Errorf("drained server: dedup hits %d (err %v); the retry never met the dedup window", st.DedupHits, err)
	}
	h.auditExactSum(ctx)
	h.shutdown(drained, 0, 1)
}
