package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/telemetry"
	"github.com/fluentps/fluentps/internal/transport"
)

// Tests for reader-driven snapshot publishing (roserver.go): no reader,
// no publish; the first read after any number of unread waves still
// honours the SnapshotEvery freshness bound; a steady reader sees
// monotone epochs of whole cuts.

// roDemandCluster is one ASP server with one worker. Every push is the
// constant vector step·1, so a snapshot cut between waves has all
// coordinates equal, and with a single worker every push advances V_train
// by exactly one.
type roDemandCluster struct {
	net    *transport.ChanNetwork
	srv    *Server
	reg    *telemetry.Registry
	w      *Worker
	layout *keyrange.Layout
}

func newRODemandCluster(t *testing.T, snapshotEvery, readerPool int) *roDemandCluster {
	t.Helper()
	c := &roDemandCluster{
		net:    transport.NewChanNetwork(64),
		reg:    telemetry.New(),
		layout: keyrange.MustLayout([]int{2, 3, 4, 5}),
	}
	assign, err := keyrange.EPS(c.layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.srv, err = NewServer(c.net.Endpoint(transport.Server(0)), ServerConfig{
		Rank: 0, NumWorkers: 1, Layout: c.layout, Assignment: assign,
		Model: syncmodel.ASP(), Drain: syncmodel.Lazy,
		Telemetry: c.reg, SnapshotEvery: snapshotEvery, ReaderPool: readerPool,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.srv.Run() }()
	c.w, err = NewWorker(c.net.Endpoint(transport.Worker(0)), WorkerConfig{Rank: 0, Layout: c.layout, Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.w.Close()
		ep := c.net.Endpoint(transport.Worker(99))
		_ = ep.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(0)})
		ep.Close()
		if err := <-done; err != nil {
			t.Errorf("server exited with %v", err)
		}
	})
	return c
}

// step pushes the constant vector `by` and pulls. The pull is answered
// in a later wave than the push, so once step returns, the wave boundary
// that followed the push — where the server mirrors V_train for its
// readers — is behind us.
func (c *roDemandCluster) step(i int, by float64, params []float64) error {
	delta := make([]float64, c.layout.TotalDim())
	for j := range delta {
		delta[j] = by
	}
	if err := c.w.SPush(tctx, i, delta); err != nil {
		return err
	}
	return c.w.SPull(tctx, i, params)
}

func (c *roDemandCluster) publishes() uint64 {
	return c.reg.Histogram("server.snapshot_publish_ns").Count()
}

func wholeCut(vals []float64) error {
	for _, v := range vals {
		if v != vals[0] {
			return fmt.Errorf("torn snapshot: %v beside %v", v, vals[0])
		}
	}
	return nil
}

// TestSnapshotsPublishOnlyOnDemand: reader-free waves publish nothing;
// the first RO pull afterwards — the trainer long stopped, the apply loop
// idle — still gets the final parameters, not the boot epoch.
func TestSnapshotsPublishOnlyOnDemand(t *testing.T) {
	for _, pool := range []int{0, -1} {
		t.Run(fmt.Sprintf("readerPool=%d", pool), func(t *testing.T) {
			c := newRODemandCluster(t, 0, pool)
			const waves = 40
			params := make([]float64, c.layout.TotalDim())
			for i := 0; i < waves; i++ {
				if err := c.step(i, 0.5, params); err != nil {
					t.Fatal(err)
				}
			}
			if e := c.srv.shard.ROSnapshot().Epoch; e != 1 {
				t.Fatalf("%d reader-free steps moved the snapshot to epoch %d, want the boot epoch", waves, e)
			}
			if n := c.publishes(); n != 0 {
				t.Fatalf("%d reader-free steps observed %d snapshot publishes, want none", waves, n)
			}

			ro := NewROClient(c.net.Endpoint(transport.Worker(7)), 0)
			dst := make([]float64, c.layout.TotalDim())
			epoch, vtrain, err := ro.Pull(tctx, dst)
			if err != nil {
				t.Fatal(err)
			}
			if vtrain != waves {
				t.Fatalf("first read after idle served V_train %d, live clock is %d (SnapshotEvery 1)", vtrain, waves)
			}
			if epoch != 2 || c.publishes() != 1 {
				t.Fatalf("first read after idle: epoch %d after %d publishes, want epoch 2 from exactly one", epoch, c.publishes())
			}
			for j, v := range dst {
				if v != params[j] {
					t.Fatalf("first read after idle: scalar %d = %v, the trainer's final pull saw %v", j, v, params[j])
				}
			}
			if pool == 0 {
				if n := c.reg.Counter("server.ro_stale_waits").Value(); n != 1 {
					t.Fatalf("server.ro_stale_waits = %d, want 1 (the first read after idle)", n)
				}
			}
			// Nothing moved since: further reads are served as is.
			if epoch2, _, err := ro.Pull(tctx, dst); err != nil || epoch2 != epoch {
				t.Fatalf("idle re-read: epoch %d err %v, want epoch %d again", epoch2, err, epoch)
			}
		})
	}
}

// TestFirstReadWhileTrainingIsFresh: readers that show up in the middle
// of training — after reader-free waves, then steadily — never get a
// snapshot SnapshotEvery or more ticks behind the clock of the last wave
// boundary, never see an epoch go back, never see a torn cut.
func TestFirstReadWhileTrainingIsFresh(t *testing.T) {
	for _, every := range []int{0, 5} {
		t.Run(fmt.Sprintf("snapshotEvery=%d", every), func(t *testing.T) {
			c := newRODemandCluster(t, every, 0)
			bound := max(every, 1)
			var fenced atomic.Int64 // steps whose wave boundary is behind us
			stop := make(chan struct{})
			trained := make(chan error, 1)
			go func() {
				params := make([]float64, c.layout.TotalDim())
				for i := 0; ; i++ {
					select {
					case <-stop:
						trained <- nil
						return
					default:
					}
					if err := c.step(i, 0.25, params); err != nil {
						trained <- err
						return
					}
					fenced.Store(int64(i + 1))
				}
			}()
			waitUntil(t, 10*time.Second, "reader-free training waves", func() bool { return fenced.Load() >= 30 })
			if n := c.publishes(); n != 0 {
				t.Fatalf("%d snapshot publishes before any reader arrived", n)
			}

			const readers, pulls = 3, 150
			var wg sync.WaitGroup
			errs := make(chan error, readers)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					ep := c.net.Endpoint(transport.Worker(10 + r))
					defer ep.Close()
					ro := NewROClient(ep, 0)
					dst := make([]float64, c.layout.TotalDim())
					var last uint32
					for n := 0; n < pulls; n++ {
						live := int(fenced.Load())
						epoch, vtrain, err := ro.Pull(tctx, dst)
						if err == nil && vtrain <= live-bound {
							err = fmt.Errorf("served V_train %d with the clock at %d or later: %d or more ticks stale", vtrain, live, bound)
						}
						if err == nil && epoch < last {
							err = fmt.Errorf("epoch went back from %d to %d", last, epoch)
						}
						if err == nil {
							err = wholeCut(dst)
						}
						if err != nil {
							errs <- fmt.Errorf("reader %d pull %d: %w", r, n, err)
							return
						}
						last = epoch
					}
				}(r)
			}
			wg.Wait()
			close(stop)
			if err := <-trained; err != nil {
				t.Fatal(err)
			}
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestSnapshotEveryNegativeStaysFrozen: SnapshotEvery < 0 pins the boot
// epoch whatever readers ask for.
func TestSnapshotEveryNegativeStaysFrozen(t *testing.T) {
	c := newRODemandCluster(t, -1, 0)
	ro := NewROClient(c.net.Endpoint(transport.Worker(7)), 0)
	dst := make([]float64, c.layout.TotalDim())
	params := make([]float64, c.layout.TotalDim())
	for i := 0; i < 10; i++ {
		if err := c.step(i, 1, params); err != nil {
			t.Fatal(err)
		}
		epoch, vtrain, err := ro.Pull(tctx, dst)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != 1 || vtrain != 0 || dst[0] != 0 {
			t.Fatalf("frozen read tier served epoch %d V_train %d value %v after %d steps", epoch, vtrain, dst[0], i+1)
		}
	}
	if n := c.publishes() + c.reg.Counter("server.ro_stale_waits").Value(); n != 0 {
		t.Fatalf("frozen read tier published or waited %d times", n)
	}
}
