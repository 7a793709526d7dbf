package core

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/transport"
)

// The determinism property the harness gates on: the same workload and
// seed must produce bit-identical parameters regardless of the apply
// stage's parallelism. Gradients are integer multiples of N and the 1/N
// scale is a power of two, so exact float arithmetic makes the sum
// order-independent and the reference is plain arithmetic, w0 + Σ
// deltas/N — any difference from it at any ApplyWorkers setting is a
// lost, duplicated, or torn update, never "just float noise". The
// Makefile runs this under -race -count=5.

// applyWorkload runs a fixed seeded push schedule against a fresh server
// (w0 = 0) with the given apply parallelism and returns the final
// parameters beside the arithmetic reference.
func applyWorkload(t *testing.T, applyWorkers int) (got, want []float64) {
	t.Helper()
	const (
		nWorkers = 4
		rounds   = 12
	)
	sizes := []int{3, 9, 17, 2, 33}
	net, _, layout, assign := batchedServer(t, syncmodel.ASP(), nWorkers, applyWorkers, 8, sizes)

	// All deltas come from one seeded stream, drawn up front so the
	// generation order cannot depend on goroutine scheduling.
	rng := rand.New(rand.NewSource(41))
	want = make([]float64, layout.TotalDim())
	deltas := make([][][]float64, nWorkers)
	for rank := range deltas {
		deltas[rank] = make([][]float64, rounds)
		for r := range deltas[rank] {
			d := make([]float64, layout.TotalDim())
			for i := range d {
				d[i] = float64(nWorkers * (rng.Intn(17) - 8)) // ÷N stays integral
				want[i] += d[i] / nWorkers
			}
			deltas[rank][r] = d
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, nWorkers)
	pullers := make([]*Worker, nWorkers)
	for rank := 0; rank < nWorkers; rank++ {
		w, err := NewWorker(net.Endpoint(transport.Worker(rank)), WorkerConfig{
			Rank: rank, Layout: layout, Assignment: assign,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		pullers[rank] = w
		wg.Add(1)
		go func(rank int, w *Worker) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := w.SPush(tctx, r, deltas[rank][r]); err != nil {
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
	if err := pullers[0].SPull(tctx, rounds, params); err != nil {
		t.Fatal(err)
	}
	return params, want
}

// TestApplyWorkersDeterminism: a pool of one, the engine at 2 workers,
// and the engine at 4 workers with a different stripe interleaving must
// all land bit-for-bit on the arithmetic reference for the same seeded
// workload.
func TestApplyWorkersDeterminism(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		got, want := applyWorkload(t, workers)
		if len(got) != len(want) {
			t.Fatalf("ApplyWorkers=%d: %d params, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ApplyWorkers=%d: param[%d] = %v, want %v — apply order leaked into the result",
					workers, i, got[i], want[i])
			}
		}
	}
}
