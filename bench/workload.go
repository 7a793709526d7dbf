package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/fluentps/fluentps/internal/dataset"
	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/mathx"
	"github.com/fluentps/fluentps/internal/mlmodel"
	"github.com/fluentps/fluentps/internal/optimizer"
	"github.com/fluentps/fluentps/internal/syncmodel"
)

// workload is one fixed cluster shape and input recipe. Load is closed
// loop everywhere: a PS worker waits for its ack and its pull before the
// next step, and an RO reader for its reply before the next pull.
type workload struct {
	Name    string
	Why     string
	Servers int
	Workers int // training workers (closed-loop clients)
	Readers int // closed-loop ROClient streams over one mux session
	Keys    int // EPS layout: Keys keys of KeySize float64s (synthetic models)
	KeySize int
	// Softmax trains mlmodel.Softmax on dataset.CIFAR10Like instead of
	// pushing synthetic deltas; Keys is then the EPS key count.
	Softmax bool
	Model   func() syncmodel.Model
	Drain   syncmodel.DrainPolicy
	// Warmup is the fixed number of steps every worker completes before
	// the timed window may start (connections dialed, pools filled).
	Warmup int
	// AllEqual makes every pushed delta a constant vector, so any
	// untorn snapshot of the model has all coordinates equal.
	AllEqual bool
}

var workloads = []workload{
	{
		Name:    "small-asp",
		Why:     "2 KiB model: per-message cost (codec header, frame, syscalls, queues, dedup, acks, allocations) does all the work",
		Servers: 2, Workers: 2, Keys: 8, KeySize: 32,
		Model: syncmodel.ASP, Warmup: 4000,
	},
	{
		Name:    "large-asp",
		Why:     "2 MiB model, 4 MiB moved per step: bytes (encode/decode and socket copies, apply, gather) do all the work; per-message cost is noise",
		Servers: 2, Workers: 2, Keys: 64, KeySize: 4096,
		Model: syncmodel.ASP, Warmup: 150,
	},
	{
		Name:    "straggler-pssp",
		Why:     "PSSP(2,0.5)+lazy drain, real softmax, worker 0 computes 3x slower: pulls wait in the DPR buffer and the straggler sets the pace, not the PS",
		Servers: 2, Workers: 2, Keys: 8, Softmax: true,
		Model: func() syncmodel.Model { return syncmodel.PSSPConst(2, 0.5) }, Drain: syncmodel.Lazy,
		Warmup: 150,
	},
	{
		Name:    "ro-fanout",
		Why:     "128 KiB model on one shard: one trainer over TCP beside 4 RO reader streams on one mux session, so reads and writes contend on one server",
		Servers: 1, Workers: 1, Readers: 4, Keys: 64, KeySize: 256,
		Model: syncmodel.ASP, Warmup: 1500, AllEqual: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Straggler emulation: per-step compute is the real gradient plus a
// seeded sleep, lognormal around sleepBase, worker 0 stragglerFactor
// times slower.
const (
	sleepBase       = time.Millisecond
	sleepCV         = 0.25
	stragglerFactor = 3
	batchSize       = 32
	learningRate    = 0.1
	minFinalAcc     = 0.70
	deltaPool       = 8 // distinct synthetic deltas a worker cycles through
)

// inputs is everything a run feeds the program, generated from the seed
// alone; the program sees these values and nothing else of the seed
// except ServerConfig.Seed.
type inputs struct {
	wl     workload
	seed   int64
	layout *keyrange.Layout
	assign *keyrange.Assignment
	w0     []float64
	// pool holds the synthetic deltas. Every value is an integer multiple
	// of 2^-16 below 2^-8 in magnitude, and the worker count is 1 or 2, so
	// every g/N and every partial sum is exact in float64: the final model
	// must equal w0 + Σ g/N bit for bit whatever order the server applied
	// the pushes in.
	pool [][]float64

	model *mlmodel.Softmax
	train *dataset.Dataset
	test  *dataset.Dataset
}

func dyadic(rng *rand.Rand) float64 {
	return float64(rng.Intn(513)-256) / 65536
}

func makeInputs(wl workload, seed int64) (*inputs, error) {
	in := &inputs{wl: wl, seed: seed}
	dim := wl.Keys * wl.KeySize
	if wl.Softmax {
		in.train, in.test = dataset.CIFAR10Like(seed)
		dim = in.train.Classes*in.train.Dim + in.train.Classes
	}
	var err error
	if in.layout, err = keyrange.EPSLayout(dim, wl.Keys); err != nil {
		return nil, err
	}
	if in.assign, err = keyrange.EPS(in.layout, wl.Servers); err != nil {
		return nil, err
	}
	in.w0 = make([]float64, dim)
	rng := mathx.RNG(seed, "bench.inputs")
	switch {
	case wl.Softmax:
		if in.model, err = mlmodel.NewSoftmax(in.train.Classes, in.train.Dim, in.layout); err != nil {
			return nil, err
		}
		in.model.Init(mathx.RNG(seed, "bench.init"), in.w0)
	case wl.AllEqual:
		c := dyadic(rng)
		for i := range in.w0 {
			in.w0[i] = c
		}
		for k := 0; k < deltaPool; k++ {
			d := make([]float64, dim)
			c := dyadic(rng)
			for i := range d {
				d[i] = c
			}
			in.pool = append(in.pool, d)
		}
	default:
		for i := range in.w0 {
			in.w0[i] = dyadic(rng)
		}
		// One base vector, deltaPool overlapping windows of it: distinct
		// deltas for the price of one (the large model's inputs must not
		// dominate heap_peak_mb).
		base := make([]float64, dim+deltaPool)
		for i := range base {
			base[i] = dyadic(rng)
		}
		for k := 0; k < deltaPool; k++ {
			in.pool = append(in.pool, base[k:k+dim])
		}
	}
	return in, nil
}

// deltaIndex picks the synthetic delta worker n pushes at step i.
func deltaIndex(n, i int) int { return (i + 3*n) % deltaPool }

// expectedModel is w0 + Σ g/N for workers that completed steps[n] steps
// each (exact, see inputs.pool).
func (in *inputs) expectedModel(steps []int) []float64 {
	counts := make([]float64, deltaPool)
	for n, s := range steps {
		for i := 0; i < s; i++ {
			counts[deltaIndex(n, i)]++
		}
	}
	want := append([]float64(nil), in.w0...)
	workers := float64(len(steps))
	for k, c := range counts {
		if c == 0 {
			continue
		}
		for j, g := range in.pool[k] {
			want[j] += c * g / workers
		}
	}
	return want
}

// trainerState is one softmax worker's private compute state.
type trainerState struct {
	shard    *dataset.Dataset
	opt      optimizer.SGD
	grad     []float64
	delta    []float64
	batchRNG *rand.Rand
	sleepRNG *rand.Rand
	slowdown float64
}

func (in *inputs) newTrainer(n, workers int) (*trainerState, error) {
	shard, err := in.train.Shard(n, workers)
	if err != nil {
		return nil, err
	}
	ts := &trainerState{
		shard:    shard,
		opt:      optimizer.SGD{LR: learningRate},
		grad:     make([]float64, len(in.w0)),
		delta:    make([]float64, len(in.w0)),
		batchRNG: mathx.RNG(in.seed, fmt.Sprintf("bench.batch.%d", n)),
		sleepRNG: mathx.RNG(in.seed, fmt.Sprintf("bench.sleep.%d", n)),
		slowdown: 1,
	}
	if n == 0 {
		ts.slowdown = stragglerFactor
	}
	return ts, nil
}

// compute is one step's emulated work: the real gradient and optimizer
// delta, then the seeded sleep. It returns the delta to push.
func (ts *trainerState) compute(in *inputs, params []float64) []float64 {
	x, y := ts.shard.Batch(ts.batchRNG, batchSize)
	in.model.Gradient(params, x, y, ts.grad)
	ts.opt.Delta(params, ts.grad, ts.delta)
	time.Sleep(time.Duration(ts.slowdown * mathx.LogNormal(ts.sleepRNG, float64(sleepBase), sleepCV)))
	return ts.delta
}
