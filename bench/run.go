package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fluentps/fluentps/internal/core"
	"github.com/fluentps/fluentps/internal/telemetry"
	"github.com/fluentps/fluentps/internal/transport"
)

// numSlices cuts the timed window into equal slices: throughput is the
// median slice, and the spread between slices tells -compare whether a
// metric resolved at all.
const numSlices = 6

// readerWarmup is how many pulls each RO stream completes before the
// window may start.
const readerWarmup = 200

// hangGuard bounds a whole run beyond its window: the program's own
// request timeout is off by default (a delayed pull may legitimately
// wait), so a lost message would otherwise hang the benchmark.
const hangGuard = 60 * time.Second

type runOpts struct {
	window time.Duration // 0: set up, warm up, check, tear down
	traced bool
	// solo runs one training worker and no readers: the plain
	// single-worker baseline of the same task.
	solo bool
}

// sliceAcc is what one goroutine accumulates inside one slice.
type sliceAcc struct {
	ops    int64 // steps (trainer) or pulls (reader)
	durNs  int64 // Σ step time
	syncNs int64 // Σ time inside SPush+SPull
	h      hist
}

// mark is what the coordinator samples at a slice boundary.
type mark struct {
	at      time.Time
	mallocs uint64
	bytes   uint64
	numGC   uint32
	dprs    int
}

// sliceResult is one slice of the window, all actors merged.
type sliceResult struct {
	Seconds float64
	Steps   int64
	StepNs  int64
	SyncNs  int64
	ROPulls int64
	Mallocs uint64
	Bytes   uint64
	DPRs    int
	step    hist
	ro      hist
}

type runResult struct {
	Setup      time.Duration
	Slices     [numSlices]sliceResult
	Step       hist // pooled over the window
	HeapPeak   uint64
	GCCycles   uint32
	Attempted  int64
	Failed     int64
	FinalAcc   float64
	Retries    uint64
	Timeouts   uint64
	DedupHits  int
	ROSends    int64 // MsgPullRO frames sent, retries included
	ROTotal    int64 // RO pulls completed over the whole run
	PoolGets   uint64
	PoolMisses uint64
	Problems   []string // failed output checks

	// Traced runs only.
	Telemetry []telemetry.Snapshot
	Rings     []*spanRing
}

type runState struct {
	in     *inputs
	opts   runOpts
	c      *cluster
	epoch  time.Time
	ctx    context.Context
	cancel context.CancelFunc

	// Stop protocol. Workers may only stop at a common step count (under
	// PSSP a worker that left early would strand the others' delayed
	// pulls), so each publishes the next step it will run in cur before
	// looking at target, and the coordinator sets target to the largest
	// cur it sees: whoever already passed the check is covered by it, and
	// whoever checks later sees it.
	cur      []atomic.Int64
	target   atomic.Int64
	stopRead atomic.Bool
	curSlice atomic.Int32

	warm sync.WaitGroup
	wg   sync.WaitGroup

	// mu guards res's counters and problems, and stepsDone, while the
	// actors run.
	mu        sync.Mutex
	res       *runResult
	stepsDone []int
	accs      [][]sliceAcc // per actor; trainers first, then readers
	rings     []*spanRing
}

func (r *runState) now() int64 { return int64(time.Since(r.epoch)) }

func (r *runState) problem(format string, args ...any) {
	r.mu.Lock()
	if len(r.res.Problems) < 20 {
		r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// fail books a failed operation. One failure breaks the lockstep the other
// workers rely on, so the rest are failed fast instead of waiting out the
// hang guard.
func (r *runState) fail(what string, err error) {
	r.mu.Lock()
	r.res.Failed++
	r.mu.Unlock()
	r.problem("%s: %v", what, err)
	r.cancel()
}

// runWorkload generates the inputs, boots a cluster, warms it up, measures
// for opts.window, drains to a common step count, checks the outputs and
// tears everything down.
func runWorkload(wl workload, seed int64, opts runOpts) (*runResult, error) {
	start := time.Now()
	in, err := makeInputs(wl, seed)
	if err != nil {
		return nil, err
	}
	workers, readers := wl.Workers, wl.Readers
	if opts.solo {
		workers, readers = 1, 0
	}
	c, err := bootCluster(in, workers, readers, opts.traced)
	if err != nil {
		return nil, err
	}
	res := &runResult{}
	r := &runState{in: in, opts: opts, c: c, epoch: start, res: res,
		cur: make([]atomic.Int64, workers), stepsDone: make([]int, workers),
		accs: make([][]sliceAcc, workers+readers)}
	r.ctx, r.cancel = context.WithTimeout(context.Background(), opts.window+hangGuard)
	defer r.cancel()
	r.target.Store(-1)
	r.curSlice.Store(-1)
	for i := range r.accs {
		r.accs[i] = make([]sliceAcc, numSlices)
	}
	if opts.traced {
		for n := 0; n < workers; n++ {
			r.rings = append(r.rings, newSpanRing(fmt.Sprintf("worker/%d", n)))
		}
		for k := 0; k < readers; k++ {
			r.rings = append(r.rings, newSpanRing(fmt.Sprintf("reader/%d", k)))
		}
	}
	r.warm.Add(workers + readers)
	r.wg.Add(workers + readers)
	for n := 0; n < workers; n++ {
		go r.trainer(n)
	}
	for k := 0; k < readers; k++ {
		go r.reader(k, workers+k)
	}
	r.warm.Wait()
	res.Setup = time.Since(start)

	var marks [numSlices + 1]mark
	if opts.window > 0 && r.ctx.Err() == nil {
		gets0, miss0 := transport.MessagePoolStats()
		stopHeap := make(chan struct{})
		heapDone := make(chan uint64)
		go sampleHeapPeak(stopHeap, heapDone)
		t0 := time.Now()
		for s := 0; s <= numSlices; s++ {
			time.Sleep(time.Until(t0.Add(opts.window * time.Duration(s) / numSlices)))
			marks[s] = r.takeMark()
			r.curSlice.Store(int32(s))
		}
		close(stopHeap)
		res.HeapPeak = <-heapDone
		gets1, miss1 := transport.MessagePoolStats()
		res.PoolGets, res.PoolMisses = gets1-gets0, miss1-miss0
	}

	// Stop at a common step count, then wait for everyone.
	r.stopRead.Store(true)
	var target int64
	for n := range r.cur {
		target = max(target, r.cur[n].Load())
	}
	r.target.Store(target)
	r.wg.Wait()

	r.checkOutputs()
	if opts.traced {
		for _, reg := range c.regs {
			res.Telemetry = append(res.Telemetry, reg.Snapshot())
		}
		res.Rings = r.rings
	}
	for _, w := range c.workers {
		st := w.Stats()
		res.Retries += st.Retries
		res.Timeouts += st.Timeouts
	}
	for _, srv := range c.servers {
		res.DedupHits += srv.Stats().DedupHits
	}
	if err := c.shutdown(); err != nil {
		r.problem("shutdown: %v", err)
	}

	for s := 0; s < numSlices && opts.window > 0; s++ {
		sl := &res.Slices[s]
		sl.Seconds = marks[s+1].at.Sub(marks[s].at).Seconds()
		sl.Mallocs = marks[s+1].mallocs - marks[s].mallocs
		sl.Bytes = marks[s+1].bytes - marks[s].bytes
		sl.DPRs = marks[s+1].dprs - marks[s].dprs
		for a, acc := range r.accs {
			if a < workers {
				sl.Steps += acc[s].ops
				sl.StepNs += acc[s].durNs
				sl.SyncNs += acc[s].syncNs
				sl.step.merge(&acc[s].h)
			} else {
				sl.ROPulls += acc[s].ops
				sl.ro.merge(&acc[s].h)
			}
		}
		res.Step.merge(&sl.step)
	}
	res.GCCycles = marks[numSlices].numGC - marks[0].numGC
	return res, nil
}

func (r *runState) takeMark() mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := mark{at: time.Now(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: ms.NumGC}
	for _, srv := range r.c.servers {
		m.dprs += srv.Stats().DPRs
	}
	return m
}

// sampleHeapPeak polls in-use heap every 50 ms (runtime/metrics, so the
// world is not stopped; often enough to catch the top of most GC cycles,
// which is what makes the maximum repeat) and reports the maximum on done.
func sampleHeapPeak(stop <-chan struct{}, done chan<- uint64) {
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	var peak uint64
	for {
		metrics.Read(samples)
		peak = max(peak, samples[0].Value.Uint64()+samples[1].Value.Uint64())
		select {
		case <-stop:
			done <- peak
			return
		case <-tick.C:
		}
	}
}

func (r *runState) trainer(n int) {
	defer r.wg.Done()
	var warmed sync.Once // an actor that fails before its warm-up must not strand the coordinator
	defer warmed.Do(r.warm.Done)
	w := r.c.workers[n]
	in := r.in
	params := append([]float64(nil), in.w0...)
	var ts *trainerState
	if in.wl.Softmax {
		var err error
		if ts, err = in.newTrainer(n, len(r.c.workers)); err != nil {
			r.problem("worker %d: %v", n, err)
			return
		}
	}
	var ring *spanRing
	if r.opts.traced {
		ring = r.rings[n]
	}
	acc := r.accs[n]
	var attempted, i int // operations started, steps completed
	defer func() {
		r.mu.Lock()
		r.res.Attempted += int64(attempted)
		r.stepsDone[n] = i
		r.mu.Unlock()
	}()
	for ; ; i++ {
		r.cur[n].Store(int64(i + 1))
		if t := r.target.Load(); t >= 0 && int64(i) >= t {
			return
		}
		if i == in.wl.Warmup {
			warmed.Do(r.warm.Done)
		}
		t0 := r.now()
		var delta []float64
		if ts != nil {
			delta = ts.compute(in, params)
		} else {
			delta = in.pool[deltaIndex(n, i)]
		}
		t1 := r.now()
		var t2, t3, t4 int64
		attempted++
		push, err := w.SPushAsync(r.ctx, i, delta)
		if ring != nil {
			t2 = r.now()
		}
		if err == nil {
			err = push.Wait(r.ctx)
		}
		if ring != nil {
			t3 = r.now()
		}
		if err != nil {
			r.fail(fmt.Sprintf("worker %d SPush step %d", n, i), err)
			return
		}
		attempted++
		pull, err := w.SPullAsync(r.ctx, i, params)
		if ring != nil {
			t4 = r.now()
		}
		if err == nil {
			err = pull.Wait(r.ctx)
		}
		t5 := r.now()
		if err != nil {
			r.fail(fmt.Sprintf("worker %d SPull step %d", n, i), err)
			return
		}
		if s := r.curSlice.Load(); s >= 0 && s < numSlices {
			a := &acc[s]
			a.ops++
			a.durNs += t5 - t0
			a.syncNs += t5 - t1
			a.h.add(t5 - t0)
		}
		if ring != nil {
			children := [5]span{
				{Name: spanCompute, Start: t0, End: t1},
				{Name: spanPushEnqueue, Start: t1, End: t2},
				{Name: spanPushWait, Start: t2, End: t3},
				{Name: spanPullEnqueue, Start: t3, End: t4},
				{Name: spanPullWait, Start: t4, End: t5},
			}
			ring.putStep(span{Name: spanStep, ID: ring.newID(), Step: uint32(i), Start: t0, End: t5}, children[:])
		}
	}
}

// countingConn counts the frames an ROClient sends, which is the only
// outside view of its retries (sends − pulls).
type countingConn struct {
	core.ROConn
	sends int64
}

func (c *countingConn) Send(m *transport.Message) error {
	c.sends++
	return c.ROConn.Send(m)
}

func (r *runState) reader(k, actor int) {
	defer r.wg.Done()
	var warmed sync.Once
	defer warmed.Do(r.warm.Done)
	stream, err := r.c.roSess.OpenStream()
	if err != nil {
		r.problem("reader %d: open stream: %v", k, err)
		return
	}
	defer stream.Close()
	conn := &countingConn{ROConn: stream}
	client := core.NewROClient(conn, 0)
	dst := make([]float64, len(r.in.w0))
	var ring *spanRing
	if r.opts.traced {
		ring = r.rings[actor]
	}
	acc := r.accs[actor]
	var attempted, pulls int64 // pulls started, pulls completed
	var lastEpoch uint32
	defer func() {
		r.mu.Lock()
		r.res.Attempted += attempted
		r.res.ROSends += conn.sends
		r.res.ROTotal += pulls
		r.mu.Unlock()
	}()
	for ; !r.stopRead.Load(); pulls++ {
		if pulls == readerWarmup {
			warmed.Do(r.warm.Done)
		}
		// A reply shorter than the model leaves the poison in place and
		// fails the all-equal check below.
		dst[len(dst)-1] = math.NaN()
		attempted++
		t0 := r.now()
		epoch, _, err := client.Pull(r.ctx, dst)
		t1 := r.now()
		if err != nil {
			r.fail(fmt.Sprintf("reader %d pull %d", k, pulls), err)
			return
		}
		if epoch < lastEpoch {
			r.problem("reader %d: epoch went back from %d to %d", k, lastEpoch, epoch)
		}
		lastEpoch = epoch
		for _, v := range dst {
			if v != dst[0] {
				r.problem("reader %d: torn or short snapshot at epoch %d (%v beside %v)", k, epoch, v, dst[0])
				break
			}
		}
		if s := r.curSlice.Load(); s >= 0 && s < numSlices {
			acc[s].ops++
			acc[s].h.add(t1 - t0)
		}
		if ring != nil {
			ring.put(span{Name: spanROPull, ID: ring.newID(), Step: uint32(pulls), Start: t0, End: t1})
		}
	}
}

// checkOutputs runs the output checks once every worker has stopped: the
// push audit on every shard, then the exactly-once audit (synthetic
// deltas) or the accuracy floor (softmax) on a final pull.
func (r *runState) checkOutputs() {
	if r.ctx.Err() != nil {
		if errors.Is(r.ctx.Err(), context.DeadlineExceeded) {
			r.problem("run exceeded its window by more than %v", hangGuard)
		}
		return // a failed operation was already recorded; the cluster state is moot
	}
	total := 0
	for _, s := range r.stepsDone {
		total += s
		if s != r.stepsDone[0] {
			r.problem("workers stopped at different steps: %v", r.stepsDone)
			return
		}
	}
	if r.stepsDone[0] == 0 {
		r.problem("no steps ran")
		return
	}
	got := make([]float64, len(r.in.w0))
	r.res.Attempted++
	if err := r.c.workers[0].SPull(r.ctx, r.stepsDone[0]-1, got); err != nil {
		r.fail("final pull", err)
		return
	}
	for m, srv := range r.c.servers {
		if p := srv.Stats().Pushes; p != total {
			r.problem("server %d applied %d pushes, workers completed %d steps", m, p, total)
		}
	}
	if r.in.wl.Softmax {
		_, r.res.FinalAcc = r.in.model.Evaluate(got, r.in.test)
		if r.opts.window > 0 && r.res.FinalAcc < minFinalAcc {
			r.problem("final accuracy %.4f below %.2f", r.res.FinalAcc, minFinalAcc)
		}
		return
	}
	want := r.in.expectedModel(r.stepsDone)
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			r.problem("exactly-once audit: coordinate %d is %v, want %v", j, got[j], want[j])
			return
		}
	}
}
