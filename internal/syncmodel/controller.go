// Package syncmodel implements FluentPS's condition-aware synchronization
// methodology (Algorithm 1 of the paper) as a pure, transport-free state
// machine.
//
// A Controller manages synchronization for one parameter shard on one
// server. Workers report their progress through OnPull/OnPush; the
// controller evaluates a pluggable pull condition to decide whether a pull
// may be answered immediately, buffers delayed pull requests (DPRs)
// otherwise, and evaluates a pluggable push condition to decide when the
// shard's overall training progress V_train advances and buffered pulls
// drain. Specifying just the two conditions yields BSP, ASP, SSP, DSPS,
// drop-stragglers, and PSSP (Table III); see models.go.
//
// Two drain policies implement the paper's §III-C trade-off:
//
//   - Lazy execution indexes the buffer by the *requesting worker's
//     progress*: a DPR is answered only when V_train catches up to it, so
//     the worker receives fully fresh parameters after a longer wait.
//   - The soft barrier indexes the buffer by *V_train at buffering time*:
//     a DPR is answered at the very next V_train advance, a short wait but
//     possibly stale parameters — and the barrier re-triggers frequently.
//
// The controller never blocks and is owned by a single goroutine (a server
// message loop or the discrete-event simulator).
package syncmodel

import (
	"fmt"
	"math/rand"
	"sort"
)

// State is the synchronization state a condition may inspect. It mirrors
// the runtime information the paper's SetcondPull/SetcondPush interfaces
// expose: the overall progress V_train, per-round push counts, and the
// fastest/slowest worker progress.
type State interface {
	// NumWorkers returns N, the number of workers pushing to this shard.
	NumWorkers() int
	// VTrain returns the shard's overall training progress: the number of
	// fully closed rounds.
	VTrain() int
	// CountAt returns how many workers have pushed gradients for round i.
	CountAt(i int) int
	// Progress returns the last progress reported by worker n, or -1 if
	// the worker has not reported yet.
	Progress(n int) int
	// MinProgress and MaxProgress return the slowest and fastest reported
	// progress (-1 before any report).
	MinProgress() int
	MaxProgress() int
	// Delayed returns the number of pull requests currently waiting in
	// the DPR buffer.
	Delayed() int
	// Rand returns a uniform value in [0,1) from the controller's
	// deterministic stream (used by probabilistic conditions).
	Rand() float64
}

// PullCond reports whether a pull by worker n at the given progress may be
// answered now (Algorithm 1, server line 3).
type PullCond func(st State, worker, progress int) bool

// PushCond reports whether enough gradients have been aggregated for
// V_train to advance and buffered pulls to drain (Algorithm 1, line 17).
type PushCond func(st State) bool

// DrainPolicy selects how delayed pull requests are indexed and released.
type DrainPolicy uint8

// Drain policies.
const (
	// Lazy buffers a DPR under the requesting worker's progress and
	// releases it when V_train reaches that progress (fresh parameters).
	Lazy DrainPolicy = iota
	// SoftBarrier buffers a DPR under the current V_train and releases it
	// at the next V_train advance (short wait, stale parameters).
	SoftBarrier
)

// String names the drain policy.
func (d DrainPolicy) String() string {
	switch d {
	case Lazy:
		return "lazy"
	case SoftBarrier:
		return "soft-barrier"
	default:
		return fmt.Sprintf("drain(%d)", uint8(d))
	}
}

// Pull identifies one pull request held in the lazy pull buffer. Token is
// an opaque handle the caller uses to answer the request when released
// (e.g. the response channel or the simulator event).
type Pull struct {
	Worker   int
	Progress int
	Token    any
}

// Stats counts the controller's synchronization activity.
type Stats struct {
	Pulls         int // total pull requests
	Pushes        int // total pushes accepted (gradient applied)
	DPRs          int // pulls that were delayed (buffered)
	DroppedPushes int // pushes rejected by a drop-stragglers model
	Advances      int // V_train increments

	// DedupHits counts duplicate requests absorbed by the serving layer
	// (retransmitted or duplicated pushes/pulls suppressed before they
	// reach the controller). The controller itself never sees
	// duplicates; the field is filled in by the server that owns it.
	DedupHits int
}

// Controller is Algorithm 1's server-side state for one shard.
type Controller struct {
	model Model
	drain DrainPolicy

	n        int
	vtrain   int
	count    map[int]int
	progress []int
	buffer   map[int][]Pull // index: progress (Lazy) or V_train (SoftBarrier)

	// Membership: a worker that leaves the job (churn, crash) is marked
	// inactive so push conditions quorum over the workers actually present
	// instead of waiting forever on a ghost. Departed workers keep their
	// progress entry — their past pushes still count toward closed rounds.
	active  []bool
	activeN int

	rng   *rand.Rand
	stats Stats

	// dprPerRound[r] counts DPRs buffered while V_train == r, feeding the
	// "DPRs per 100 iterations" series of Fig 9 / Table IV.
	dprPerRound map[int]int
	// answerGap[g] counts pulls answered at staleness gap g = progress −
	// V_train at answer time: negative gaps are fresh (BSP-grade) reads,
	// positive gaps stale ones — the distribution behind the paper's
	// freshness-vs-wait trade-off.
	answerGap map[int]int
}

// New creates a controller for n workers using the given model and drain
// policy. rng drives probabilistic conditions (PSSP) and must not be nil
// if the model is probabilistic; a nil rng is replaced by a fixed-seed
// stream so deterministic models need not supply one.
func New(n int, model Model, drain DrainPolicy, rng *rand.Rand) *Controller {
	if n <= 0 {
		panic(fmt.Sprintf("syncmodel: need at least one worker, got %d", n))
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	prog := make([]int, n)
	for i := range prog {
		prog[i] = -1
	}
	act := make([]bool, n)
	for i := range act {
		act[i] = true
	}
	return &Controller{
		model:       model.Instantiate(),
		drain:       drain,
		n:           n,
		count:       make(map[int]int),
		progress:    prog,
		buffer:      make(map[int][]Pull),
		active:      act,
		activeN:     n,
		rng:         rng,
		dprPerRound: make(map[int]int),
		answerGap:   make(map[int]int),
	}
}

// Model returns the synchronization model the controller runs.
func (c *Controller) Model() Model { return c.model }

// Drain returns the controller's drain policy.
func (c *Controller) Drain() DrainPolicy { return c.drain }

// State accessors (Controller implements State).

// NumWorkers implements State. It returns the number of *active* workers:
// conditions like BSP's "all pushed" or drop-stragglers' quorum must not
// wait on workers that have left the job.
func (c *Controller) NumWorkers() int { return c.activeN }

// TotalWorkers returns the controller's rank-space size n, including
// departed workers. Progress/CountAt indices stay in [0,n) for a worker's
// whole lifetime regardless of membership changes.
func (c *Controller) TotalWorkers() int { return c.n }

// Active reports whether worker n is currently a member.
func (c *Controller) Active(n int) bool { return c.active[n] }

// VTrain implements State.
func (c *Controller) VTrain() int { return c.vtrain }

// CountAt implements State.
func (c *Controller) CountAt(i int) int { return c.count[i] }

// Progress implements State.
func (c *Controller) Progress(n int) int { return c.progress[n] }

// MinProgress implements State. Departed workers are excluded — a model
// bounding staleness by the slowest worker must not wedge on a ghost's
// frozen progress. Returns -1 when no worker is active.
func (c *Controller) MinProgress() int {
	minP, seen := -1, false
	for i, p := range c.progress {
		if !c.active[i] {
			continue
		}
		if !seen || p < minP {
			minP, seen = p, true
		}
	}
	return minP
}

// MaxProgress implements State (-1 when no worker is active).
func (c *Controller) MaxProgress() int {
	maxP := -1
	for i, p := range c.progress {
		if c.active[i] && p > maxP {
			maxP = p
		}
	}
	return maxP
}

// Rand implements State.
func (c *Controller) Rand() float64 { return c.rng.Float64() }

// Delayed implements State; it is an alias of Buffered.
func (c *Controller) Delayed() int { return c.Buffered() }

// bufferRounds returns the buffer's round indices in ascending order.
// Every path that walks the whole buffer and releases or drops pulls must
// iterate through this, not the map directly: release order is observable
// (it is the order answers hit the network), and map order would make
// reruns of the same schedule diverge.
func (c *Controller) bufferRounds() []int {
	rounds := make([]int, 0, len(c.buffer))
	for idx := range c.buffer {
		rounds = append(rounds, idx)
	}
	sort.Ints(rounds)
	return rounds
}

// Stats returns a copy of the controller's counters.
func (c *Controller) Stats() Stats { return c.stats }

// Buffered returns the number of pull requests currently delayed.
func (c *Controller) Buffered() int {
	total := 0
	for _, ps := range c.buffer {
		total += len(ps)
	}
	return total
}

// AnswerGapHistogram returns how many pulls were answered at each
// staleness gap (progress − V_train at answer time). Negative gaps mean
// the requester received parameters containing every round it had seen
// plus more (fresh); gap ≥ 0 means rounds were missing (stale).
func (c *Controller) AnswerGapHistogram() map[int]int {
	out := make(map[int]int, len(c.answerGap))
	for g, n := range c.answerGap {
		out[g] = n
	}
	return out
}

// MeanAnswerGap returns the average answered staleness gap (0 if nothing
// was answered yet).
func (c *Controller) MeanAnswerGap() float64 {
	total, sum := 0, 0
	for g, n := range c.answerGap {
		total += n
		sum += g * n
	}
	if total == 0 {
		return 0
	}
	return float64(sum) / float64(total)
}

// DPRsPerRound returns, for rounds [0, upto), how many DPRs were buffered
// while V_train equalled each round — the series plotted in Fig 9.
func (c *Controller) DPRsPerRound(upto int) []int {
	out := make([]int, upto)
	for r, n := range c.dprPerRound {
		if r >= 0 && r < upto {
			out[r] = n
		}
	}
	return out
}

func (c *Controller) observe(worker, progress int) {
	if worker < 0 || worker >= c.n {
		panic(fmt.Sprintf("syncmodel: worker %d out of range [0,%d)", worker, c.n))
	}
	if progress > c.progress[worker] {
		c.progress[worker] = progress
	}
}

// OnPull handles Algorithm 1's PullHandler. It records the worker's
// progress, evaluates the pull condition, and either reports ready=true
// (the caller responds with current parameters now) or buffers the request
// as a DPR to be released by a later OnPush.
func (c *Controller) OnPull(worker, progress int, token any) (ready bool) {
	return c.OnPullLazy(worker, progress, func() any { return token })
}

// OnPullLazy is OnPull for callers whose token costs something to build:
// token runs only when the pull is buffered as a DPR, so a pull answered
// at once (every pull under ASP) never pays for one.
func (c *Controller) OnPullLazy(worker, progress int, token func() any) (ready bool) {
	c.observe(worker, progress)
	c.stats.Pulls++
	if c.model.Pull(c, worker, progress) {
		c.answerGap[progress-c.vtrain]++
		return true
	}
	c.stats.DPRs++
	c.dprPerRound[c.vtrain]++
	idx := progress
	if c.drain == SoftBarrier {
		idx = c.vtrain
	}
	c.buffer[idx] = append(c.buffer[idx], Pull{Worker: worker, Progress: progress, Token: token()})
	return false
}

// OnPush handles Algorithm 1's PushHandler. It returns apply=false when a
// drop-stragglers model rejects a late gradient (the caller must not apply
// it), and the list of previously buffered pulls that this push released —
// the caller answers each with the shard's now-current parameters.
//
// The caller must apply the gradient (when apply is true) *before* calling
// OnPush's released pulls' responders, matching line 15 preceding lines
// 18-20 in the paper. OnPush itself performs no parameter mutation.
func (c *Controller) OnPush(worker, progress int) (apply bool, released []Pull) {
	c.observe(worker, progress)
	if c.model.DropLate && progress < c.vtrain {
		// The round this gradient belongs to has already closed; a
		// drop-stragglers model discards it entirely.
		c.stats.DroppedPushes++
		return false, nil
	}
	c.stats.Pushes++
	// Count only open rounds. A push for an already-closed round (a
	// laggard catching up after drop-stragglers or a runtime model switch
	// moved V_train past it) can never satisfy a push condition, and
	// counting it would recreate retired entries the advance step never
	// deletes again — an unbounded leak under long-lived skew.
	if progress >= c.vtrain {
		c.count[progress]++
	}
	for c.model.Push(c) {
		released = append(released, c.advanceRound()...)
	}
	return true, released
}

// advanceRound closes the current round: it accounts the answer gap of
// every DPR about to drain, releases the buffer slot V_train indexes,
// retires the round counter no condition can reach anymore, bumps
// V_train, and runs the model's Adjust hook. It is the single advance
// step shared by OnPush, SetModel, and ForceAdvance, so every path that
// moves V_train keeps identical bookkeeping (an advance path with its own
// copy of this logic once leaked count entries and undercounted the gap
// histogram after runtime model switches).
func (c *Controller) advanceRound() (released []Pull) {
	for _, p := range c.buffer[c.vtrain] {
		// The release happens as V_train advances past this round.
		c.answerGap[p.Progress-(c.vtrain+1)]++
	}
	released = c.buffer[c.vtrain]
	delete(c.buffer, c.vtrain)
	delete(c.count, c.vtrain-1) // retire counters no condition can reach
	c.vtrain++
	c.stats.Advances++
	if c.model.Adjust != nil {
		c.model.Adjust(c)
	}
	return released
}

// ForceAdvance advances V_train unconditionally and returns released
// pulls. It is used by recovery paths (e.g. when drop-stragglers must make
// progress after worker failure) and by tests. It shares OnPush's advance
// step, so counters retire, answer gaps are recorded, and an adaptive
// model's Adjust hook runs just as on a condition-triggered advance.
func (c *Controller) ForceAdvance() (released []Pull) {
	return c.advanceRound()
}

// Evict removes and returns the buffered pulls match selects, leaving
// the clock untouched. It is for callers whose tokens became unanswerable
// here: a departed worker's pulls (Depart), or pulls for keys a
// membership change moved to another shard — no later push on this shard
// may ever release those, so the caller must redirect them itself.
func (c *Controller) Evict(match func(Pull) bool) (evicted []Pull) {
	for _, idx := range c.bufferRounds() {
		ps := c.buffer[idx]
		kept := ps[:0]
		for _, p := range ps {
			if match(p) {
				evicted = append(evicted, p)
			} else {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			delete(c.buffer, idx)
		} else {
			c.buffer[idx] = kept
		}
	}
	return evicted
}

// Depart removes worker n from the active membership. Its buffered pulls
// are returned as dropped (the caller discards their tokens — the worker is
// gone and must not be answered), and any pulls released because the
// remaining quorum now satisfies the push condition are returned as
// released (the caller answers those normally, exactly like an OnPush
// release). Departing an already-inactive worker is a no-op.
//
// The worker's progress entry and its contributions to open-round counts
// are retained: gradients it pushed before leaving were applied and still
// count toward closing those rounds.
func (c *Controller) Depart(worker int) (dropped, released []Pull) {
	if worker < 0 || worker >= c.n {
		panic(fmt.Sprintf("syncmodel: worker %d out of range [0,%d)", worker, c.n))
	}
	if !c.active[worker] {
		return nil, nil
	}
	c.active[worker] = false
	c.activeN--
	dropped = c.Evict(func(p Pull) bool { return p.Worker == worker })
	// The quorum just shrank: a round that was one push short of closing
	// may now satisfy the push condition. Never advance on an empty
	// membership — "0 of 0 pushed" must not spin the clock forever.
	if c.activeN > 0 {
		for c.model.Push(c) {
			released = append(released, c.advanceRound()...)
		}
	}
	return dropped, released
}

// Rejoin re-admits worker n to the active membership and returns the
// iteration the worker must resume computing from. The resume point is
// max(V_train, progress[n]+1): never below the current clock (a BSP round
// cannot close without the rejoiner's push, and rounds before V_train are
// already closed), and never a round the worker already pushed before it
// left (re-pushing would double-count it). Rejoining an active worker just
// returns the resume point.
func (c *Controller) Rejoin(worker int) (resume int) {
	if worker < 0 || worker >= c.n {
		panic(fmt.Sprintf("syncmodel: worker %d out of range [0,%d)", worker, c.n))
	}
	if !c.active[worker] {
		c.active[worker] = true
		c.activeN++
	}
	resume = c.vtrain
	if p := c.progress[worker] + 1; p > resume {
		resume = p
	}
	return resume
}

// ControllerImage is the portable core of a controller's synchronization
// state: everything a backup replica needs so a promoted server resumes
// the shard's clock exactly where the primary left it. The DPR buffer is
// deliberately absent — buffered pulls die with the primary's process, and
// their workers retransmit into the promoted server, which re-buffers them
// under the restored V_train.
type ControllerImage struct {
	VTrain   int
	Counts   map[int]int
	Progress []int
}

// Image snapshots the controller's replicable state. The maps and slices
// are copies, safe to encode or retain.
func (c *Controller) Image() ControllerImage {
	img := ControllerImage{
		VTrain:   c.vtrain,
		Counts:   make(map[int]int, len(c.count)),
		Progress: append([]int(nil), c.progress...),
	}
	for r, n := range c.count {
		img.Counts[r] = n
	}
	return img
}

// Restore overwrites the controller's clock with a replicated image:
// V_train, open-round push counts, and per-worker progress. Worker count
// must match; the DPR buffer must be empty (restore happens before a
// promoted server answers its first request). Statistics are not
// restored — they count THIS controller's activity.
func (c *Controller) Restore(img ControllerImage) error {
	if len(img.Progress) != c.n {
		return fmt.Errorf("syncmodel: restore image for %d workers into controller with %d", len(img.Progress), c.n)
	}
	if c.Buffered() != 0 {
		return fmt.Errorf("syncmodel: restore into controller with %d buffered pulls", c.Buffered())
	}
	c.vtrain = img.VTrain
	c.count = make(map[int]int, len(img.Counts))
	for r, n := range img.Counts {
		c.count[r] = n
	}
	copy(c.progress, img.Progress)
	return nil
}
