// Package doacross implements the WHILE-DOACROSS construct: pipelined
// parallel execution of loops whose iterations carry cross-iteration
// dependences that can be honoured with explicit synchronization, the
// execution style the paper names for loops whose recurrences cannot be
// evaluated in parallel (Section 1: "the iterations of the loop must be
// started sequentially, leading in the best case to a pipelined
// execution (also known as a DOACROSS)") and the method of Wu & Lewis
// the paper's Section 10 compares against.
//
// Two entry points, both context-first and configured by one options
// struct:
//
//   - Run executes a counted iteration space under post/wait
//     synchronization: iteration i may Wait for any earlier iteration's
//     Post before consuming its value.
//   - RunWhile pipelines a WHILE loop itself: iteration i receives the
//     dispatcher value produced by iteration i-1, advances the
//     recurrence, posts the successor value, and only then executes the
//     (overlappable) remainder — the dispatcher forms the pipeline's
//     critical path while remainders run concurrently.
//
// Cancellation and panic containment never strand a waiter: every
// claimed iteration posts, whether its body ran, was suppressed by a
// QUIT/cancel, or panicked (the post-only drain).  Claims are monotone
// and in order, so every index a pipelined body can wait on is claimed
// by some worker, and every claimed index eventually posts — by
// induction on the lowest in-flight index, the pipeline always drains.
package doacross

import (
	"context"
	"sync"
	"sync/atomic"

	"whilepar/internal/obs"
	"whilepar/internal/sched"
	"whilepar/internal/simproc"
)

// Sync provides post/wait synchronization across iterations.
type Sync struct {
	mu     sync.Mutex
	cond   *sync.Cond
	posted map[int]bool
	// lowAll: every iteration < lowAll has posted (compact common case).
	lowAll int
}

// NewSync returns an empty synchronization structure.
func NewSync() *Sync {
	s := &Sync{posted: make(map[int]bool)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Post marks iteration i's value as produced, releasing any waiters.
func (s *Sync) Post(i int) {
	s.mu.Lock()
	s.posted[i] = true
	for s.posted[s.lowAll] {
		delete(s.posted, s.lowAll)
		s.lowAll++
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Wait blocks until iteration j has posted.  Iterations may only wait on
// strictly earlier iterations; waiting on yourself or the future would
// deadlock the pipeline and panics instead.
func (s *Sync) Wait(self, j int) {
	if j >= self {
		panic("doacross: iteration may only wait on earlier iterations")
	}
	if j < 0 {
		return // dependence out of range: nothing to wait for
	}
	s.mu.Lock()
	for !(j < s.lowAll || s.posted[j]) {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Posted reports whether iteration j has posted (for tests).
func (s *Sync) Posted(j int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j < s.lowAll || s.posted[j]
}

// Control is the body verdict.
type Control int

const (
	Continue Control = iota
	// Quit: this iteration met the termination condition; later
	// iterations are not started (in-flight ones complete).
	Quit
)

// Result reports a DOACROSS execution.
type Result struct {
	Executed  int
	QuitIndex int // smallest quitting iteration; n if none
	// Prefix is the length of the contiguous executed prefix, capped at
	// QuitIndex.  For an uncanceled, panic-free execution it equals
	// min(QuitIndex, n); cancellation or a contained panic may leave it
	// smaller (iterations above it were suppressed or in flight).
	Prefix int
}

// Config bundles the optional knobs of Run and RunWhile into one
// options struct, so each entry point has a single signature instead
// of an arity ladder.  The zero value (1 worker, no hooks,
// spawn-per-call) is valid.
type Config struct {
	// Procs is the number of pipeline workers; values below 1 are
	// treated as 1 (and clamped to Pool's size when a pool is used).
	Procs int
	// Hooks, if non-zero, receives iteration spans (whose duration
	// includes the pipeline's Wait stalls — the critical path is
	// visible in the trace), QUIT posts, and issue/execute/busy
	// counters.
	Hooks obs.Hooks
	// Pool, if non-nil, dispatches the pipeline onto a persistent
	// worker pool: parked goroutines released by one barrier instead of
	// procs fresh spawns per call.  nil keeps the spawn-per-call path
	// (the default and its equivalence oracle).
	Pool *sched.Pool
}

// Run executes iterations [0, n) on cfg.Procs workers.  The body may
// use the Sync to wait for earlier iterations' posts; the runtime posts
// each iteration automatically on completion (a body may also Post
// intermediate events under its own index).  Iterations are issued in
// order (a DOACROSS requirement — iteration i's waiters must already be
// running or done).
//
// Cancellation is observed before every iteration, through the stop
// signal of sched.Claim: the context's watcher sets it when a processor
// is free to run it, and each worker's own poll after every
// cancel.PollEvery iterations it runs.  Once it is set, workers stop
// running bodies, drain their claimed indices by posting them (so
// in-flight waiters are always released), and the call returns the
// Result so far with ErrCanceled/ErrDeadline.  A panicking body is
// contained as a *cancel.PanicError, stops the pipeline like a
// cancellation, and still posts its iteration.
func Run(ctx context.Context, n int, cfg Config, body func(i, vpn int, s *Sync) Control) (Result, error) {
	procs := cfg.Procs
	if procs < 1 {
		procs = 1
	}
	if cfg.Pool != nil && procs > cfg.Pool.Size() {
		procs = cfg.Pool.Size()
	}
	if n <= 0 {
		return Result{QuitIndex: 0}, nil
	}
	h := cfg.Hooks
	c, err := sched.NewClaim(ctx, n, procs, sched.InOrder, h.M)
	if err != nil {
		return Result{QuitIndex: n}, err
	}
	defer c.Close()
	s := NewSync()

	// runIter runs iteration i's body; false means it panicked.
	runIter := func(w *sched.Worker, i, vpn int) (completed bool) {
		// The runtime's completion post must fire on every path out of
		// the body — normal return, QUIT, panic — because posts are what
		// drain the pipeline (deferred: it runs after the recover below).
		defer s.Post(i)
		defer func() {
			if r := recover(); r != nil {
				c.Panic(i, vpn, r)
			}
		}()
		ts := obs.Start(h.T)
		ctl := body(i, vpn, s)
		w.Executed++
		if h.T != nil {
			obs.Span(h.T, ts, "iter", "doacross", vpn, map[string]any{"i": i})
		}
		if ctl == Quit {
			c.Quit(i)
			h.M.QuitPosted()
			if h.T != nil {
				obs.Instant(h.T, "QUIT", "doacross", vpn, map[string]any{"i": i})
			}
		}
		return true
	}

	c.Run(cfg.Pool, func(vpn int) {
		w := c.Worker(vpn)
		for {
			i, _, ok := c.Next(w)
			if !ok {
				return
			}
			c.Span(w, i, i+1, 1)
			if !c.Go(i) {
				// Post-only drain: a claimed index must post even when
				// its body is suppressed.  A later-claimed iteration may
				// have checked before this QUIT/cancel landed and be
				// waiting on this index — returning silently would
				// strand it.
				w.Owe(i, i+1, 1)
				s.Post(i)
				return
			}
			if !runIter(w, i, vpn) {
				w.Owe(i, i+1, 1)
				return
			}
		}
	})

	res := c.Account()
	return Result{Executed: res.Executed, QuitIndex: res.QuitIndex, Prefix: res.Prefix}, c.Err()
}

// RunWhile pipelines a WHILE loop with a sequential dispatcher: start is
// d(0); each iteration i computes d(i+1) = next(d(i)), posts it, then
// runs body(i, d(i)).  cont(d) is the RI termination condition (the
// loop covers at most max iterations).  The dispatcher chain is the
// pipeline's critical path; remainders overlap.  Returns the number of
// valid iterations.
//
// This is the Wu & Lewis-style WHILE-DOACROSS: compared with General-3,
// no traversal is redundant, but every iteration serializes on its
// predecessor's dispatcher hand-off.
//
// The hand-off is a ring of two index-tagged slots: iteration i reads
// slot i%2 and writes slot (i+1)%2 only after its Wait on i-1 returned,
// which is after i-1 read that slot.  Cancellation and panics behave as
// in Run: a drained (never-run) iteration leaves its successor's slot
// with a stale tag, so any iteration that does run past it observes a
// missing predecessor value and terminates — the committed prefix in
// Result.Prefix is exact.
func RunWhile[D any](ctx context.Context, start D, next func(D) D, cont func(D) bool, max int,
	cfg Config, body func(i, vpn int, d D) bool) (Result, error) {
	var ring [2]struct {
		// tag is the iteration whose dispatcher value d holds.  A slot
		// whose tag is stale may still be being written by an iteration
		// that lost its own predecessor, so d is read only under a
		// matching tag.
		tag atomic.Int64
		d   D
	}
	ring[0].d = start

	return Run(ctx, max, cfg, func(i, vpn int, s *Sync) Control {
		s.Wait(i, i-1) // dispatcher value d(i) produced by iteration i-1
		in := &ring[i%2]
		if in.tag.Load() != int64(i) {
			return Quit // predecessor never ran: the recurrence stops here
		}
		d := in.d
		if cont != nil && !cont(d) {
			return Quit
		}
		// Advance the recurrence, publish d(i+1), and post the hand-off
		// immediately so iteration i+1 starts while this iteration's
		// remainder is still running — the overlap is the whole point.
		out := &ring[(i+1)%2]
		out.d = next(d)
		out.tag.Store(int64(i + 1))
		s.Post(i)
		if !body(i, vpn, d) {
			return Quit
		}
		return Continue
	})
}

// SimCosts parameterizes the simulated-time DOACROSS model.
type SimCosts struct {
	// Chain is the per-iteration critical-path cost (the dispatcher
	// advancement plus the post/wait hand-off).
	Chain float64
	// Work(i) is the overlappable remainder cost.
	Work func(i int) float64
	// Dispatch is the per-iteration issue overhead.
	Dispatch float64
}

// Simulate models the pipeline on machine m: iteration i's chain phase
// cannot start before iteration i-1's chain phase completed; the
// remainder then runs on the assigned processor.  Returns the trace.
func Simulate(m *simproc.Machine, n int, c SimCosts) simproc.Trace {
	var tr simproc.Trace
	chainFree := 0.0
	for i := 0; i < n; i++ {
		k := m.EarliestFree()
		start := m.Clock(k) + c.Dispatch
		if start < chainFree {
			start = chainFree
		}
		m.WaitUntil(k, start)
		m.Run(k, c.Chain)
		chainFree = m.Clock(k)
		m.Run(k, c.Work(i))
		tr.Executed++
	}
	tr.Makespan = m.Makespan()
	return tr
}

// SeqTime is the sequential loop under the same model.
func (c SimCosts) SeqTime(n int) float64 {
	t := c.Chain * float64(n)
	for i := 0; i < n; i++ {
		t += c.Work(i)
	}
	return t
}
