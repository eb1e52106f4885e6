// Package genrec implements the General-1, General-2 and General-3
// methods of Section 3.3 (Figure 4) for WHILE loops whose dispatcher is
// a general recurrence — canonically, a pointer traversing a linked
// list.  The dispatcher itself is inherently sequential (a continuous
// chain of flow dependences), so these methods speed the loop up by
// overlapping the *remainder* work of different iterations:
//
//   - General-1 serializes accesses to next() in a critical section: the
//     list is traversed once, cooperatively, but every dispatcher
//     advancement contends for the lock.
//   - General-2 avoids the lock by giving each processor a private
//     cursor that traverses the *entire* list; processor k statically
//     executes the iterations congruent to k mod nproc.
//   - General-3 also avoids the lock and also privately traverses, but
//     assigns iterations dynamically: a processor assigned iteration i
//     advances its private cursor by i - prev hops from the last
//     iteration it processed.  It claims them in chunks that grow as
//     the Dynamic schedule's do (sched.Geometric).
//
// All three execute the same set of iterations as the sequential loop
// when the terminator is RI (pt == nil); with an RV terminator they
// speculate and report the overshoot for the undo machinery.
package genrec

import (
	"context"
	"sync"
	"sync/atomic"

	"whilepar/internal/cancel"
	"whilepar/internal/list"
	"whilepar/internal/loopir"
	"whilepar/internal/mem"
	"whilepar/internal/obs"
	"whilepar/internal/sched"
)

// Body is the remainder executed for each list node; it returns false if
// the iteration met a remainder-variant termination condition (and, by
// the package convention, did so before performing any stores).
//
// Lifetime: as for loopir.Body, the *loopir.Iter is valid only for the
// duration of the call and must not be retained — it is the executing
// worker's slot, re-armed for that worker's next iteration.
type Body func(it *loopir.Iter, node *list.Node) bool

// Config configures a general-recurrence parallel execution.
type Config struct {
	// Procs is the number of virtual processors.
	Procs int
	// Tracker interposes on managed-memory accesses; nil for direct.
	Tracker mem.Tracker
	// U is an upper bound on iterations for the dynamically scheduled
	// methods (the `u` of Figure 4's DOALLs); 0 means "the list length
	// is the bound" (pure RI traversal), discovered by the worker that
	// reaches the end: neither method walks the list beforehand.
	U int
	// Metrics, if non-nil, accumulates runtime counters; Tracer, if
	// non-nil, receives iteration spans and QUIT events.
	Metrics *obs.Metrics
	Tracer  obs.Tracer
	// Pool, if non-nil, runs the per-processor workers on a persistent
	// pool instead of spawning goroutines per call (see sched.Pool).
	Pool *sched.Pool
}

func (c Config) hooks() obs.Hooks { return obs.Hooks{M: c.Metrics, T: c.Tracer} }

// procs is the number of workers that will actually run: a pool never
// runs more than its size, and General-2's static stride must match.
func (c Config) procs() int {
	p := c.Procs
	if c.Pool != nil && p > c.Pool.Size() {
		p = c.Pool.Size()
	}
	if p < 1 {
		return 1
	}
	return p
}

// Result reports a general-method execution.
type Result struct {
	// Valid is the number of valid iterations (list length if no RV
	// exit fired).
	Valid int
	// Executed is the number of iterations whose body ran.
	Executed int
	// Overshot is the number of executed iterations at or beyond Valid.
	Overshot int
	// Hops is the total number of next() advancements performed across
	// all processors: ~n for General-1, ~n*p for General-2, and between
	// n and n*p for General-3 — the redundancy the cost model charges.
	Hops int64
}

// run is the state the workers of one general-method execution share:
// the sched.Claim that holds the stop signal, the QUIT minimum, the
// first panic, each worker's counts and owed iteration and the claim
// cursor, plus the hops the workers made.
//
// No per-iteration record is kept of what ran.  Every method executes
// each claimed (or statically owned) iteration in turn and stops at the
// first it does not execute, so a worker's whole history is two
// numbers: how many bodies it completed, and the one iteration it
// claimed or owned and abandoned.  Together with the claim cursor those
// give the contiguous executed prefix exactly (sched.Claim.Account), and
// since every iteration below the valid count ran exactly once,
// Overshot is Executed - Valid.
type run struct {
	*sched.Claim
	cfg    Config
	method string // tracer category
	body   Body
	slots  loopir.IterSlots
	hops   atomic.Int64
}

// start sets up an execution over at most bound iterations under the
// given issue, runs work on every virtual processor with a worker of
// its own, and resolves the Result after the join.  The valid count is
// the quit index — an RV exit, the bound, or the list length the worker
// that fell off the list posted — capped at the contiguous executed
// prefix; the error is a contained panic, else the context's.
func start(ctx context.Context, method string, body Body, cfg Config, bound int, issue sched.Schedule,
	work func(w *worker)) (Result, error) {
	c, err := sched.NewClaim(ctx, bound, cfg.procs(), issue, cfg.Metrics)
	if err != nil {
		return Result{}, err
	}
	defer c.Close()
	r := &run{Claim: c, cfg: cfg, method: method, body: body, slots: loopir.NewIterSlots(cfg.procs())}
	c.Run(cfg.Pool, func(vpn int) {
		w := worker{run: r, rec: c.Worker(vpn), vpn: vpn}
		defer func() { r.hops.Add(int64(w.hops)) }()
		work(&w)
	})
	res := c.Account()
	overshot := res.Executed - res.Prefix
	cfg.Metrics.OvershotAdd(overshot)
	return Result{Valid: res.Prefix, Executed: res.Executed, Overshot: overshot, Hops: r.hops.Load()}, c.Err()
}

// worker is one virtual processor's view of the execution: its record
// in the claim, and the hops it made, folded into the total as it ends.
type worker struct {
	*run
	rec       *sched.Worker
	vpn, hops int
}

// may is the per-iteration check: it reports whether the worker may
// begin iteration i, and leaves i owed when it may not — the execution
// was stopped or a QUIT below i was posted.  Its runs of iterations are
// bounded by sched.Claim.Span.
func (w *worker) may(i int) bool {
	if !w.Go(i) {
		w.rec.Owe(i, i+1, 1)
		return false
	}
	return true
}

// exec runs iteration i on node behind the panic backstop, counts it
// and posts its RV exit.  It returns false when the body panicked and
// the worker must stop; the iteration stays owed.
func (w *worker) exec(i int, node *list.Node) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			w.Panic(i, w.vpn, r)
			w.rec.Owe(i, i+1, 1)
			ok = false
		}
	}()
	tr := w.cfg.Tracer
	ts := obs.Start(tr)
	quitted := !w.body(w.slots.At(w.vpn, i, w.cfg.Tracker), node)
	w.rec.Executed++
	if tr != nil {
		obs.Span(tr, ts, "iter", w.method, w.vpn, map[string]any{"i": i})
	}
	if quitted {
		w.Quit(i)
		w.cfg.Metrics.QuitPosted()
		if tr != nil {
			obs.Instant(tr, "QUIT", w.method, w.vpn, map[string]any{"i": i})
		}
	}
	return true
}

// General1 runs the loop with lock-serialized next() (Figure 4,
// *General-1*): processors cooperatively traverse the list once, each
// dispatcher advancement inside a critical section.  It preserves the
// historical crash semantics (a panicking body panics the caller); use
// General1Ctx for cancellation and contained panics.
func General1(head *list.Node, body Body, cfg Config) Result {
	res, err := General1Ctx(context.Background(), head, body, cfg)
	if pe, ok := cancel.AsPanic(err); ok {
		panic(pe.Value)
	}
	return res
}

// General1Ctx is General1 under a context: the workers check the stop
// signal before every iteration — set by the context's watcher when a
// processor is free to run it, and by each worker's own poll after
// every cancel.PollEvery iterations it runs, so once ctx is done a
// worker begins at most that many more — the returned Result reports
// the contiguous committed prefix in Valid, and the error is
// ErrCanceled/ErrDeadline.  A panicking body is contained as a
// *cancel.PanicError and stops the traversal the same way.
func General1Ctx(ctx context.Context, head *list.Node, body Body, cfg Config) (Result, error) {
	var (
		mu  sync.Mutex
		cur = head
	)
	bound := cfg.U
	if bound <= 0 {
		bound = none // nil ends it
	}
	return start(ctx, "general-1", body, cfg, bound, sched.InOrder, func(w *worker) {
		for {
			mu.Lock()
			i, _, ok := w.Next(w.rec)
			pt := cur
			if ok && pt != nil {
				cur = pt.Next
			}
			mu.Unlock()
			if !ok {
				return
			}
			if pt == nil {
				w.Quit(i) // fell off the list: its length caps validity
				return
			}
			w.hops++
			w.Span(w.rec, i, i+1, 1)
			if !w.may(i) || !w.exec(i, pt) {
				return
			}
		}
	})
}

// none is the bound of a list whose length is not known beforehand.
const none = int(^uint(0) >> 1)

// General2 runs the loop with static mod-p assignment (Figure 4,
// *General-2*): each processor traverses the entire list with a private
// cursor and executes the iterations congruent to its vpn mod nproc.  No
// lock is taken; the list is traversed p times in total.  Panics crash
// the caller; use General2Ctx for cancellation and contained panics.
func General2(head *list.Node, body Body, cfg Config) Result {
	res, err := General2Ctx(context.Background(), head, body, cfg)
	if pe, ok := cancel.AsPanic(err); ok {
		panic(pe.Value)
	}
	return res
}

// General2Ctx is General2 under a context (see General1Ctx for the
// cancellation and panic contract).  Nothing walks the list beforehand:
// the worker that falls off it posts its length as a QUIT.
func General2Ctx(ctx context.Context, head *list.Node, body Body, cfg Config) (Result, error) {
	p := cfg.procs()
	return start(ctx, "general-2", body, cfg, none, sched.Static, func(w *worker) {
		// pt is the node of iteration at, or nil once at is the length;
		// the worker may begin the iterations below end before its next
		// poll.
		pt, at, end := head, 0, 0
		hop := func(k int) {
			for ; k > 0 && pt != nil; k-- {
				pt = pt.Next
				at++
				w.hops++
			}
		}
		for hop(w.vpn); pt != nil; hop(p) {
			w.rec.Issued++
			if at >= end {
				end = w.Span(w.rec, at, none, p)
			}
			if !w.may(at) || !w.exec(at, pt) {
				return
			}
		}
		w.Quit(at)
	})
}

// General3 runs the loop with dynamic assignment and private cursors
// (Figure 4, *General-3*): a processor assigned iteration i advances its
// private cursor i - prev hops.  No lock is taken; the total hop count
// lies between n (perfect locality) and n*p.  Panics crash the caller;
// use General3Ctx for cancellation and contained panics.
func General3(head *list.Node, body Body, cfg Config) Result {
	res, err := General3Ctx(context.Background(), head, body, cfg)
	if pe, ok := cancel.AsPanic(err); ok {
		panic(pe.Value)
	}
	return res
}

// General3Ctx is General3 under a context (see General1Ctx for the
// cancellation and panic contract).
// Iterations are claimed in chunks of sched.Geometric sizes, so the
// claim cursor is written once per chunk; QUIT and stop are checked
// per iteration, so overshoot stays bounded by the iterations in
// flight, and an abandoned chunk's first unexecuted iteration is owed.
func General3Ctx(ctx context.Context, head *list.Node, body Body, cfg Config) (Result, error) {
	bound := cfg.U
	if bound <= 0 {
		bound = none // unknown: the end of the list is found on the way
	}
	return start(ctx, "general-3", body, cfg, bound, sched.Dynamic, func(w *worker) {
		pt := head
		prev := 0 // pt currently points at iteration index `prev`
		for {
			lo, hi, ok := w.Next(w.rec)
			if !ok {
				return
			}
			for i := lo; i < hi; {
				for end := w.Span(w.rec, i, hi, 1); i < end; i++ {
					if !w.may(i) {
						return
					}
					for ; prev < i && pt != nil; prev++ {
						pt = pt.Next
						w.hops++
					}
					if pt == nil {
						// Fell off the list: its length caps validity.
						w.Quit(prev)
						return
					}
					if !w.exec(i, pt) {
						return
					}
				}
			}
		}
	})
}
