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
	"runtime/debug"
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

// ctxGuard bundles the cancellation and panic plumbing shared by the
// three general methods: a stop flag flipped by context.AfterFunc (one
// plain atomic load per iteration instead of a channel poll) and
// first-panic capture.
type ctxGuard struct {
	stop    atomic.Bool
	panicAt atomic.Pointer[cancel.PanicError]
	release func() bool
}

func newCtxGuard(ctx context.Context) *ctxGuard {
	g := &ctxGuard{}
	if ctx != nil && ctx.Done() != nil {
		g.release = context.AfterFunc(ctx, func() { g.stop.Store(true) })
	}
	return g
}

func (g *ctxGuard) done() {
	if g.release != nil {
		g.release()
	}
}

// contain runs one iteration's body behind a recover backstop.  ok is
// false when the body panicked: the panic has been captured (first one
// wins), siblings have been told to stop, and the caller must not
// count the iteration as executed.
func (g *ctxGuard) contain(body Body, it *loopir.Iter, node *list.Node, m *obs.Metrics) (quitted, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			pe := &cancel.PanicError{Iter: it.Index, VPN: it.VPN, Value: r, Stack: debug.Stack()}
			if g.panicAt.CompareAndSwap(nil, pe) {
				m.WorkerPanic()
			}
			g.stop.Store(true)
			ok = false
		}
	}()
	return !body(it, node), true
}

// quitMin tracks the smallest iteration index that signalled an RV exit.
type quitMin struct{ v atomic.Int64 }

func newQuitMin(def int) *quitMin {
	q := &quitMin{}
	q.v.Store(int64(def))
	return q
}

func (q *quitMin) record(i int) {
	for {
		cur := q.v.Load()
		if int64(i) >= cur || q.v.CompareAndSwap(cur, int64(i)) {
			return
		}
	}
}

func (q *quitMin) get() int { return int(q.v.Load()) }

// none marks a worker that owes no iteration.
const none = int(^uint(0) >> 1)

// run is the state the workers of one general-method execution share.
//
// No per-iteration record is kept of what ran.  Every method executes
// each claimed (or statically owned) iteration in turn and stops at the
// first it does not execute, so a worker's whole history is two
// numbers: how many bodies it completed, and the one iteration it
// claimed or owned and abandoned — to a panic, or in General-2 to the
// stop flag.  Together with the methods' claim cursor those give the
// contiguous executed prefix exactly, and since every iteration below
// the valid count ran exactly once, Overshot is Executed - Valid.
type run struct {
	cfg    Config
	method string // tracer category
	body   Body
	quit   *quitMin
	g      *ctxGuard
	slots  loopir.IterSlots
	hops   atomic.Int64
	// Indexed by vpn, each element written once, by fold.
	executed, owed []int
}

func newRun(ctx context.Context, method string, body Body, cfg Config, bound int) *run {
	p := cfg.procs()
	r := &run{cfg: cfg, method: method, body: body, quit: newQuitMin(bound), g: newCtxGuard(ctx),
		slots: loopir.NewIterSlots(p), executed: make([]int, p), owed: make([]int, p)}
	for vpn := range r.owed {
		r.owed[vpn] = none
	}
	return r
}

// each runs work on every virtual processor with a worker of its own and
// folds each worker's private counts in as it ends.
func (r *run) each(ctx context.Context, work func(w *worker)) error {
	return sched.ForEachProc(ctx, r.cfg.procs(), sched.ProcConfig{Hooks: r.cfg.hooks(), Pool: r.cfg.Pool}, func(vpn int) {
		w := worker{run: r, vpn: vpn, owed: r.owed[vpn]}
		defer w.fold()
		work(&w)
	})
}

// result resolves the execution's outcome after the join.  valid is the
// quit-derived valid count and claimed the first iteration no worker
// claimed (none for a static assignment).  When the run ended early,
// holes may sit below valid: it is capped at the contiguous executed
// prefix, the lowest iteration somebody owed or nobody claimed.  The
// error surfaced is an iteration-precise panic before the join error,
// itself either a pool-backstop panic or the wrapped context error.
func (r *run) result(valid, claimed int, runErr error) (Result, error) {
	r.g.done()
	err := runErr
	if pe := r.g.panicAt.Load(); pe != nil {
		err = pe
	}
	executed := 0
	for vpn, n := range r.executed {
		executed += n
		if err != nil && r.owed[vpn] < claimed {
			claimed = r.owed[vpn]
		}
	}
	if err != nil && claimed < valid {
		valid = claimed
	}
	overshot := executed - valid
	r.cfg.Metrics.OvershotAdd(overshot)
	return Result{Valid: valid, Executed: executed, Overshot: overshot, Hops: r.hops.Load()}, err
}

// worker is one virtual processor's private state.  Everything that is
// only summed at the end — hops, issued and executed counts, the owed
// iteration — accumulates here, in memory no other worker touches, and
// is folded into the shared state once, by fold.
type worker struct {
	*run
	vpn                    int
	hops, issued, executed int
	// owed is the iteration this worker must still execute for the
	// prefix to pass it; none when it has no such iteration.
	owed int
}

func (w *worker) fold() {
	w.run.hops.Add(int64(w.hops))
	w.cfg.Metrics.IterIssued(w.issued)
	w.cfg.Metrics.IterExecutedN(w.vpn, w.executed)
	w.run.executed[w.vpn], w.run.owed[w.vpn] = w.executed, w.owed
}

// exec runs iteration i on node behind the panic backstop, counts it
// and posts its RV exit.  It returns false when the body panicked and
// the worker must stop; the iteration stays owed.
func (w *worker) exec(i int, node *list.Node) bool {
	tr := w.cfg.Tracer
	ts := obs.Start(tr)
	w.owed = i
	quitted, ok := w.g.contain(w.body, w.slots.At(w.vpn, i, w.cfg.Tracker), node, w.cfg.Metrics)
	if !ok {
		return false
	}
	w.owed = none
	w.executed++
	if tr != nil {
		obs.Span(tr, ts, "iter", w.method, w.vpn, map[string]any{"i": i})
	}
	if quitted {
		w.quit.record(i)
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

// General1Ctx is General1 under a context: cancellation is observed at
// iteration boundaries (workers stop claiming list nodes within one
// iteration), the returned Result reports the contiguous committed
// prefix in Valid, and the error is ErrCanceled/ErrDeadline.  A
// panicking body is contained as a *cancel.PanicError and stops the
// traversal the same way.
func General1Ctx(ctx context.Context, head *list.Node, body Body, cfg Config) (Result, error) {
	var (
		mu  sync.Mutex
		cur = head
		idx int
	)
	bound := cfg.U
	if bound <= 0 {
		bound = int(^uint(0) >> 1) // effectively unbounded; nil ends it
	}
	r := newRun(ctx, "general-1", body, cfg, bound)
	runErr := r.each(ctx, func(w *worker) {
		for {
			mu.Lock()
			if r.g.stop.Load() || cur == nil || idx >= bound || idx > r.quit.get() {
				mu.Unlock()
				return
			}
			pt := cur
			i := idx
			cur = cur.Next
			idx++
			mu.Unlock()
			w.hops++
			w.issued++
			if !w.exec(i, pt) {
				return
			}
		}
	})
	valid := r.quit.get()
	if valid >= bound {
		valid = idxClamp(idx, bound)
	}
	return r.result(valid, idx, runErr)
}

func idxClamp(n, bound int) int {
	if n > bound {
		return bound
	}
	return n
}

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
// cancellation and panic contract).
func General2Ctx(ctx context.Context, head *list.Node, body Body, cfg Config) (Result, error) {
	p := cfg.procs()
	n := list.Len(head) // headers walk; counted as hops below per processor
	r := newRun(ctx, "general-2", body, cfg, n)
	// Worker k owns iterations k, k+p, ...: until it runs, it owes k.
	for vpn := range r.owed {
		r.owed[vpn] = vpn
	}
	runErr := r.each(ctx, func(w *worker) {
		pt := head
		// Initial advance to this processor's first iteration.
		for j := 0; j < w.vpn && pt != nil; j++ {
			pt = pt.Next
			w.hops++
		}
		for i := w.vpn; pt != nil; i += p {
			w.owed = i
			if r.g.stop.Load() {
				return
			}
			w.issued++
			if i > r.quit.get() {
				return
			}
			if !w.exec(i, pt) {
				return
			}
			for j := 0; j < p && pt != nil; j++ {
				pt = pt.Next
				w.hops++
			}
		}
	})
	return r.result(r.quit.get(), none, runErr)
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
// claim counter is written once per chunk; QUIT and stop are checked
// per iteration, so overshoot stays bounded by the iterations in
// flight, and an abandoned chunk's first unexecuted iteration is owed.
func General3Ctx(ctx context.Context, head *list.Node, body Body, cfg Config) (Result, error) {
	bound := cfg.U
	if bound <= 0 {
		bound = none // unknown: the end of the list is found on the way
	}
	// The claim counter is the one word every chunk writes; a line of
	// padding either side keeps it off the lines they all read.
	var claim struct {
		_    [64]byte
		next atomic.Int64
		_    [64]byte
	}
	r := newRun(ctx, "general-3", body, cfg, bound)
	runErr := r.each(ctx, func(w *worker) {
		pt := head
		prev := 0 // pt currently points at iteration index `prev`
		chunk := sched.NewGeometric(bound, r.cfg.procs())
		for !r.g.stop.Load() {
			lo := int(claim.next.Add(chunk.Size) - chunk.Size)
			if lo >= bound {
				return
			}
			hi := idxClamp(lo+int(chunk.Size), bound)
			chunk.Grow()
			for i := lo; i < hi; i++ {
				w.owed = i
				if r.g.stop.Load() {
					return
				}
				w.issued++
				if i > r.quit.get() {
					return
				}
				for ; prev < i && pt != nil; prev++ {
					pt = pt.Next
					w.hops++
				}
				if pt == nil {
					// Fell off the list: its length caps validity.
					r.quit.record(prev)
					return
				}
				if !w.exec(i, pt) {
					return
				}
			}
		}
	})
	return r.result(r.quit.get(), idxClamp(int(claim.next.Load()), bound), runErr)
}
