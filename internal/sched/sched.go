// Package sched is the goroutine-backed DOALL substrate: it executes the
// iteration space of a transformed WHILE loop on p virtual processors
// with either dynamic (self-scheduled) or static (mod-p, General-2
// style) assignment, and implements the Alliant-style QUIT semantics of
// Section 3.1: once an iteration signals QUIT, iterations with larger
// indices are never begun, while all iterations with smaller indices are
// executed; if several iterations signal QUIT, the smallest controls the
// exit.
//
// This executor establishes the *functional correctness* of every loop
// transformation under true concurrency.  Timing/speedup measurement is
// the job of internal/simproc — the host running the test suite may have
// a single CPU, whereas the paper's curves need 1..8 processors with
// controlled cost ratios.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"whilepar/internal/cancel"
	"whilepar/internal/obs"
)

// ErrUnknownSchedule is the typed sentinel Validate wraps when handed a
// Schedule constant outside the known set; callers test for it with
// errors.Is.
var ErrUnknownSchedule = errors.New("sched: unknown schedule")

// Control is a loop body's verdict for one iteration.
type Control int

const (
	// Continue: the iteration completed normally.
	Continue Control = iota
	// Quit: the iteration met a termination condition; iterations with
	// larger indices must not be started (they may already be running).
	Quit
)

// Schedule selects how iterations are assigned to virtual processors.
type Schedule int

const (
	// Dynamic self-scheduling: each free processor claims the next
	// unissued chunk of iterations from the shared counter, the chunk
	// growing geometrically (1, 2, 4, ... capped relative to n/p) so
	// the fetch-add and metrics costs amortize while the first claims
	// stay small enough for load balance (the paper's dynamically
	// scheduled DOALL, used by Induction-1/2 and General-1/3).
	Dynamic Schedule = iota
	// Static mod-p assignment: processor k runs iterations congruent to
	// k modulo p (the assignment of General-2).
	Static
	// Guided self-scheduling: each free processor claims a chunk of
	// ceil(remaining/(2p)) iterations, amortizing the dispatch overhead
	// over early (large) chunks while keeping late (small) chunks for
	// load balance.  An extension beyond the paper's dynamic/static
	// pair, used by the scheduling-overhead ablation.
	Guided
	// Stealing splits the iteration space into p contiguous blocks,
	// one per virtual processor, each with its own (cache-line padded)
	// claim cursor: a worker drains its home block and only then scans
	// the other blocks for leftovers.  On the common balanced strip
	// this removes the all-workers fetch-add contention of Dynamic —
	// each cursor is touched by one worker — while imbalance still
	// redistributes through the stealing pass.  QUIT semantics are
	// preserved by the same monotone-cursor argument as Dynamic,
	// applied per block (see the dilemma note below DOALLCtx).
	Stealing
)

// Options configures a DOALL execution.
type Options struct {
	// Procs is the number of virtual processors (goroutines). Values
	// below 1 are treated as 1.
	Procs int
	// Schedule selects dynamic or static iteration assignment.
	Schedule Schedule
	// Metrics, if non-nil, accumulates issue/execute/overshoot counts,
	// per-vpn busy counts and Guided chunk sizes.  nil records nothing.
	Metrics *obs.Metrics
	// Tracer, if non-nil, receives iteration spans and QUIT events.
	// nil costs one branch per potential event.
	Tracer obs.Tracer
	// Pool, if non-nil, dispatches workers onto a persistent pool
	// instead of spawning goroutines: Procs is clamped to the pool's
	// size and each DOALL costs one barrier release instead of p
	// spawns.  nil keeps the spawn-per-call path — the default and the
	// equivalence oracle for the pool.
	Pool *Pool
}

func (o Options) procs() int {
	if o.Procs < 1 {
		return 1
	}
	return o.Procs
}

// Result reports what a DOALL execution did.
type Result struct {
	// Executed is the number of iterations whose body ran.
	Executed int
	// QuitIndex is the smallest iteration index that returned Quit, or
	// n if none did.  All iterations below it were executed; it and
	// anything above it that ran speculatively counts as overshoot for
	// RV loops.
	QuitIndex int
	// Overshot is the number of executed iterations with index >= the
	// final QuitIndex — the quitting iteration itself plus every
	// speculative iteration above it that ran.  The accounting is exact:
	// it is computed after all workers have finished, against the final
	// quit index, so Executed == min(QuitIndex, n) + Overshot always
	// holds for a run-to-completion execution (every iteration below the
	// final QuitIndex runs exactly once).  A canceled or panicked
	// execution may leave holes below QuitIndex; Prefix is the honest
	// committed prefix in that case.
	Overshot int
	// Prefix is the length of the contiguous executed prefix, capped at
	// QuitIndex: every iteration in [0, Prefix) ran.  For an uncanceled,
	// panic-free execution Prefix == min(QuitIndex, n); after a
	// cancellation or contained panic it may be smaller.
	Prefix int
}

// blockCursor is one Stealing block's claim cursor, padded to a cache
// line so the p cursors — each written by its home worker on the common
// balanced path — never false-share.
type blockCursor struct {
	c atomic.Int64
	_ [56]byte
}

// tally is one worker's private accounting, written once per chunk and
// padded so that no two workers' tallies share a cache line.  The
// iteration path itself writes nothing shared: what ran is recovered
// after the join from the tallies and the claim cursors (see account).
type tally struct {
	// executed counts the iterations whose body completed.
	executed int
	// hole is the unexecuted tail — indices lo, lo+stride, ... below
	// hi — of the chunk this worker abandoned last.
	hole struct{ lo, hi, stride int }
	_    [32]byte
}

// doall is the shared state of one DOALL execution.
type doall struct {
	// quitAt (the smallest index that returned Quit) and stopped (the
	// cancellation/panic flag) are read before every iteration and
	// written a handful of times per execution.
	quitAt  atomic.Int64
	stopped atomic.Bool
	panicAt atomic.Pointer[cancel.PanicError]

	// next is the Dynamic and Guided issue counter.  Every claim writes
	// it, so a full line of padding on either side keeps it off the
	// lines every iteration reads, whatever the struct's alignment.
	_    [64]byte
	next atomic.Int64
	_    [64]byte

	n, p     int
	schedule Schedule
	body     func(i, vpn int) Control
	m        *obs.Metrics
	tr       obs.Tracer

	// Stealing: one claim cursor per home block of blockSpan indices.
	blocks    []blockCursor
	blockSpan int

	tallies []tally
}

// DOALL executes iterations [0, n) of body on opts.procs() goroutines
// with QUIT semantics.  body receives the iteration index and the
// virtual processor number and must be safe for concurrent invocation on
// distinct iterations.
//
// Guarantee: every iteration with index below the final QuitIndex is
// executed exactly once.  No iteration is executed twice.  Iterations
// above the final QuitIndex may or may not be executed (speculative
// overshoot), mirroring a machine where in-flight iterations complete
// after a QUIT.
//
// DOALL runs to completion and preserves the historical crash semantics:
// a panicking body panics the caller.  Use DOALLCtx for cancellation and
// contained panics.
func DOALL(n int, opts Options, body func(i, vpn int) Control) Result {
	res, err := DOALLCtx(context.Background(), n, opts, body)
	if pe, ok := cancel.AsPanic(err); ok {
		panic(pe.Value)
	}
	return res
}

// DOALLCtx is DOALL under a context.  Cancellation is cooperative and
// observed at chunk claims and iteration boundaries: once ctx is done,
// workers stop claiming work and return within one chunk, and the call
// returns the Result accumulated so far (Result.Prefix is the committed
// contiguous prefix) together with ErrCanceled or ErrDeadline.
//
// A panicking body is contained by the worker that ran it: the first
// panic is converted into a *cancel.PanicError carrying the iteration
// and virtual processor, sibling workers are stopped as for a
// cancellation, and the error is returned (matching ErrWorkerPanic under
// errors.Is).  Workers never leak and the pool barrier, when one is
// used, always completes.
func DOALLCtx(ctx context.Context, n int, opts Options, body func(i, vpn int) Control) (Result, error) {
	p := opts.procs()
	if opts.Pool != nil && p > opts.Pool.Size() {
		// The workers bake p into their schedules (the Static stride,
		// the Guided chunk divisor), so the clamp comes first.
		p = opts.Pool.Size()
	}
	if n <= 0 {
		return Result{QuitIndex: 0}, nil
	}
	m := opts.Metrics
	if err := cancel.Err(ctx); err != nil {
		m.CtxCancel()
		return Result{QuitIndex: n}, err
	}

	d := &doall{n: n, p: p, schedule: opts.Schedule, body: body, m: m, tr: opts.Tracer,
		tallies: make([]tally, p)}
	d.quitAt.Store(int64(n))
	if d.schedule == Stealing {
		d.blocks = make([]blockCursor, p)
		d.blockSpan = (n + p - 1) / p
		for k := range d.blocks {
			d.blocks[k].c.Store(int64(k * d.blockSpan))
		}
	}

	// One atomic flag, flipped by context.AfterFunc, makes the per-chunk
	// cancellation check a plain load instead of a channel poll.
	if ctx != nil && ctx.Done() != nil {
		stopWatch := context.AfterFunc(ctx, func() { d.stopped.Store(true) })
		defer stopWatch()
	}

	if opts.Pool != nil {
		// One barrier release instead of p spawns.  Pool workers with
		// vpn >= p (the clamp above makes this impossible, but a
		// smaller Procs is allowed) just arrive at the barrier.
		m.PoolDispatch(p)
		if err := opts.Pool.Run(func(vpn int) {
			if vpn < p {
				d.worker(vpn)
			}
		}); err != nil {
			// Backstop for panics escaping the per-chunk recover (i.e.
			// in the scheduling code itself, not a body).
			if pe, ok := cancel.AsPanic(err); ok && d.panicAt.CompareAndSwap(nil, pe) {
				m.WorkerPanic()
			}
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(p)
		for k := 0; k < p; k++ {
			go func(vpn int) {
				defer wg.Done()
				d.worker(vpn)
			}(k)
		}
		wg.Wait()
	}

	res := d.account()
	m.OvershotAdd(res.Overshot)
	if pe := d.panicAt.Load(); pe != nil {
		return res, pe
	}
	if err := cancel.Err(ctx); err != nil {
		m.CtxCancel()
		return res, err
	}
	return res, nil
}

// runChunk executes iterations lo, lo+stride, ... below hi in order on
// worker vpn and adds them to its tally.  It stops early — recording the
// unexecuted tail as the worker's hole and returning false — once the
// execution is stopped, a QUIT below the next index has been posted, or
// the body panics (the panic is contained here, once per chunk, and the
// panicking iteration counts as not executed).
func (d *doall) runChunk(lo, hi, stride, vpn int) (whole bool) {
	t := &d.tallies[vpn]
	i, done := lo, 0
	defer func() {
		if r := recover(); r != nil {
			pe := &cancel.PanicError{Iter: i, VPN: vpn, Value: r, Stack: debug.Stack()}
			if d.panicAt.CompareAndSwap(nil, pe) {
				d.m.WorkerPanic()
			}
			d.stopped.Store(true)
		}
		t.executed += done
		d.m.IterExecutedN(vpn, done)
		if !whole {
			t.hole.lo, t.hole.hi, t.hole.stride = lo+done*stride, hi, stride
		}
	}()
	for ; i < hi; i += stride {
		if d.stopped.Load() || int64(i) > d.quitAt.Load() {
			return false
		}
		ts := obs.Start(d.tr)
		c := d.body(i, vpn)
		done++
		if d.tr != nil {
			obs.Span(d.tr, ts, "iter", "doall", vpn, map[string]any{"i": i})
		}
		if c == Quit {
			// CAS-min on quitAt.
			for {
				cur := d.quitAt.Load()
				if int64(i) >= cur || d.quitAt.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
			d.m.QuitPosted()
			if d.tr != nil {
				obs.Instant(d.tr, "QUIT", "doall", vpn, map[string]any{"i": i})
			}
		}
	}
	return true
}

// geometric is the chunk-size sequence Dynamic and Stealing claim with:
// per-worker claims double from 1 up to a cap that keeps at least ~8
// chunks per worker available for balance.
type geometric struct{ size, max int64 }

func newGeometric(n, p int) geometric {
	max := int64(n / (8 * p))
	if max > 64 {
		max = 64
	}
	if max < 1 {
		max = 1
	}
	return geometric{size: 1, max: max}
}

func (g *geometric) grow() {
	if g.size < g.max {
		g.size *= 2
		if g.size > g.max {
			g.size = g.max
		}
	}
}

// worker is one virtual processor's activation: claim chunks under the
// execution's schedule and run them until the space is exhausted, a
// QUIT at an index below the next chunk has been posted, or the
// execution is stopped — claiming further chunks could only produce
// dead work.
func (d *doall) worker(vpn int) {
	n, p, m := int64(d.n), d.p, d.m
	switch d.schedule {
	case Stealing:
		// Claims hit the home block's private cursor first; only after
		// the home block is drained (or killed by a QUIT below it) does
		// the worker scan the other blocks, round-robin from its own.
		chunk := newGeometric(d.n, p)
		for k := 0; k < p; k++ {
			b := (vpn + k) % p
			end := int64((b + 1) * d.blockSpan)
			if end > n {
				end = n
			}
			cur := &d.blocks[b].c
			for {
				c := cur.Load()
				if d.stopped.Load() {
					return
				}
				if c >= end || c > d.quitAt.Load() {
					// Block exhausted, or its smallest unclaimed index
					// is beyond a posted QUIT: every index still
					// unclaimed here is dead work.  Cursors are
					// monotone and quitAt only decreases, so a finished
					// block never revives — one pass over all p blocks
					// covers the whole space.
					break
				}
				size := chunk.size
				if rem := end - c; size > rem {
					size = rem
				}
				if !cur.CompareAndSwap(c, c+size) {
					continue
				}
				m.IterIssued(int(size))
				if k == 0 {
					m.DynamicChunk(int(size))
				} else {
					m.StealChunk(int(size))
				}
				chunk.grow()
				d.runChunk(int(c), int(c+size), 1, vpn)
			}
		}
	case Static:
		// Processor k runs the iterations congruent to k modulo p, in
		// order, as one strided chunk: once a smaller iteration has
		// quit, the larger ones are not begun.
		if vpn < d.n {
			before := d.tallies[vpn].executed
			whole := d.runChunk(vpn, d.n, p, vpn)
			issued := d.tallies[vpn].executed - before
			if !whole && !d.stopped.Load() {
				issued++ // the iteration that found the QUIT below it
			}
			m.IterIssued(issued)
		}
	case Guided:
		for {
			// Claim a chunk of ceil(remaining/(2p)) iterations.
			cur := d.next.Load()
			if d.stopped.Load() || cur >= n || cur > d.quitAt.Load() {
				return
			}
			size := (n - cur + int64(2*p) - 1) / int64(2*p)
			if size < 1 {
				size = 1
			}
			if !d.next.CompareAndSwap(cur, cur+size) {
				continue
			}
			m.IterIssued(int(size))
			m.GuidedChunk(int(size))
			if !d.runChunk(int(cur), int(cur+size), 1, vpn) {
				return
			}
		}
	default: // Dynamic
		// Correctness is the Guided argument: the claim counter is
		// monotone, chunks are processed in order with a per-iteration
		// QUIT check, and no chunk is claimed once the counter passes
		// the posted quit index.
		chunk := newGeometric(d.n, p)
		for {
			cur := d.next.Load()
			if d.stopped.Load() || cur >= n || cur > d.quitAt.Load() {
				return
			}
			size := chunk.size
			if rem := n - cur; size > rem {
				size = rem
			}
			if !d.next.CompareAndSwap(cur, cur+size) {
				continue
			}
			m.IterIssued(int(size))
			m.DynamicChunk(int(size))
			chunk.grow()
			if !d.runChunk(int(cur), int(cur+size), 1, vpn) {
				return
			}
		}
	}
}

// account computes the Result after the join, exactly, from O(p) state.
// Every index is in one of three places: executed; in the tail of a
// chunk its worker abandoned; or never claimed (at or beyond a claim
// cursor).  A worker abandons a chunk either because of a QUIT below the
// tail — the tail then lies wholly above the final quit index, since
// quitAt only decreases — or because the execution was stopped, after
// which it claims nothing more; so each worker's last abandoned tail is
// the only one that can hold indices below the final quit index.  The
// holes below it are therefore the last tails plus the unclaimed ranges,
// both clipped to the quit index: what is below it and not a hole ran
// exactly once, and the rest of what ran is overshoot.
func (d *doall) account() Result {
	q := int(d.quitAt.Load())
	executed, firstHole, holesBelow := 0, d.n, 0
	hole := func(lo, hi, stride int) {
		if lo >= hi {
			return
		}
		if lo < firstHole {
			firstHole = lo
		}
		if hi > q {
			hi = q
		}
		if lo < hi {
			holesBelow += (hi - lo + stride - 1) / stride
		}
	}
	for k := range d.tallies {
		t := &d.tallies[k]
		executed += t.executed
		hole(t.hole.lo, t.hole.hi, t.hole.stride)
	}
	switch d.schedule {
	case Stealing:
		for b := range d.blocks {
			end := (b + 1) * d.blockSpan
			if end > d.n {
				end = d.n
			}
			hole(int(d.blocks[b].c.Load()), end, 1)
		}
	case Static:
		// No claim cursor: each worker's whole assignment is one chunk,
		// so its tail is already in its tally.
	default:
		hole(int(d.next.Load()), d.n, 1)
	}
	below := q
	if below > d.n {
		below = d.n
	}
	prefix := below
	if firstHole < prefix {
		prefix = firstHole
	}
	return Result{
		Executed:  executed,
		QuitIndex: q,
		Overshot:  executed - (below - holesBelow),
		Prefix:    prefix,
	}
}

// Dilemma with dynamic scheduling and QUIT: iterations strictly below the
// minimum quitting index must all run even if they are issued after the
// QUIT.  DOALL guarantees this because the issue counter is monotone: by
// the time iteration q returns Quit, every index below q has already
// been claimed (dynamic/guided chunks cover the counter's prefix, and
// each owner processes its chunk in order, skipping only indices
// strictly above the posted quit) or is owned by a processor that will
// reach it before breaking (static, in-order per processor).  Stealing
// applies the same argument per block: each block's cursor is monotone,
// every worker's scan leaves a block only when it is exhausted or its
// smallest unclaimed index exceeds the posted quit (which only
// decreases), so an index below the final quit in any block is always
// claimed by some worker's pass and executed by its in-order chunk walk.

// ProcConfig bundles the optional knobs of ForEachProc into one options
// struct, so the entry point has a single signature instead of an
// arity ladder.  The zero value (no hooks, spawn-per-call) is valid.
type ProcConfig struct {
	// Hooks, if non-zero, receives worker spans and pool-dispatch
	// counts.
	Hooks obs.Hooks
	// Pool, if non-nil, dispatches the workers onto a persistent pool
	// (procs is clamped to its size) instead of spawning goroutines.
	Pool *Pool
}

// ForEachProc runs fn(vpn) on procs workers and waits; it is the
// "doall i = 1, nproc" idiom of General-2 (Fig. 4).  Each virtual
// processor's whole activation is traced as one span (cfg.Hooks), so
// the per-vpn lanes of a Chrome trace show when workers were alive.
//
// A ctx that is already done prevents any worker from starting; a ctx
// canceled mid-run cannot interrupt fn (the workers run one activation
// each — cooperative engines layered on top poll their own stop flags)
// but is reported in the returned error.  A panicking fn is contained:
// the first panic is returned as a *cancel.PanicError (Iter == -1, the
// panic was not tied to an iteration), the remaining workers complete,
// and the pool barrier, when one is used, always completes.
func ForEachProc(ctx context.Context, procs int, cfg ProcConfig, fn func(vpn int)) error {
	if procs < 1 {
		procs = 1
	}
	h := cfg.Hooks
	if err := cancel.Err(ctx); err != nil {
		h.M.CtxCancel()
		return err
	}

	var panicAt atomic.Pointer[cancel.PanicError]
	run := func(vpn int) {
		defer func() {
			if r := recover(); r != nil {
				pe := &cancel.PanicError{Iter: -1, VPN: vpn, Value: r, Stack: debug.Stack()}
				if panicAt.CompareAndSwap(nil, pe) {
					h.M.WorkerPanic()
				}
			}
		}()
		ts := obs.Start(h.T)
		fn(vpn)
		if h.T != nil {
			obs.Span(h.T, ts, "worker", "foreachproc", vpn, nil)
		}
	}

	if pool := cfg.Pool; pool != nil {
		if procs > pool.Size() {
			procs = pool.Size()
		}
		h.M.PoolDispatch(procs)
		if err := pool.Run(func(vpn int) {
			if vpn < procs {
				run(vpn)
			}
		}); err != nil {
			if pe, ok := cancel.AsPanic(err); ok && panicAt.CompareAndSwap(nil, pe) {
				h.M.WorkerPanic()
			}
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(procs)
		for k := 0; k < procs; k++ {
			go func(vpn int) {
				defer wg.Done()
				run(vpn)
			}(k)
		}
		wg.Wait()
	}

	if pe := panicAt.Load(); pe != nil {
		return pe
	}
	if err := cancel.Err(ctx); err != nil {
		h.M.CtxCancel()
		return err
	}
	return nil
}

// MinReduce computes the minimum over per-processor values, the
// post-DOALL "LI = min(L[0:nproc-1])" reduction of Fig. 2.  It returns
// def if vals is empty.
func MinReduce(vals []int, def int) int {
	m := def
	for _, v := range vals {
		if v < m {
			m = v
		}
	}
	return m
}

// MinReduceFloat is MinReduce over float64 values with identity +Inf.
func MinReduceFloat(vals []float64) float64 {
	m := math.Inf(1)
	for _, v := range vals {
		if v < m {
			m = v
		}
	}
	return m
}

// Validate returns an error if a schedule constant is out of range (it
// never panics); callers that accept user-provided options check it
// before executing so an unknown schedule is rejected rather than
// silently treated as Dynamic.
func Validate(s Schedule) error {
	switch s {
	case Dynamic, Static, Guided, Stealing:
		return nil
	}
	return fmt.Errorf("%w: %d", ErrUnknownSchedule, int(s))
}
