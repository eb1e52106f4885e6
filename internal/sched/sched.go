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
	// growing geometrically (Geometric: 1, 2, 4, ... capped relative to
	// n/p) so the claim's shared write amortizes while the first claims
	// stay small enough for load balance (the paper's dynamically
	// scheduled DOALL, used by Induction-1/2).
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

// DOALLCtx is DOALL under a context.  Cancellation is cooperative: the
// workers load the execution's stop flag (Claim) before every
// iteration.  The context's watcher sets it as soon as a processor is
// free to run it, and each worker sets it from its own poll of ctx —
// before its first iteration and after every cancel.PollEvery
// iterations it runs — so once ctx is done no worker begins more than
// PollEvery further iterations.  The call returns the Result
// accumulated so far (Result.Prefix is the committed contiguous prefix)
// together with ErrCanceled or ErrDeadline.
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
	c, err := NewClaim(ctx, n, p, opts.Schedule, opts.Metrics)
	if err != nil {
		return Result{QuitIndex: n}, err
	}
	defer c.Close()
	d := doall{c, body, opts.Tracer}
	c.Run(opts.Pool, func(vpn int) { d.work(vpn) })
	res := c.Account()
	opts.Metrics.OvershotAdd(res.Overshot)
	return res, c.Err()
}

// doall is one DOALL execution: its claim and what each iteration runs.
type doall struct {
	c    *Claim
	body func(i, vpn int) Control
	tr   obs.Tracer
}

// runChunk executes iterations lo, lo+stride, ... below hi in order on
// worker vpn and adds them to its record.  It stops early — recording
// the unexecuted tail as the worker's hole and returning false — once
// the execution is stopped, a QUIT below the next index has been
// posted, or the body panics (the panic is contained here, once per
// chunk, and the panicking iteration counts as not executed).
func (d doall) runChunk(w *Worker, lo, hi, stride, vpn int) (whole bool) {
	c := d.c
	i, done := lo, 0
	defer func() {
		if r := recover(); r != nil {
			c.Panic(i, vpn, r)
		}
		w.Executed += done
		if !whole {
			w.Owe(lo+done*stride, hi, stride)
		}
	}()
	for i < hi {
		for end := c.Span(w, i, hi, stride); i < end; i += stride {
			if !c.Go(i) {
				return false
			}
			ts := obs.Start(d.tr)
			ctl := d.body(i, vpn)
			done++
			if d.tr != nil {
				obs.Span(d.tr, ts, "iter", "doall", vpn, map[string]any{"i": i})
			}
			if ctl == Quit {
				c.Quit(i)
				c.m.QuitPosted()
				if d.tr != nil {
					obs.Instant(d.tr, "QUIT", "doall", vpn, map[string]any{"i": i})
				}
			}
		}
	}
	return true
}

// work is one virtual processor's activation: claim chunks under the
// execution's schedule and run them until the space is exhausted, a
// QUIT at an index below the next chunk has been posted, or the
// execution is stopped — claiming further chunks could only produce
// dead work.
func (d doall) work(vpn int) {
	c, m := d.c, d.c.m
	w := c.Worker(vpn)
	switch c.schedule {
	case Stealing:
		// Claims hit the home block's private cursor first; only after
		// the home block is drained (or killed by a QUIT below it) does
		// the worker scan the other blocks, round-robin from its own.
		// Cursors are monotone and the quit index only decreases, so a
		// finished block never revives — one pass over all p blocks
		// covers the whole space.
		for k := 0; k < c.p; k++ {
			for {
				lo, hi, ok := c.NextIn(w, (vpn+k)%c.p)
				if !ok {
					break
				}
				if k == 0 {
					m.DynamicChunk(hi - lo)
				} else {
					m.StealChunk(hi - lo)
				}
				d.runChunk(w, lo, hi, 1, vpn)
			}
		}
	case Static:
		// Processor k runs the iterations congruent to k modulo p, in
		// order, as one strided chunk: once a smaller iteration has
		// quit, the larger ones are not begun.
		if vpn < c.n {
			whole := d.runChunk(w, vpn, c.n, c.p, vpn)
			w.Issued = w.Executed
			if !whole && !c.stop.Stopped() {
				w.Issued++ // the iteration that found the QUIT below it
			}
		}
	default: // Dynamic and Guided
		// Correctness: the claim cursor is monotone, chunks are
		// processed in order with a per-iteration QUIT check, and no
		// chunk is claimed once the cursor passes the posted quit index.
		for {
			lo, hi, ok := c.Next(w)
			if !ok {
				return
			}
			if c.schedule == Guided {
				m.GuidedChunk(hi - lo)
			} else {
				m.DynamicChunk(hi - lo)
			}
			if !d.runChunk(w, lo, hi, 1, vpn) {
				return
			}
		}
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

	if cfg.Pool != nil && procs > cfg.Pool.Size() {
		procs = cfg.Pool.Size()
	}
	if err := dispatch(cfg.Pool, procs, h.M, run); err != nil {
		if pe, ok := cancel.AsPanic(err); ok && panicAt.CompareAndSwap(nil, pe) {
			h.M.WorkerPanic()
		}
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
