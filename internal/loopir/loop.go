package loopir

import (
	"unsafe"

	"whilepar/internal/mem"
)

// Dispatcher produces the sequence of values that controls the WHILE
// loop: d(0), d(1), ... .  Start returns d(0); Next(d(i)) returns d(i+1).
// D is the dispatcher value type — int for inductions, a list node for a
// pointer chase, a float64 for a numeric recurrence.
type Dispatcher[D any] interface {
	Start() D
	Next(D) D
}

// ClosedForm is the capability of evaluating the i-th dispatcher term
// directly, without the i-1 preceding terms.  Inductions implement it;
// it is what makes the Induction-1/2 methods (Fig. 2) fully parallel.
type ClosedForm[D any] interface {
	At(i int) D
}

// Body is the remainder of the WHILE loop for one iteration: it receives
// the iteration context and the dispatcher value for this iteration, and
// returns true if the iteration completed (is valid), or false if it hit
// a remainder-variant termination condition.
//
// Convention: a body that returns false must do so *before* performing
// any stores — the common `if cond then exit` shape — so that an
// exit-signalling iteration is entirely invalid.  The sequential
// reference executor and the parallel methods both adopt this
// convention; the undo machinery (internal/tsmem) restores every store
// of every iteration at or beyond the first exit-signalling one.
//
// Lifetime: the *Iter is valid only for the duration of the call and
// must not be retained.  Every engine hands the body a per-worker slot
// (IterSlots) that it overwrites for the worker's next iteration; a
// body that keeps the pointer reads another iteration's index and
// tracker.
type Body[D any] func(it *Iter, d D) bool

// Iter is the per-iteration execution context handed to a Body.  All
// accesses to managed shared memory go through it so the run-time system
// (time-stamping, PD-test shadow marking) can interpose.  It is valid
// only for the duration of the body call it was passed to and must not
// be retained (see Body).
type Iter struct {
	// Index is the zero-based iteration number.
	Index int
	// VPN is the virtual processor number executing this iteration.
	VPN int
	// Tracker interposes on managed-memory accesses; nil means direct.
	Tracker mem.Tracker
	// Work accumulates abstract work units charged by the body via
	// Charge; the simulated-multiprocessor backend uses it to cost the
	// iteration.
	Work float64
}

// iterSlot pads an Iter to two cache lines, so that neighbouring
// workers' slots never share one whatever the allocation's alignment.
type iterSlot struct {
	it Iter
	_  [128 - unsafe.Sizeof(Iter{})]byte
}

// IterSlots holds one Iter per virtual processor.  A body is a func
// value, so an Iter built on an engine's stack escapes to the heap on
// every iteration; an engine instead allocates its slots once per run
// and re-arms the executing worker's slot per iteration.  Slot vpn is
// written only by the worker running as vpn.
type IterSlots []iterSlot

// NewIterSlots returns slots for procs virtual processors (at least
// one).
func NewIterSlots(procs int) IterSlots {
	if procs < 1 {
		procs = 1
	}
	return make(IterSlots, procs)
}

// At re-arms worker vpn's slot for iteration index under tracker t —
// every field is reset, Work included — and returns it.  The pointer is
// good until the same worker's next At.
func (s IterSlots) At(vpn, index int, t mem.Tracker) *Iter {
	it := &s[vpn].it
	*it = Iter{Index: index, VPN: vpn, Tracker: t}
	return it
}

// Load reads element idx of managed array a through the tracker.
func (it *Iter) Load(a *mem.Array, idx int) float64 {
	if it.Tracker == nil {
		return a.Data[idx]
	}
	return it.Tracker.Load(a, idx, it.Index, it.VPN)
}

// Store writes v to element idx of managed array a through the tracker.
func (it *Iter) Store(a *mem.Array, idx int, v float64) {
	if it.Tracker == nil {
		a.Data[idx] = v
		return
	}
	it.Tracker.Store(a, idx, v, it.Index, it.VPN)
}

// LoadRange reads elements [lo, hi) of managed array a into dst with a
// single tracker interposition when the bound tracker supports batched
// access (mem.RangeTracker), and element by element otherwise.  dst is
// grown (or allocated when nil) to hi-lo elements and returned; bodies
// that process strips should reuse the returned slice across calls.
func (it *Iter) LoadRange(a *mem.Array, lo, hi int, dst []float64) []float64 {
	n := hi - lo
	if n <= 0 {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	switch tr := it.Tracker.(type) {
	case nil:
		copy(dst, a.Data[lo:hi])
	case mem.RangeTracker:
		tr.LoadRange(a, lo, hi, dst, it.Index, it.VPN)
	default:
		for i := lo; i < hi; i++ {
			dst[i-lo] = it.Tracker.Load(a, i, it.Index, it.VPN)
		}
	}
	return dst
}

// StoreRange writes src over elements [lo, lo+len(src)) of managed
// array a with a single tracker interposition when the bound tracker
// supports batched access, and element by element otherwise.
func (it *Iter) StoreRange(a *mem.Array, lo int, src []float64) {
	if len(src) == 0 {
		return
	}
	switch tr := it.Tracker.(type) {
	case nil:
		copy(a.Data[lo:lo+len(src)], src)
	case mem.RangeTracker:
		tr.StoreRange(a, lo, src, it.Index, it.VPN)
	default:
		for k, v := range src {
			it.Tracker.Store(a, lo+k, v, it.Index, it.VPN)
		}
	}
}

// Charge adds abstract work units to the iteration's cost.  Workloads
// call it to tell the simulated multiprocessor how expensive the
// iteration's computation is; it has no effect on real execution.
func (it *Iter) Charge(units float64) { it.Work += units }

// Loop is the runtime representation of a WHILE loop in the paper's
// general form.
//
//	d := Disp.Start()
//	for Cond(d) {
//	    if !Body(it, d) { break }   // RV exit
//	    d = Disp.Next(d)
//	}
//
// Cond is the remainder-invariant part of the terminator (it may inspect
// only d and loop-invariant state); a Body returning false is the
// remainder-variant part.  Either may be absent (Cond nil means "true";
// a body that never returns false has a pure-RI loop).
type Loop[D any] struct {
	// Class is the loop's taxonomy cell, as a compiler's analysis would
	// have annotated it.
	Class Class
	// Disp is the dispatching recurrence.
	Disp Dispatcher[D]
	// Cond is the RI termination condition: the loop continues while
	// Cond(d) holds.  nil means no RI condition.
	Cond func(D) bool
	// Body is the remainder.
	Body Body[D]
	// Max is an upper bound on the number of iterations (the `u` of the
	// DOALLs in Figs. 2 and 4).  It may come from the body (e.g. an
	// array extent) or from strip-mining.  Max <= 0 means unknown.
	Max int
}

// SeqResult is what a sequential execution of the loop produced.
type SeqResult struct {
	// Iterations is the number of *valid* iterations executed (the body
	// ran and returned true).
	Iterations int
	// ExitRV reports whether the loop ended on a remainder-variant exit
	// (body returned false) rather than on the RI condition or Max.
	ExitRV bool
	// Work is the total abstract work charged by valid iterations.
	Work float64
	// DispatcherWork counts dispatcher advancements performed
	// (sequential-chain length), used by the cost model.
	DispatcherWork int
}

// RunSequential executes the loop exactly as the original sequential
// WHILE loop would, with direct (untracked) memory access.  It is the
// semantic oracle every parallel method is validated against.
func RunSequential[D any](l *Loop[D]) SeqResult {
	return RunSequentialTracked(l, nil)
}

// RunSequentialTracked is RunSequential with an explicit memory tracker,
// used when the sequential re-execution after a failed PD test must
// still observe accesses (e.g. to collect statistics).
func RunSequentialTracked[D any](l *Loop[D], t mem.Tracker) SeqResult {
	var res SeqResult
	slots := NewIterSlots(1)
	d := l.Disp.Start()
	for i := 0; l.Max <= 0 || i < l.Max; i++ {
		if l.Cond != nil && !l.Cond(d) {
			return res
		}
		it := slots.At(0, i, t)
		if !l.Body(it, d) {
			res.ExitRV = true
			return res
		}
		res.Iterations++
		res.Work += it.Work
		d = l.Disp.Next(d)
		res.DispatcherWork++
	}
	return res
}

// LastValid computes, sequentially and with no side effects beyond the
// body's own stores, the index of the first iteration that fails (RI or
// RV); equivalently the number of valid iterations.  It is used by the
// run-twice scheme of Section 4 and by tests.
func LastValid[D any](l *Loop[D]) int {
	r := RunSequential(l)
	return r.Iterations
}
