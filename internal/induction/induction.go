// Package induction implements the Induction-1 and Induction-2 methods
// of Section 3.1 (Figure 2): parallel execution of a WHILE loop whose
// dispatcher is an induction d(i) = c*i + b.
//
// Because the dispatcher has a closed form, every processor evaluates
// its iterations' dispatcher values independently — no loop distribution
// or precomputation is needed — and the loop runs as a DOALL with the
// WHILE loop's termination test folded into the body:
//
//   - Induction-1 runs all u iterations; each processor records in
//     L[vpn] the lowest iteration it executed that met the termination
//     condition, and the last valid iteration is found afterwards by a
//     minimum reduction over L.
//   - Induction-2 exploits in-order issue and the machine's QUIT
//     operation: an iteration that meets the termination condition stops
//     further iterations from being issued, so far fewer iterations
//     overshoot.
//
// The identified last valid iteration is what the undo machinery of
// Section 4 (internal/tsmem) needs to restore overshot writes.
package induction

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"whilepar/internal/cancel"
	"whilepar/internal/loopir"
	"whilepar/internal/mem"
	"whilepar/internal/obs"
	"whilepar/internal/sched"
	"whilepar/internal/simproc"
)

// Method selects between the two variants of Figure 2.  The zero value
// is Induction-2: an execution that names no method does not run what
// the exit already invalidated.
type Method int

const (
	// Induction2 uses QUIT to stop issuing iterations once an exit is
	// found (the "optimized version" of Figure 2).  The default.
	Induction2 Method = iota
	// Induction1 runs the full iteration space and finds the exit by a
	// post-loop minimum reduction.
	Induction1
)

// String names the method as in the paper.
func (m Method) String() string {
	if m == Induction1 {
		return "Induction-1"
	}
	return "Induction-2"
}

// Config configures a parallel induction-loop execution.
type Config struct {
	// Procs is the number of virtual processors.
	Procs int
	// Method selects Induction-2 (the zero value) or Induction-1.
	Method Method
	// Tracker interposes on the body's managed-memory accesses
	// (time-stamping, PD-test marking); nil for direct access.
	Tracker mem.Tracker
	// Schedule selects dynamic or static iteration assignment
	// (Induction-2's QUIT argument assumes in-order issue, which both
	// provide per processor).
	Schedule sched.Schedule
	// Metrics, if non-nil, accumulates runtime counters; Tracer, if
	// non-nil, receives structured events.  Both pass through to the
	// DOALL substrate.
	Metrics *obs.Metrics
	Tracer  obs.Tracer
	// Pool, if non-nil, runs the DOALL on a persistent worker pool
	// instead of spawning goroutines per call (see sched.Pool).
	Pool *sched.Pool
}

// Result reports the parallel execution's outcome.
type Result struct {
	// Valid is the number of valid iterations (the last valid iteration
	// is Valid-1); it equals what the sequential loop would have run.
	Valid int
	// Executed is the number of iterations whose body ran.
	Executed int
	// Overshot is the number of executed iterations at or beyond Valid
	// — the work that may need undoing.
	Overshot int
}

// Run executes loop l, whose dispatcher must provide a closed form
// (loopir.ClosedForm[int]), in parallel.  l.Max must be a positive upper
// bound u on the iteration count.  The iteration space [0, u) is
// executed speculatively; each iteration evaluates the dispatcher from
// the closed form, tests the RI condition, runs the body, and treats
// either failing as "met the termination condition".
func Run(l *loopir.Loop[int], cfg Config) (Result, error) {
	res, err := RunCtx(context.Background(), l, cfg)
	if pe, ok := cancel.AsPanic(err); ok {
		panic(pe.Value)
	}
	return res, err
}

// RunCtx is Run under a context: once ctx is done the DOALL substrate
// stops issuing iterations and RunCtx returns the Result so far — Valid
// capped at the committed prefix (the first iteration that did not run)
// — together with ErrCanceled or ErrDeadline.  A panicking body is
// contained and surfaced as ErrWorkerPanic instead of crashing the
// caller.
func RunCtx(ctx context.Context, l *loopir.Loop[int], cfg Config) (Result, error) {
	cf, ok := l.Disp.(loopir.ClosedForm[int])
	if !ok {
		return Result{}, fmt.Errorf("induction: dispatcher %T has no closed form", l.Disp)
	}
	if l.Max <= 0 {
		return Result{}, fmt.Errorf("induction: loop needs an iteration upper bound (Max), got %d", l.Max)
	}
	if err := sched.Validate(cfg.Schedule); err != nil {
		return Result{}, err
	}
	u := l.Max

	slots := loopir.NewIterSlots(cfg.Procs)
	iter := func(i, vpn int) bool { // returns true if the iteration hit the exit
		d := cf.At(i)
		if l.Cond != nil && !l.Cond(d) {
			return true
		}
		return !l.Body(slots.At(vpn, i, cfg.Tracker), d)
	}

	switch cfg.Method {
	case Induction2:
		res, err := sched.DOALLCtx(ctx, u, sched.Options{Procs: cfg.Procs, Schedule: cfg.Schedule, Metrics: cfg.Metrics, Tracer: cfg.Tracer, Pool: cfg.Pool}, func(i, vpn int) sched.Control {
			if iter(i, vpn) {
				return sched.Quit
			}
			return sched.Continue
		})
		valid := res.QuitIndex
		if err != nil {
			// On cancellation or a contained panic the quit index may
			// never have been found; only the committed prefix is known
			// to match the sequential loop.
			valid = res.Prefix
		}
		// The substrate's Overshot is exact (computed after all workers
		// finished, against the final quit index), so use it directly.
		return Result{Valid: valid, Executed: res.Executed, Overshot: res.Overshot}, err

	default: // Induction1: run everything, reduce afterwards.
		procs := cfg.Procs
		if procs < 1 {
			procs = 1
		}
		L := make([]atomic.Int64, procs)
		for k := range L {
			L[k].Store(int64(u))
		}
		res, err := sched.DOALLCtx(ctx, u, sched.Options{Procs: procs, Schedule: cfg.Schedule, Metrics: cfg.Metrics, Tracer: cfg.Tracer, Pool: cfg.Pool}, func(i, vpn int) sched.Control {
			if iter(i, vpn) && int64(i) < L[vpn].Load() {
				L[vpn].Store(int64(i))
			}
			return sched.Continue
		})
		// LI = min(L[0:nproc-1]).
		mins := make([]int, procs)
		for k := range L {
			mins[k] = int(L[k].Load())
		}
		li := sched.MinReduce(mins, u)
		if err != nil && res.Prefix < li {
			// Induction-1 only knows the exit from the reduction; if the
			// run was cut short before every iteration below the reduced
			// minimum executed, only the committed prefix is trustworthy.
			li = res.Prefix
		}
		// Induction-1 never QUITs the substrate, so overshoot is only
		// known after the reduction; mirror it into the metrics here.
		overshot := res.Executed - min(res.Executed, li)
		cfg.Metrics.OvershotAdd(overshot)
		if cfg.Tracer != nil {
			obs.Instant(cfg.Tracer, "min-reduce", "induction", 0, map[string]any{"li": li})
		}
		return Result{Valid: li, Executed: res.Executed, Overshot: overshot}, err
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// SimSpec parameterizes the simulated-time model of an induction-method
// execution, including the speculation overheads of Sections 4 and 7.
type SimSpec struct {
	// U is the iteration-space upper bound; Exit the first iteration
	// meeting the termination condition (-1 if none within U).
	U, Exit int
	// Work(i) is the body cost of iteration i; overshot iterations do
	// the same speculative work unless the caller's Work says otherwise.
	Work func(i int) float64
	// ExitCost is the cost of the exit-signalling iteration itself
	// (test + record, no work).
	ExitCost float64
	// Dispatch is the per-iteration self-scheduling overhead.
	Dispatch float64
	// Method selects Induction-1 (full space + reduction) or
	// Induction-2 (QUIT).
	Method Method
	// CheckpointWords is the state saved before the loop (Tb); CopyCost
	// the per-word save/restore cost.  Zero for loops needing no
	// backups.
	CheckpointWords int
	CopyCost        float64
	// WritesPerIter is the number of stamped writes an overshot
	// iteration must undo (Ta); TSCost is the per-write time-stamping
	// overhead added to executing iterations (Td).
	WritesPerIter int
	TSCost        float64
	// ReduceStep is the per-tree-level cost of the post-loop minimum
	// reduction.
	ReduceStep float64
}

// Simulate runs the method on a simulated p-processor machine and
// returns the trace and the total makespan including checkpointing, the
// post-loop reduction, and undo of overshot iterations.
func Simulate(m *simproc.Machine, s SimSpec) (simproc.Trace, float64) {
	cost := func(i int) float64 {
		c := s.Work(i) + s.TSCost*float64(s.WritesPerIter)
		if s.Exit >= 0 && i == s.Exit {
			c = s.ExitCost
		}
		return c
	}
	// Tb: checkpoint in parallel.
	if s.CheckpointWords > 0 {
		m.Reduce(s.CheckpointWords, s.CopyCost, 0)
	}
	tr := m.DynamicDOALL(s.U, cost, s.Dispatch, s.Exit, s.Method == Induction2)
	// Post-loop minimum reduction over the per-processor L values.
	m.Reduce(m.P(), s.ReduceStep, s.ReduceStep)
	// Ta: undo overshot writes, in parallel.
	if undo := tr.Overshot * s.WritesPerIter; undo > 0 {
		m.Reduce(undo, s.CopyCost, 0)
	}
	return tr, m.Makespan()
}

// SeqTime returns the sequential execution time of the original WHILE
// loop under the same cost model: valid iterations' work plus the final
// exit test, with no parallelization overheads.
func (s SimSpec) SeqTime() float64 {
	n := s.U
	if s.Exit >= 0 && s.Exit < n {
		n = s.Exit
	}
	t := simproc.SeqTime(n, s.Work)
	if s.Exit >= 0 && s.Exit < s.U {
		t += s.ExitCost
	}
	return t
}

// IdealSpeedup is Sp_id for this loop: Trem/p with the (fully parallel)
// induction dispatcher folded into the iterations, per Section 7.
func (s SimSpec) IdealSpeedup(p int) float64 {
	if p < 1 {
		p = 1
	}
	return math.Min(float64(p), float64(max(1, s.validCount())))
}

func (s SimSpec) validCount() int {
	if s.Exit >= 0 && s.Exit < s.U {
		return s.Exit
	}
	return s.U
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
