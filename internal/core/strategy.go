package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"whilepar/internal/induction"
	"whilepar/internal/sched"
)

// Strategy is the first-class execution-strategy selector.  The zero
// value, Auto, lets the orchestrator choose: the engine, schedule,
// strip size and respeculation window come from the adaptive selector
// (internal/autotune) fed by an online probe and the loop's persistent
// profile.  The non-zero values pin one engine each and are the only
// way to request the run-twice, recovery and pipelined protocols —
// the boolean aliases they once shadowed are gone.
type Strategy int

const (
	// Auto (the default) delegates engine selection to the adaptive
	// selector for loops it understands (closed-form induction
	// dispatchers with otherwise-default knobs) and to the Table 1
	// classification elsewhere.
	Auto Strategy = iota
	// StrategySequential runs the loop on the calling goroutine — the
	// reference semantics, no parallel machinery at all.
	StrategySequential
	// StrategySpeculate pins the classic whole-loop engines: the
	// Table 1 transformation wrapped in the Section 4/5 speculation
	// protocol when needed, exactly as the pre-auto orchestrator ran.
	StrategySpeculate
	// StrategyRunTwice pins Section 4's time-stamp-free alternative:
	// run the parallel loop once purely to learn the iteration count,
	// restore the checkpoint, then run exactly the valid iterations as
	// a plain DOALL.  Requires statically known dependences (no
	// Tested/Privatized arrays).
	StrategyRunTwice
	// StrategyRecover pins partial-commit misspeculation recovery: a
	// failed PD test keeps the valid prefix below the earliest
	// violating iteration, rewinds only the suffix's stamped stores,
	// and the loop completes from the violation point.  Requires the
	// dense stamped path (no SparseUndo, no Privatized arrays).
	StrategyRecover
	// StrategyPipeline pins pipelined strip speculation: while the
	// coordinator validates and commits sealed strip k, the pool
	// already executes strip k+1 into a double-buffered stamp/shadow
	// generation, squashed only if k's test fails.  Implies a
	// persistent pool; requires the dense stamped path and a
	// strip-mineable loop (see ErrPipelineUnsupported).
	StrategyPipeline
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case StrategySequential:
		return "sequential"
	case StrategySpeculate:
		return "speculate"
	case StrategyRunTwice:
		return "run-twice"
	case StrategyRecover:
		return "recover"
	case StrategyPipeline:
		return "pipeline"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// validateStrategy rejects out-of-range Strategy values.  With the
// boolean engine aliases gone a Strategy can no longer contradict
// anything — each value simply pins its engine.
func (o Options) validateStrategy() error {
	switch o.Strategy {
	case Auto, StrategySequential, StrategySpeculate, StrategyRunTwice, StrategyRecover, StrategyPipeline:
		return nil
	}
	return fmt.Errorf("%w: %d", ErrBadStrategy, int(o.Strategy))
}

// resolved maps an explicit Strategy onto the internal engine flags the
// rest of the orchestrator dispatches on.
func (o Options) resolved() Options {
	switch o.Strategy {
	case StrategyRunTwice:
		o.runTwice = true
	case StrategyRecover:
		o.recovery = true
	case StrategyPipeline:
		o.pipeline = true
	}
	return o
}

// autoEligible reports whether the adaptive selector owns this
// execution: Strategy is Auto and every knob the selector would
// otherwise have to honour is at its zero value.  Any hand-tuned
// engine choice — an explicit schedule, method, pool, sparse undo,
// privatization, cost-model estimates or profitability floor — pins
// the classic path; so does FallbackSequential, whose
// absorb-the-panic contract belongs to the whole-loop protocol.  An
// external Options.Workers pool does NOT disqualify: the selector's
// engines run their parallel phases on it like any other pool.  (An
// explicit InductionMethod of Induction2 is the zero value, so it is
// indistinguishable from the default and also lands here; the
// selector's strip engines QUIT within a strip, as Induction-2 does.)
func (o Options) autoEligible() bool {
	return o.Strategy == Auto &&
		o.Procs != 1 && // explicit 1 means "run it sequentially" — a pinned choice
		o.InductionMethod == induction.Induction2 && // the zero value
		o.Schedule == sched.Dynamic &&
		len(o.Privatized) == 0 &&
		!o.SparseUndo &&
		!o.Pool && !o.FallbackSequential &&
		o.MaxRespecRounds == 0 && o.MinIters == 0 &&
		o.Stats == nil && o.Times.Tseq() <= 0
}

// callSiteKey derives the default profile key: the file:line of the
// first stack frame outside this module's implementation (the internal
// packages and the facade's Run* wrappers).  Two loops launched from
// different source lines learn independently; the same line re-run in
// the same process (or with a persisted store, across processes) finds
// its history.
//
// Symbolizing a stack allocates a few hundred bytes, which a loop run
// thousands of times from one line pays every time; the keys of the
// stacks seen so far are remembered (up to maxSiteKeys of them).
func callSiteKey() string {
	var pcs [16]uintptr
	n := runtime.Callers(2, pcs[:])
	siteKeys.RLock()
	key, ok := siteKeys.m[pcs]
	siteKeys.RUnlock()
	if ok {
		return key
	}
	key = "unknown"
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		fn := f.Function
		if fn != "" &&
			!strings.HasPrefix(fn, "whilepar/internal/") &&
			!strings.HasPrefix(fn, "whilepar.Run") &&
			!strings.HasPrefix(fn, "runtime.") {
			key = fmt.Sprintf("%s:%d", f.File, f.Line)
			break
		}
		if !more {
			break
		}
	}
	siteKeys.Lock()
	if siteKeys.m == nil {
		siteKeys.m = make(map[[16]uintptr]string)
	}
	if len(siteKeys.m) < maxSiteKeys {
		siteKeys.m[pcs] = key
	}
	siteKeys.Unlock()
	return key
}

// maxSiteKeys bounds the memo: a program reaches its loops through a
// handful of stacks, and one that does not merely symbolizes again.
const maxSiteKeys = 1024

var siteKeys struct {
	sync.RWMutex
	m map[[16]uintptr]string
}
