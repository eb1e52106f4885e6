// Package speculate is the run-time engine for speculative parallel
// execution of WHILE loops with unknown cross-iteration dependences
// (Section 5): checkpoint the affected state, execute the loop in
// parallel under time-stamping, shadow marking and (optionally)
// privatization, then validate — undoing overshot iterations and
// committing on success, or restoring everything and re-executing the
// loop sequentially on failure (a failed PD test or an exception).
//
// The engine is method-agnostic: the caller supplies the parallel
// runner (built from internal/induction, internal/genrec, a strip-mined
// or windowed schedule, ...) and the sequential fallback; the engine
// owns the protocol around them.
package speculate

import (
	"context"
	"fmt"
	"sync/atomic"

	"whilepar/internal/cancel"
	"whilepar/internal/mem"
	"whilepar/internal/obs"
	"whilepar/internal/pdtest"
	"whilepar/internal/priv"
	"whilepar/internal/sig"
	"whilepar/internal/tsmem"
)

// PrivSpec names an array to privatize for the speculative run.
type PrivSpec struct {
	Arr *mem.Array
	// CopyIn initializes private copies from the shared array.
	CopyIn bool
	// Live requests last-value copy-out after a valid run.
	Live bool
}

// Spec describes the speculative execution.
type Spec struct {
	// Procs is the number of virtual processors.
	Procs int
	// Shared lists the arrays the loop may write in place; they are
	// checkpointed and their stores time-stamped so overshoot can be
	// undone.  Privatized arrays must NOT be listed here — the shared
	// original is their backup.
	Shared []*mem.Array
	// Tested lists the arrays whose dependence structure is unknown;
	// each gets a PD test.
	Tested []*mem.Array
	// Privatized lists arrays executed against private per-processor
	// copies.
	Privatized []PrivSpec
	// StampThreshold enables Section 8.1 statistics-enhanced stamping
	// (iterations below it are not stamped).
	StampThreshold int
	// SparseUndo selects the hash-table undo scheme of Section 4 for
	// arrays with sparse access patterns: instead of cloning whole
	// arrays and keeping a stamp per element, the overwritten value and
	// writing iteration are saved per *touched* location.  Memory is
	// proportional to the accesses, not the array extents.  Incompatible
	// with StampThreshold (every store must be logged).
	SparseUndo bool
	// Tier selects the strip engines' validation dial (see Tier): the
	// full element-wise shadow oracle (zero value), Tier-1 hash-
	// signature validation, or Tier-2 shadow-free trusted execution
	// with sampled audits.  Modes that need the element-wise machinery
	// (SparseUndo, Privatized) clamp it back to TierFull, and the
	// plain, windowed and pipelined engines always run TierFull.
	Tier Tier
	// Sig sizes the Tier-1 signatures (zero value selects defaults).
	Sig sig.Config
	// AuditEvery is the Tier-2 audit sampling period: one strip in this
	// many re-runs under the full machinery (0 = DefaultAuditEvery).
	AuditEvery int
	// AuditPhase pins which strip of each audit period is sampled:
	// 0 picks a random phase per run; n > 0 audits phase
	// (n-1) % AuditEvery deterministically (for tests).
	AuditPhase int
	// Recovery configures partial-commit misspeculation recovery: on a
	// failed PD test the valid prefix below the first violating
	// iteration is kept, only the suffix's stamped stores are undone,
	// and execution resumes from the violation point instead of
	// restarting the whole loop.  See the Recovery type.
	Recovery Recovery
	// PanicFallback, when set, treats a contained worker panic
	// (cancel.ErrWorkerPanic from the parallel runner) like any other
	// exception: restore the checkpoint and re-execute sequentially.
	// When unset (the default) the engine restores and returns the
	// panic error to the caller instead of silently absorbing it.
	// Cancellation (ErrCanceled/ErrDeadline) never triggers the
	// sequential fallback regardless of this flag.
	PanicFallback bool
	// Metrics, if non-nil, accumulates speculation attempts/commits/
	// aborts, stamped stores, undo counts and PD verdicts; Tracer, if
	// non-nil, receives the corresponding events.  Both propagate to
	// the undo memory and the PD tests.
	Metrics *obs.Metrics
	Tracer  obs.Tracer
}

// wantsUnwind reports whether err must bypass the sequential fallback
// and unwind to the caller after a restore: cancellation always does,
// and a contained worker panic does unless spec.PanicFallback routes it
// through the exception path.
func (s Spec) wantsUnwind(err error) bool {
	if err == nil {
		return false
	}
	if cancel.IsCancel(err) {
		return true
	}
	return cancel.IsPanic(err) && !s.PanicFallback
}

// ParallelRunner executes the loop in parallel using the supplied
// tracker for every managed-memory access, and returns the number of
// valid iterations it determined (e.g. via Induction-1's minimum
// reduction).  A returned error is treated like an exception: the
// parallel execution is abandoned and the loop re-executed
// sequentially.
type ParallelRunner func(tracker mem.Tracker) (valid int, err error)

// SequentialRunner re-executes the original loop sequentially against
// the (restored) shared state and returns the number of valid
// iterations.
type SequentialRunner func() int

// Report describes what the engine did.
type Report struct {
	// Valid is the final number of valid iterations.
	Valid int
	// UsedParallel is true if the speculative parallel execution was
	// kept; false if the loop was re-executed sequentially.
	UsedParallel bool
	// Failure explains a sequential fallback ("" if none).
	Failure string
	// PD holds the per-tested-array verdicts (index-aligned with
	// Spec.Tested).
	PD []pdtest.Result
	// Undone is the number of memory locations restored by the
	// overshoot undo (including suffix-only undos during recovery).
	Undone int
	// CopiedOut counts last-value copy-out elements.
	CopiedOut int
	// RespecRounds counts renewed attempts after partial commits (0 on
	// the classic all-or-nothing path).
	RespecRounds int
	// PrefixCommitted is the number of iterations salvaged from failed
	// speculative executions by partial commits.
	PrefixCommitted int
}

// Run executes the speculation protocol.  It is RunCtx under
// context.Background(); use RunCtx for cancellation and deadlines.
func Run(spec Spec, par ParallelRunner, seq SequentialRunner) (Report, error) {
	return RunCtx(context.Background(), spec, par, seq)
}

// RunCtx executes the speculation protocol under a context.  Once ctx
// is done the engine stops before starting the parallel attempt — or,
// when the runner itself surfaces a cancellation error, restores the
// checkpoint — and returns ErrCanceled/ErrDeadline.  Cancellation never
// triggers the sequential fallback: the caller asked to stop, not to
// finish another way.  A contained worker panic
// (cancel.ErrWorkerPanic) is restored and returned, unless
// Spec.PanicFallback routes it through the exception path like any
// other runner error.
func RunCtx(ctx context.Context, spec Spec, par ParallelRunner, seq SequentialRunner) (Report, error) {
	if par == nil || seq == nil {
		return Report{}, fmt.Errorf("speculate: both parallel and sequential runners are required")
	}
	procs := spec.Procs
	if procs < 1 {
		procs = 1
	}
	if spec.SparseUndo && spec.StampThreshold > 0 {
		return Report{}, fmt.Errorf("speculate: SparseUndo is incompatible with a stamp threshold")
	}
	if err := cancel.Err(ctx); err != nil {
		spec.Metrics.CtxCancel()
		return Report{}, err
	}

	mx, tr := spec.Metrics, spec.Tracer
	mx.SpecAttempt()
	specStart := obs.Start(tr)

	// Tb: checkpoint the in-place arrays — or, with SparseUndo, defer
	// to first-touch logging (no up-front copies at all).
	ts := tsmem.NewSharded(procs, spec.Shared...)
	ts.SetObs(mx, tr)
	var sp *tsmem.SparseMemory
	if spec.SparseUndo {
		sp = tsmem.NewSparseSharded(procs)
		sp.SetObs(mx, tr)
	} else {
		ts.Checkpoint()
		ts.SetStampThreshold(spec.StampThreshold)
	}

	// Shadow structures for the PD tests.
	var tests []*pdtest.Test
	for _, a := range spec.Tested {
		t := pdtest.New(a, procs)
		t.SetObs(mx, tr)
		tests = append(tests, t)
	}
	defer func() {
		ts.Release()
		for _, t := range tests {
			t.Release()
		}
	}()

	var tracker mem.Tracker
	var privs []*priv.Private
	if sp == nil && len(spec.Privatized) == 0 {
		// Devirtualized fast path: identical semantics to the chain
		// below (shadow marks first, stamp sink second), without the
		// per-access interface dispatch per layer.
		tracker = newFusedTracker(ts, tests)
	} else {
		// Privatized arrays: redirect through private copies; the undo
		// tracker remains the sink for everything else.
		tracker = ts.Tracker()
		if sp != nil {
			tracker = sp.Tracker()
		}
		for _, ps := range spec.Privatized {
			p := priv.New(ps.Arr, procs, priv.Options{CopyIn: ps.CopyIn, Live: ps.Live})
			privs = append(privs, p)
			tracker = p.Tracker(tracker)
		}
		if len(tests) > 0 {
			observers := make([]mem.Observer, len(tests))
			for i, t := range tests {
				observers[i] = t.Observer()
			}
			tracker = mem.Chain{Observers: observers, Sink: tracker}
		}
	}

	restore := func() error {
		if sp != nil {
			sp.RestoreAll()
			return nil
		}
		if err := ts.RestoreAll(); err != nil {
			return fmt.Errorf("speculate: restore failed: %w", err)
		}
		return nil
	}
	fallback := func(reason string) (Report, error) {
		mx.SpecAbort(reason)
		if tr != nil {
			obs.Instant(tr, "spec-abort", "speculate", 0, map[string]any{"reason": reason})
		}
		if err := restore(); err != nil {
			return Report{}, err
		}
		valid := seq()
		return Report{Valid: valid, Failure: reason, PD: snapshots(tests, valid)}, nil
	}

	valid, err := par(tracker)
	if spec.wantsUnwind(err) {
		// Cancellation (or a panic the caller wants surfaced): restore
		// everything the attempt wrote and hand the typed error up —
		// no sequential fallback.
		reason := fmt.Sprintf("parallel execution unwound: %v", err)
		mx.SpecAbort(reason)
		if tr != nil {
			obs.Instant(tr, "spec-abort", "speculate", 0, map[string]any{"reason": reason})
		}
		if rerr := restore(); rerr != nil {
			return Report{}, rerr
		}
		return Report{Failure: reason}, err
	}
	if err != nil {
		// Exceptions are treated as an invalid parallel execution.
		return fallback(fmt.Sprintf("exception during parallel execution: %v", err))
	}
	if valid < 0 {
		return fallback(fmt.Sprintf("parallel runner reported invalid count %d", valid))
	}

	// Post-execution analysis: every tested array must pass — as a
	// plain DOALL if it was run in place, or as a privatized DOALL if
	// it was privatized.
	var results []pdtest.Result
	failIdx, firstViol := -1, -1
	for i, t := range tests {
		r := t.Analyze(valid)
		results = append(results, r)
		ok := r.DOALL
		for _, p := range privs {
			if p.Shared() == t.Array() {
				ok = r.DOALLWithPriv
			}
		}
		if !ok {
			if failIdx < 0 {
				failIdx = i
			}
			if r.FirstViolation >= 0 && (firstViol < 0 || r.FirstViolation < firstViol) {
				firstViol = r.FirstViolation
			}
		}
	}
	if failIdx >= 0 {
		reason := fmt.Sprintf("PD test failed on array %q", spec.Tested[failIdx].Name)
		// Partial-commit recovery: keep the prefix below the earliest
		// violating iteration, rewind only the suffix's stamped stores,
		// and complete the loop sequentially from the violation point.
		// Gated to the dense stamped path without privatization — the
		// sparse log and private copies have no per-location minimum
		// stamp to bound a partial rewind with.
		rec := spec.Recovery
		if rec.Enabled && rec.SeqFrom != nil && sp == nil && len(privs) == 0 && firstViol > 0 {
			if restored, perr := ts.PartialCommit(firstViol); perr == nil {
				mx.PrefixCommittedAdd(firstViol)
				if tr != nil {
					obs.Instant(tr, "partial-recovery", "speculate", 0, map[string]any{
						"reason": reason, "resumeAt": firstViol, "restored": restored,
					})
				}
				finalValid := rec.SeqFrom(firstViol)
				ts.Commit()
				mx.SpecCommit()
				if tr != nil {
					obs.Span(tr, specStart, "speculation", "speculate", 0, map[string]any{
						"valid": finalValid, "undone": restored, "prefixCommitted": firstViol,
					})
				}
				return Report{
					Valid: finalValid, UsedParallel: true, Failure: reason, PD: results,
					Undone: restored, PrefixCommitted: firstViol,
				}, nil
			}
			// PartialCommit refused (e.g. the violation fell below the
			// stamp threshold): the stamps needed for a suffix-only
			// rewind were never recorded — full fallback.
		}
		rep, ferr := fallback(reason)
		rep.PD = results
		return rep, ferr
	}

	// Valid speculation: undo overshoot, copy out privatized last
	// values, commit.
	var undone int
	if sp != nil {
		undone = sp.Undo(valid)
	} else {
		var err error
		undone, err = ts.Undo(valid)
		if err != nil {
			// The statistics-enhanced threshold was optimistic: stamps
			// for the overshoot region were never made.  Fall back.
			return fallback(fmt.Sprintf("undo impossible: %v", err))
		}
		ts.Commit()
	}
	copied := 0
	for _, p := range privs {
		copied += p.CopyOut(valid)
	}
	mx.SpecCommit()
	if tr != nil {
		obs.Span(tr, specStart, "speculation", "speculate", 0, map[string]any{"valid": valid, "undone": undone})
	}
	return Report{Valid: valid, UsedParallel: true, PD: results, Undone: undone, CopiedOut: copied}, nil
}

// snapshots analyzes all tests for reporting after a fallback (the
// verdicts are informational; state has already been restored, so the
// quiet variant keeps them out of the metrics).
func snapshots(tests []*pdtest.Test, valid int) []pdtest.Result {
	var out []pdtest.Result
	for _, t := range tests {
		out = append(out, t.AnalyzeQuiet(valid))
	}
	return out
}

// RunTwiceCtx implements Section 4's time-stamp-free alternative: run
// the parallel loop once (with writes, but no stamps) purely to learn
// the iteration count, restore the checkpoint, then run exactly the
// valid iterations as a plain DOALL.  It costs a second execution
// instead of per-write stamps.
//
// firstRun executes the full speculative space and returns the valid
// count; secondRun executes exactly [0, valid) with direct memory
// access.  procs sizes the checkpoint/restore copies; under h the
// discovery run counts as a speculation attempt, the re-execution as
// its commit.
//
// A cancellation detected before the discovery run, or between the
// restore and the re-execution, returns ErrCanceled/ErrDeadline with
// the shared state restored to the checkpoint (valid count 0 —
// run-twice commits nothing until the second run completes).  Errors
// from either runner — including cancellation and contained panics the
// runners surface themselves — propagate unchanged after the restore.
func RunTwiceCtx(ctx context.Context, shared []*mem.Array, procs int, h obs.Hooks, firstRun func() (int, error), secondRun func(valid int) error) (int, error) {
	if err := cancel.Err(ctx); err != nil {
		h.M.CtxCancel()
		return 0, err
	}
	h.M.SpecAttempt()
	start := obs.Start(h.T)
	ts := tsmem.NewSharded(procs, shared...)
	ts.SetObs(h.M, h.T)
	defer ts.Release()
	ts.Checkpoint()
	valid, err := firstRun()
	if err != nil {
		h.M.SpecAbort(fmt.Sprintf("run-twice discovery failed: %v", err))
		if rerr := ts.RestoreAll(); rerr != nil {
			return 0, rerr
		}
		return 0, err
	}
	if err := ts.RestoreAll(); err != nil {
		return 0, err
	}
	if err := cancel.Err(ctx); err != nil {
		// The discovery writes are already rewound; skipping the
		// re-execution leaves the loop exactly un-run.
		h.M.CtxCancel()
		h.M.SpecAbort("run-twice canceled before re-execution")
		return 0, err
	}
	if err := secondRun(valid); err != nil {
		h.M.SpecAbort(fmt.Sprintf("run-twice re-execution failed: %v", err))
		return 0, err
	}
	h.M.SpecCommit()
	if h.T != nil {
		obs.Span(h.T, start, "run-twice", "speculate", 0, map[string]any{"valid": valid})
	}
	return valid, nil
}

// ExceptionLog supports the exception-hazard handling of Section 5.1:
// loop bodies wrap risky work in Guard, which converts a panic into a
// recorded exception instead of crashing the worker; the parallel
// runner then reports an error, triggering the sequential fallback.
type ExceptionLog struct {
	n     atomic.Int64
	first atomic.Value // string
}

// Guard runs f, recovering a panic into the log.  It returns true if f
// completed normally.
func (e *ExceptionLog) Guard(f func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			e.n.Add(1)
			e.first.CompareAndSwap(nil, fmt.Sprint(r))
			ok = false
		}
	}()
	f()
	return true
}

// Count returns the number of exceptions recorded.
func (e *ExceptionLog) Count() int { return int(e.n.Load()) }

// Err returns an error describing the first exception, or nil.
func (e *ExceptionLog) Err() error {
	if e.Count() == 0 {
		return nil
	}
	return fmt.Errorf("speculate: %d exception(s), first: %v", e.Count(), e.first.Load())
}
