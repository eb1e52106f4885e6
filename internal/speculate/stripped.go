package speculate

import (
	"context"
	"fmt"

	"whilepar/internal/cancel"
	"whilepar/internal/mem"
)

// StripReport describes a strip-mined speculative execution.
type StripReport struct {
	// Valid is the global number of valid iterations.
	Valid int
	// Strips executed; SeqStrips of them fell back to sequential
	// re-execution after a failed PD test or exception.
	Strips, SeqStrips int
	// Undone counts locations restored across all strips (overshoot
	// and recovery suffix undos).
	Undone int
	// PrefixCommitted counts iterations salvaged from failed strips by
	// partial commits (0 when Spec.Recovery is off).
	PrefixCommitted int
	// Overlapped counts strips whose execution ran concurrently with
	// the previous strip's PD test (RunStrippedPipelined only).
	Overlapped int
	// Squashed counts overlapped strips whose speculative execution was
	// discarded because the previous strip failed validation
	// (RunStrippedPipelined only).
	Squashed int
	// Done reports whether the loop terminated within the bound (vs
	// exhausting Total iterations).
	Done bool
	// Demoted reports that a StripController gave up on speculation
	// (RunTunedCtx only): Valid is the committed prefix, the loop has
	// not terminated, and the iterations from there on have not run.
	Demoted bool
	// Tier is the validation tier the run was granted at entry (after
	// engine clamping); TierDemoted reports a mid-run fall back to
	// TierFull after a real violation or audit failure.
	Tier        Tier
	TierDemoted bool
	// SigFalsePositives counts Tier-1 flagged strips whose Tier-0
	// re-run found no real violation (hash aliasing — one strip
	// re-execution each, never a wrong commit).
	SigFalsePositives int
	// AuditRuns counts Tier-2 strips re-armed under the full shadow
	// machinery; AuditFailures the ones whose PD test failed.
	AuditRuns, AuditFailures int
}

// StripPar executes one strip [lo, hi) in parallel under the given
// tracker and returns the number of valid iterations *within the strip*
// and whether the termination condition was met in it.  An error is an
// exception (triggers the strip's sequential fallback).  tr is nil when
// the engine runs the strip shadow-free (TierTrusted's direct strips):
// the body must then access the arrays directly — loopir.Iter already
// does exactly that for a nil Tracker.
type StripPar func(tr mem.Tracker, lo, hi int) (valid int, done bool, err error)

// StripSeq re-executes one strip sequentially (after a failed strip) and
// returns the same.
type StripSeq func(lo, hi int) (valid int, done bool)

// RunStripped is the strip-mined speculation protocol of Sections 4, 5.1
// and 8.1: the iteration space is executed strip by strip; each strip is
// checkpointed, run speculatively under time-stamps and fresh PD-test
// shadow structures, validated, and then either committed (with its
// overshoot undone) or restored and re-executed sequentially.
//
// Two properties the paper wants from this shape:
//
//   - memory: time-stamps and shadow marks exist only for the current
//     strip, bounding the overhead memory by O(strip * writes/iter);
//   - safety: if the termination condition depends on a variable with
//     unknown dependences, an un-strip-mined speculative run could
//     mis-identify the last valid iteration or never terminate; here
//     every strip's dependences are tested before its values are
//     trusted, and a failed strip costs one strip's re-execution, not
//     the whole loop's.
//
// RunStripped is RunStrippedCtx under context.Background().
func RunStripped(spec Spec, total, strip int, par StripPar, seq StripSeq) (StripReport, error) {
	return RunStrippedCtx(context.Background(), spec, total, strip, par, seq)
}

// RunStrippedCtx is the strip-mined protocol under a context.  The
// strip boundary is the cancellation point: once ctx is done no further
// strip starts, and the report carries the valid count of the strips
// already committed (the committed prefix) together with
// ErrCanceled/ErrDeadline.  When the strip runner itself surfaces a
// cancellation — or a contained panic with Spec.PanicFallback unset —
// the current strip is rewound via its checkpoint before the error
// unwinds, so the shared arrays hold exactly the committed-prefix
// state.  Cancellation never falls back to sequential re-execution.
func RunStrippedCtx(ctx context.Context, spec Spec, total, strip int, par StripPar, seq StripSeq) (StripReport, error) {
	if par == nil || seq == nil {
		return StripReport{}, fmt.Errorf("speculate: both strip runners are required")
	}
	if strip < 1 {
		return StripReport{}, fmt.Errorf("speculate: strip size must be positive, got %d", strip)
	}
	procs := spec.Procs
	if procs < 1 {
		procs = 1
	}

	// One memory, one shadow set (and, above TierFull, one signature
	// set) serve every strip: the per-strip reset is an epoch bump plus
	// a shadow Reset, so the bounded-memory property still holds — live
	// stamps and marks cover only the current strip — without paying a
	// fresh allocation and O(procs x n) clear per strip.  Their buffers
	// go back to the shared arena when the engine returns.  The strip
	// verdict itself — run, validate at the spec's tier, commit or
	// recover — lives in the tier runtime (tier.go); this loop keeps
	// only the schedule.
	var rep StripReport
	rt := newTierRuntime(spec, procs, 0, total, &rep)
	defer rt.release()

	for lo := 0; lo < total; lo += strip {
		if cerr := cancel.Err(ctx); cerr != nil {
			// Strips committed so far are final; nothing of the next
			// one has started, so there is nothing to rewind.
			spec.Metrics.CtxCancel()
			return rep, cerr
		}
		hi := lo + strip
		if hi > total {
			hi = total
		}
		_, _, stop, err := rt.step(lo, hi, par, seq)
		if err != nil {
			return rep, err
		}
		if stop {
			return rep, nil
		}
	}
	return rep, nil
}
