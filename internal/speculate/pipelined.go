package speculate

import (
	"context"
	"fmt"

	"whilepar/internal/arena"
	"whilepar/internal/cancel"
	"whilepar/internal/mem"
	"whilepar/internal/obs"
	"whilepar/internal/pdtest"
	"whilepar/internal/tsmem"
)

// pipeGen is one generation of the double-buffered strip machinery: a
// time-stamp memory and a PD-shadow set that one in-flight strip owns
// exclusively.  Two generations alternate, so strip k+1 can execute
// into generation B while the coordinator still validates strip k
// against generation A.
type pipeGen struct {
	ts      *tsmem.Memory
	tests   []*pdtest.Test
	tracker mem.Tracker

	// pend is the union of write-sets applied to the arrays since this
	// generation's checkpoint last mirrored them — what its next
	// prepare must refresh — and means something only while tracked
	// (untracked: the next prepare copies everything).  A generation
	// sits out one strip while the other executes, so pend accumulates
	// (at most) two strips' writes.  arming is the list the latest
	// prepare is reading; the two buffers swap roles each time the
	// generation is armed, so neither is rebuilt per strip.
	pend, arming [][]int
	tracked      bool
}

func newPipeGen(spec Spec, procs int) *pipeGen {
	g := &pipeGen{ts: tsmem.NewSharded(procs, spec.Shared...),
		pend: make([][]int, len(spec.Shared)), arming: make([][]int, len(spec.Shared))}
	g.ts.SetObs(spec.Metrics, spec.Tracer)
	for _, a := range spec.Tested {
		t := pdtest.New(a, procs)
		t.SetObs(spec.Metrics, spec.Tracer)
		g.tests = append(g.tests, t)
	}
	g.tracker = newFusedTracker(g.ts, g.tests)
	return g
}

// release returns the generation's buffers to the shared arena.
func (g *pipeGen) release() {
	g.ts.Release()
	for _, t := range g.tests {
		t.Release()
	}
	for i := range g.pend {
		arena.PutInts(g.pend[i])
		arena.PutInts(g.arming[i])
	}
}

// arm closes the generation's pending list and opens an empty one for
// the writes from here on.  It returns what prepare must refresh — nil
// for everything — which stays valid until the generation is armed
// again; the caller arms a generation only when no strip of it is in
// flight.
func (g *pipeGen) arm() [][]int {
	var refresh [][]int
	if g.tracked {
		refresh = g.pend
	}
	g.pend, g.arming = g.arming, g.pend
	for i := range g.pend {
		g.pend[i] = g.pend[i][:0]
	}
	g.tracked = true
	return refresh
}

// prepare re-arms the generation for a new strip: checkpoint the
// current array state (the rollback target if the strip is squashed or
// fails) and epoch-reset the stamps and shadow marks.  refresh is arm's
// result: Rearm refreshes just those locations, or copies everything
// when it is nil.
func (g *pipeGen) prepare(refresh [][]int) {
	g.ts.Rearm(refresh)
	for _, t := range g.tests {
		t.Reset()
	}
}

// wrote accumulates a strip's write-set into the generation's pending
// list; an untracked generation has no baseline to extend.
func (g *pipeGen) wrote(ws [][]int) {
	if !g.tracked {
		return
	}
	for i := range ws {
		g.pend[i] = arena.AppendInts(g.pend[i], ws[i])
	}
}

// analyze runs the PD test for a strip validated through firstValid
// global iterations and returns whether every test passed plus the
// earliest violating iteration (-1 if none was identified).
func (g *pipeGen) analyze(firstValid int) (ok bool, firstViol int) {
	ok, firstViol = true, -1
	for _, t := range g.tests {
		r := t.Analyze(firstValid)
		if !r.DOALL {
			ok = false
			if r.FirstViolation >= 0 && (firstViol < 0 || r.FirstViolation < firstViol) {
				firstViol = r.FirstViolation
			}
		}
	}
	return ok, firstViol
}

type pipeResult struct {
	valid int
	done  bool
	err   error
}

// RunStrippedPipelined is RunStripped with the serial PD-test phase
// hidden behind the next strip's execution — the software pipeline the
// persistent pool makes cheap.  While the coordinator analyzes sealed
// strip k against generation A, strip k+1 already executes into
// generation B (its own checkpoint, stamps and shadow marks); if k
// validates cleanly the pipeline advances and k+1's analysis overlaps
// k+2, and if k fails, k+1 is squashed — joined, then rewound via B's
// checkpoint — before k is repaired exactly as in RunStripped.
//
// Why squash-on-fail is safe: B's checkpoint is taken after strip k's
// execution has completed, so it snapshots the post-k state.  Joining
// the in-flight strip and restoring B's checkpoint therefore erases
// exactly the writes of strip k+1 — a location written by both strips
// gets k's value back, one written only by k+1 gets its pre-k+1 value
// back — after which strip k's own repair (overshoot undo, partial
// commit, or full restore against A's pre-k checkpoint) proceeds on
// precisely the state the serial protocol would see.  The PD analysis
// itself only reads generation A's shadow marks, never array data, so
// it cannot observe k+1's concurrent stores.
//
// The overlap is only launched for a clean-looking full strip (no
// exception, no QUIT, every iteration valid) — the common case strip
// mining is sized for; anything else ends or restarts the pipeline
// anyway, so there is nothing useful to run ahead.
//
// RunStrippedPipelined is RunStrippedPipelinedCtx under
// context.Background().
func RunStrippedPipelined(spec Spec, total, strip int, par StripPar, seq StripSeq) (StripReport, error) {
	return RunStrippedPipelinedCtx(context.Background(), spec, total, strip, par, seq)
}

// RunStrippedPipelinedCtx is the pipelined protocol under a context.
// Cancellation points are the strip boundaries, with one pipelined
// twist: when the overlapped strip k+1 surfaces a cancellation (or a
// contained panic with Spec.PanicFallback unset) while strip k commits,
// k+1 is squashed — rewound via its generation's post-k checkpoint,
// counted in Squashed — so the shared arrays hold exactly the committed
// prefix through strip k before the typed error unwinds.  Cancellation
// never falls back to sequential re-execution.
func RunStrippedPipelinedCtx(ctx context.Context, spec Spec, total, strip int, par StripPar, seq StripSeq) (StripReport, error) {
	return runStrippedPipelinedFrom(ctx, spec, 0, total, strip, par, seq)
}

// RunStrippedPipelinedFromCtx is the pipelined protocol over [start,
// total) for an orchestrator that already committed a prefix below
// start (the auto-tuner's sequential probe).  Semantics are those of
// RunStrippedPipelinedCtx with the first generation's checkpoint
// snapshotting the post-start state; Valid counts iterations from
// start.
func RunStrippedPipelinedFromCtx(ctx context.Context, spec Spec, start, total, strip int, par StripPar, seq StripSeq) (StripReport, error) {
	return runStrippedPipelinedFrom(ctx, spec, start, total, strip, par, seq)
}

// runStrippedPipelinedFrom is the pipelined protocol over [start,
// total): iterations below start are treated as already committed (the
// orchestrator's sequential probe, or a tuned engine's committed
// prefix), so the first generation's checkpoint snapshots the
// post-start state and every stamp, PD mark and Analyze call keeps
// using global indices.  The report's Valid counts iterations from
// start.
func runStrippedPipelinedFrom(ctx context.Context, spec Spec, start, total, strip int, par StripPar, seq StripSeq) (StripReport, error) {
	if par == nil || seq == nil {
		return StripReport{}, fmt.Errorf("speculate: both strip runners are required")
	}
	if strip < 1 {
		return StripReport{}, fmt.Errorf("speculate: strip size must be positive, got %d", strip)
	}
	if spec.SparseUndo {
		return StripReport{}, fmt.Errorf("speculate: RunStrippedPipelined requires the dense stamped path (no SparseUndo)")
	}
	if len(spec.Privatized) > 0 {
		// Privatized writes bypass the generation's Memory, so a squash
		// could not erase them.
		return StripReport{}, fmt.Errorf("speculate: RunStrippedPipelined does not support privatized arrays")
	}
	procs := spec.Procs
	if procs < 1 {
		procs = 1
	}
	mx, tr := spec.Metrics, spec.Tracer

	a, b := newPipeGen(spec, procs), newPipeGen(spec, procs)
	defer a.release()
	defer b.release()

	clamp := func(x int) int {
		if x > total {
			return total
		}
		return x
	}

	var rep StripReport
	lo := start
	if lo < 0 {
		lo = 0
	}
	if lo >= total {
		return rep, nil
	}
	if cerr := cancel.Err(ctx); cerr != nil {
		mx.CtxCancel()
		return rep, cerr
	}

	// Prime the pipeline: the first strip has nothing to overlap.
	a.prepare(a.arm())
	valid, done, err := par(a.tracker, lo, clamp(lo+strip))

	for lo < total {
		hi := clamp(lo + strip)
		if spec.wantsUnwind(err) {
			// The strip in generation A executed but is unvalidated and
			// uncommitted; rewind it so only the committed prefix
			// remains, then unwind.  No overlap is in flight here: the
			// join below intercepts a canceled overlapped strip itself.
			mx.SpecAbort(fmt.Sprintf("strip [%d,%d) unwound: %v", lo, hi, err))
			if rerr := a.ts.RestoreAll(); rerr != nil {
				return rep, rerr
			}
			return rep, err
		}
		if cerr := cancel.Err(ctx); cerr != nil {
			// The runner did not observe the cancellation itself; the
			// unvalidated strip in A is discarded the same way.
			mx.CtxCancel()
			if rerr := a.ts.RestoreAll(); rerr != nil {
				return rep, rerr
			}
			return rep, cerr
		}
		rep.Strips++
		mx.SpecAttempt()
		stripStart := obs.Start(tr)

		// Strip k's writes are now in the arrays: both generations'
		// checkpoints are stale at exactly those locations.
		wsK := a.ts.WriteSet()
		a.wrote(wsK)
		b.wrote(wsK)

		// Launch strip k+1 before validating strip k.  Generation B's
		// checkpoint (re)arms inside the goroutine: it reads the post-k
		// array state, which the coordinator's analysis never writes.
		clean := err == nil && valid == hi-lo && !done
		var next chan pipeResult
		if clean && hi < total {
			next = make(chan pipeResult, 1)
			mx.PipelineOverlap()
			rep.Overlapped++
			// B is armed against the post-k state as of this launch;
			// writes from here on accumulate into its other list (the
			// goroutine owns this one).
			go func(g *pipeGen, lo2, hi2 int, refresh [][]int) {
				g.prepare(refresh)
				v, d, e := par(g.tracker, lo2, hi2)
				next <- pipeResult{v, d, e}
			}(b, hi, clamp(hi+strip), b.arm())
		}

		ok := err == nil && valid >= 0 && valid <= hi-lo
		firstViol := -1
		if ok {
			ok, firstViol = a.analyze(lo + valid)
		}

		if ok && clean {
			// Full strip, PD passed: the commit is free and the next
			// strip (if any) is already running.
			mx.SpecCommit()
			if tr != nil {
				obs.Span(tr, stripStart, "strip", "speculate", 0, map[string]any{"lo": lo, "hi": hi, "valid": valid, "committed": true, "pipelined": next != nil})
			}
			rep.Valid += valid
			lo = hi
			if next != nil {
				r := <-next
				valid, done, err = r.valid, r.done, r.err
				if spec.wantsUnwind(err) {
					// The overlapped strip was canceled (or panicked)
					// mid-flight: squash it against generation B's
					// post-k checkpoint so the arrays keep exactly the
					// prefix committed through strip k.
					if rerr := b.ts.RestoreAll(); rerr != nil {
						return rep, rerr
					}
					mx.PipelineSquash()
					rep.Squashed++
					return rep, err
				}
				a, b = b, a
			}
			continue
		}

		// The strip needs repair.  If k+1 is in flight its speculative
		// state is worthless: join it, then rewind it via generation
		// B's post-k checkpoint so the repair below operates on exactly
		// the state the serial protocol would see.
		if next != nil {
			<-next
			if rerr := b.ts.RestoreAll(); rerr != nil {
				return rep, rerr
			}
			mx.PipelineSquash()
			rep.Squashed++
		}

		if !ok {
			reason := fmt.Sprintf("strip [%d,%d) failed validation", lo, hi)
			if err != nil {
				reason = fmt.Sprintf("strip [%d,%d) exception: %v", lo, hi, err)
			}
			mx.SpecAbort(reason)
			if spec.Recovery.Enabled && err == nil && firstViol > lo {
				// Strip-local partial commit, as in RunStripped.
				restored, perr := a.ts.PartialCommit(firstViol)
				if perr != nil {
					return rep, perr
				}
				rep.Undone += restored
				rep.PrefixCommitted += firstViol - lo
				mx.PrefixCommittedAdd(firstViol - lo)
				mx.RespecRound()
				rep.SeqStrips++
				sv, sdone := seq(firstViol, hi)
				valid, done = (firstViol-lo)+sv, sdone
			} else {
				if rerr := a.ts.RestoreAll(); rerr != nil {
					return rep, rerr
				}
				rep.SeqStrips++
				valid, done = seq(lo, hi)
			}
		} else if valid < hi-lo || done {
			// Undo the strip's overshoot (stamps carry global indices).
			undone, uerr := a.ts.Undo(lo + valid)
			if uerr != nil {
				return rep, uerr
			}
			rep.Undone += undone
			done = true
		}
		if ok {
			mx.SpecCommit()
		}
		if tr != nil {
			obs.Span(tr, stripStart, "strip", "speculate", 0, map[string]any{"lo": lo, "hi": hi, "valid": valid, "committed": ok})
		}
		rep.Valid += valid
		if done {
			rep.Done = true
			return rep, nil
		}

		// Every path reaching here ran a sequential repair whose writes
		// bypassed the trackers: neither generation's checkpoint can be
		// trusted for an incremental re-arm.
		a.ts.InvalidateCheckpoint()
		b.ts.InvalidateCheckpoint()
		a.tracked, b.tracked = false, false

		// Restart the pipeline at the next strip.
		lo = hi
		if lo < total {
			a.prepare(a.arm())
			valid, done, err = par(a.tracker, lo, clamp(lo+strip))
		}
	}
	return rep, nil
}
