package speculate

import (
	"context"
	"fmt"

	"whilepar/internal/cancel"
	"whilepar/internal/costmodel"
	"whilepar/internal/mem"
	"whilepar/internal/obs"
	"whilepar/internal/pdtest"
	"whilepar/internal/tsmem"
	"whilepar/internal/window"
)

// WindowedReport describes a sliding-window speculative execution.
type WindowedReport struct {
	// Valid iterations (matches the sequential loop).
	Valid int
	// UsedParallel is false if a failed PD test forced a sequential
	// re-execution of the whole loop; with recovery enabled it stays
	// true as long as some parallel prefix was kept.
	UsedParallel bool
	// MaxSpan is the largest in-flight iteration span observed — the
	// live time-stamp footprint is bounded by MaxSpan * writes/iter.
	MaxSpan int
	// Undone locations restored (overshoot and recovery suffix undos).
	Undone int
	// RespecRounds counts renewed parallel attempts after partial
	// commits (0 on the all-or-nothing path).
	RespecRounds int
	// PrefixCommitted is the number of iterations salvaged from failed
	// rounds by partial commits.
	PrefixCommitted int
}

// WindowedBody executes one iteration under the tracker and reports
// whether it met the termination condition.
type WindowedBody func(tr mem.Tracker, i, vpn int) (quit bool)

// RunWindowed is the resource-controlled variant of the speculation
// protocol (Section 8.2 applied to Section 4/5): iterations are issued
// under a sliding window — bounding the live time-stamp memory without
// strip mining's global barriers — while stores are stamped and shadow-
// marked exactly as in Run.  On a passed PD test the overshoot beyond
// the discovered exit is undone.
//
// On a failure the behaviour depends on Spec.Recovery: disabled (or
// without a SeqFrom runner), the checkpoint is restored and seq
// re-executes the whole loop — the baseline all-or-nothing protocol.
// Enabled, the engine commits the prefix below the earliest violating
// iteration, rewinds only the suffix's stamped stores, and re-runs the
// window from the violation point with a size the RespecPolicy halves
// on every violation and doubles back on clean runs; after MaxRounds
// failed rounds (or a violation pinned at the resume point) the
// remainder completes sequentially via Recovery.SeqFrom.
//
// RunWindowed is RunWindowedCtx under context.Background().
func RunWindowed(spec Spec, n int, cfg window.Config, body WindowedBody, seq SequentialRunner) (WindowedReport, error) {
	return RunWindowedCtx(context.Background(), spec, n, cfg, body, seq)
}

// RunWindowedCtx is the sliding-window protocol under a context.  The
// round boundary is the cancellation point: once ctx is done no further
// round starts, and the report's Valid is the committed position (0 on
// the all-or-nothing path, the partially-committed prefix when recovery
// already salvaged rounds) together with ErrCanceled/ErrDeadline — the
// sequential completion path is never taken on cancellation.  The
// WindowedBody has no error channel, so mid-round cancellation is the
// caller's to arrange (return quit from the body); the engine then
// validates and commits the shortened prefix normally.
func RunWindowedCtx(ctx context.Context, spec Spec, n int, cfg window.Config, body WindowedBody, seq SequentialRunner) (WindowedReport, error) {
	if body == nil || seq == nil {
		return WindowedReport{}, fmt.Errorf("speculate: body and sequential runner are required")
	}
	procs := spec.Procs
	if procs < 1 {
		procs = 1
	}
	cfg.Procs = procs

	mx, tr := spec.Metrics, spec.Tracer
	start := obs.Start(tr)

	// One memory and one set of shadow structures serve every round:
	// PartialCommit rebases the checkpoint onto the committed state and
	// clears the stamps; Reset clears the marks.  Dependences from the
	// committed prefix into a re-run suffix need no marks — the prefix
	// is complete before the suffix re-executes, so those dependences
	// are satisfied by construction.
	ts := tsmem.NewSharded(procs, spec.Shared...)
	ts.SetObs(mx, tr)
	ts.Checkpoint()
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
	tracker := newFusedTracker(ts, tests)

	rec := spec.Recovery
	recovering := rec.Enabled && rec.SeqFrom != nil
	var policy *costmodel.RespecPolicy
	if recovering {
		policy = rec.Policy
		if policy == nil {
			w0 := cfg.Window
			if w0 < 1 {
				w0 = n
			}
			policy = costmodel.NewRespecPolicy(w0, procs, n)
		}
	}

	var rep WindowedReport
	pos := 0
	for {
		if cerr := cancel.Err(ctx); cerr != nil {
			// Rounds already partially committed (pos > 0) are final;
			// the stamps of the last failed round were cleared by its
			// PartialCommit, so no rewind is pending here.
			mx.CtxCancel()
			rep.Valid = pos
			rep.UsedParallel = pos > 0
			return rep, cerr
		}
		mx.SpecAttempt()
		runCfg := cfg
		if policy != nil {
			runCfg.Window = policy.Window()
		}
		res := window.Run(n-pos, runCfg, func(i, vpn int) window.Control {
			if body(tracker, pos+i, vpn) {
				return window.Quit
			}
			return window.Continue
		})
		if res.MaxSpan > rep.MaxSpan {
			rep.MaxSpan = res.MaxSpan
		}
		valid := pos + res.QuitIndex

		okAll := true
		firstViol := -1
		for _, t := range tests {
			if r := t.Analyze(valid); !r.DOALL {
				okAll = false
				if r.FirstViolation >= 0 && (firstViol < 0 || r.FirstViolation < firstViol) {
					firstViol = r.FirstViolation
				}
			}
		}

		if okAll {
			undone, err := ts.Undo(valid)
			if err != nil {
				mx.SpecAbort(fmt.Sprintf("undo impossible: %v", err))
				if rerr := ts.RestoreAll(); rerr != nil {
					return WindowedReport{}, rerr
				}
				return windowedSeqFallback(rec, rep, pos, seq), nil
			}
			rep.Undone += undone
			ts.Commit()
			mx.SpecCommit()
			if policy != nil {
				policy.OnCleanRun(valid - pos)
			}
			if tr != nil {
				obs.Span(tr, start, "windowed-speculation", "speculate", 0, map[string]any{
					"valid": valid, "maxSpan": rep.MaxSpan, "undone": rep.Undone,
					"respecRounds": rep.RespecRounds, "prefixCommitted": rep.PrefixCommitted,
				})
			}
			rep.Valid = valid
			rep.UsedParallel = true
			return rep, nil
		}

		mx.SpecAbort(fmt.Sprintf("PD test failed validating [%d,%d)", pos, valid))

		if !recovering {
			// Baseline all-or-nothing: rewind and re-run sequentially.
			// (Reachable only on the first round — without recovery
			// there is no second round.)
			if err := ts.RestoreAll(); err != nil {
				return WindowedReport{}, err
			}
			rep.Valid = seq()
			return rep, nil
		}

		rep.RespecRounds++
		mx.RespecRound()
		policy.OnViolation()

		if firstViol > pos && rep.RespecRounds < rec.maxRounds() {
			restored, perr := ts.PartialCommit(firstViol)
			if perr != nil {
				return WindowedReport{}, perr
			}
			rep.Undone += restored
			rep.PrefixCommitted += firstViol - pos
			mx.PrefixCommittedAdd(firstViol - pos)
			for _, t := range tests {
				t.Reset()
			}
			if tr != nil {
				obs.Instant(tr, "partial-recovery", "speculate", 0, map[string]any{
					"resumeAt": firstViol, "restored": restored, "window": policy.Window(),
				})
			}
			pos = firstViol
			continue
		}

		// Round budget spent, or the violation sits at the resume point
		// (no parallel progress possible there): salvage what this
		// round allows, then complete sequentially.
		if firstViol > pos {
			restored, perr := ts.PartialCommit(firstViol)
			if perr != nil {
				return WindowedReport{}, perr
			}
			rep.Undone += restored
			rep.PrefixCommitted += firstViol - pos
			mx.PrefixCommittedAdd(firstViol - pos)
			pos = firstViol
		} else if err := ts.RestoreAll(); err != nil {
			return WindowedReport{}, err
		}
		return windowedSeqFallback(rec, rep, pos, seq), nil
	}
}

// windowedSeqFallback completes a windowed execution sequentially from
// pos: via Recovery.SeqFrom when a prefix has been committed (plain seq
// would wrongly re-apply it), via the full seq runner otherwise.
func windowedSeqFallback(rec Recovery, rep WindowedReport, pos int, seq SequentialRunner) WindowedReport {
	if pos > 0 && rec.SeqFrom != nil {
		rep.Valid = rec.SeqFrom(pos)
		rep.UsedParallel = true
	} else {
		rep.Valid = seq()
	}
	return rep
}
