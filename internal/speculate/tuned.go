package speculate

import (
	"context"
	"fmt"
	"time"

	"whilepar/internal/cancel"
)

// StripController steers a tuned strip-mined execution.  It is defined
// structurally here (primitive-typed methods only) so the auto-tuner
// can implement it without this package importing it — the same
// inversion that keeps the cost model out of the engines.
//
// The engine calls NextStrip before launching each strip, Observe
// after each strip's verdict, and consults the two Switch methods at
// strip boundaries.  Both switches are monotone within a run: once
// either returns true it must keep returning true.
type StripController interface {
	// NextStrip returns the strip size to use for the strip starting
	// at iteration done of total.  Values are clamped to [1, total-done].
	NextStrip(done, total int) int
	// Observe reports the strip [lo, hi): valid iterations within it,
	// whether it committed cleanly (PD passed, no exception), and the
	// wall time it took in nanoseconds, a rewind and sequential
	// re-execution included.
	Observe(lo, valid, hi int, committed bool, ns int64)
	// SwitchPipeline asks to hand the remainder to the pipelined
	// engine (ignored while the speculation mode cannot be squashed —
	// sparse undo or privatized copies).
	SwitchPipeline() bool
	// SwitchSequential asks to stop speculating: the engine returns at
	// the committed boundary with StripReport.Demoted set, and the
	// caller completes the loop sequentially.
	SwitchSequential() bool
}

// RunTunedCtx is RunStrippedCtx with the strip size, and the engine
// itself, under a controller's mid-run authority: each strip's size
// comes from ctl.NextStrip, each verdict feeds ctl.Observe, and at
// every strip boundary the controller may promote the remainder to the
// pipelined engine or give up on speculation — the engine then returns
// the committed prefix with StripReport.Demoted set and leaves the
// remainder to the caller, whose sequential executor observes the
// context and contains panics where a StripSeq cannot.  Iterations
// below start are treated as already committed (the orchestrator's
// sequential probe); stamps and PD marks carry global indices
// throughout, exactly as in RunStrippedCtx.
//
// The cancellation and panic contract is RunStrippedCtx's: committed
// strips are final, the failing strip is rewound via its checkpoint,
// and the typed error unwinds with the committed prefix in the report.
func RunTunedCtx(ctx context.Context, spec Spec, start, total int, ctl StripController, par StripPar, seq StripSeq) (StripReport, error) {
	if par == nil || seq == nil {
		return StripReport{}, fmt.Errorf("speculate: both strip runners are required")
	}
	if ctl == nil {
		return StripReport{}, fmt.Errorf("speculate: RunTuned requires a StripController")
	}
	if start < 0 {
		start = 0
	}
	procs := spec.Procs
	if procs < 1 {
		procs = 1
	}
	var rep StripReport
	rt := newTierRuntime(spec, procs, start, total, &rep)
	defer rt.release()
	// The pipeline hand-off double-buffers checkpoints; modes a squash
	// cannot erase stay on the stripped path regardless of what the
	// controller asks — and so do runs granted a tier above TierFull,
	// because the pipelined engine only speaks the element-wise
	// protocol.
	pipelineOK := !spec.SparseUndo && len(spec.Privatized) == 0 &&
		rt.chosen == TierFull

	for lo := start; lo < total; {
		if cerr := cancel.Err(ctx); cerr != nil {
			spec.Metrics.CtxCancel()
			return rep, cerr
		}
		strip := ctl.NextStrip(lo, total)
		if strip < 1 {
			strip = 1
		}
		hi := lo + strip
		if hi > total {
			hi = total
		}
		t0 := time.Now()
		valid, committed, stop, err := rt.step(lo, hi, par, seq)
		if err != nil {
			return rep, err
		}
		ctl.Observe(lo, valid, hi, committed, time.Since(t0).Nanoseconds())
		if stop {
			return rep, nil
		}
		lo = hi
		if lo >= total {
			break
		}
		if ctl.SwitchSequential() {
			// The controller gave up on speculation: the committed
			// prefix is final and the remainder is the caller's.
			rep.Demoted = true
			return rep, nil
		}
		if pipelineOK && ctl.SwitchPipeline() {
			// Promote the remainder: the pipelined engine takes over
			// from the committed boundary with its own double-buffered
			// generations (full checkpoint of the post-prefix state on
			// priming).
			pstrip := ctl.NextStrip(lo, total)
			if pstrip < 1 {
				pstrip = 1
			}
			prep, perr := runStrippedPipelinedFrom(ctx, spec, lo, total, pstrip, par, seq)
			rep.Valid += prep.Valid
			rep.Strips += prep.Strips
			rep.SeqStrips += prep.SeqStrips
			rep.Undone += prep.Undone
			rep.PrefixCommitted += prep.PrefixCommitted
			rep.Overlapped += prep.Overlapped
			rep.Squashed += prep.Squashed
			rep.Done = prep.Done
			return rep, perr
		}
	}
	return rep, nil
}
