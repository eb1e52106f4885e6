package core

import (
	"context"
	"runtime/debug"
	"time"

	"whilepar/internal/autotune"
	"whilepar/internal/cancel"
	"whilepar/internal/loopir"
	"whilepar/internal/sched"
	"whilepar/internal/speculate"
)

// inductionDispAt positions the dispatcher at an arbitrary iteration:
// the closed form directly when the dispatcher has one, otherwise by
// replaying the recurrence chain.
func inductionDispAt(l *loopir.Loop[int]) func(int) int {
	return func(i int) int {
		if cf, ok := l.Disp.(loopir.ClosedForm[int]); ok {
			return cf.At(i)
		}
		d := l.Disp.Start()
		for k := 0; k < i; k++ {
			d = l.Disp.Next(d)
		}
		return d
	}
}

// inductionSeqFrom completes the loop sequentially from an arbitrary
// iteration against committed state — the recovery resume, the tuned
// engine's sequential demotion, and the post-probe short-remainder
// path all use it.
func inductionSeqFrom(l *loopir.Loop[int]) func(int) int {
	dispAt := inductionDispAt(l)
	return func(from int) int {
		slot := loopir.NewIterSlots(1)
		d := dispAt(from)
		for i := from; l.Max <= 0 || i < l.Max; i++ {
			if l.Cond != nil && !l.Cond(d) {
				return i
			}
			if !l.Body(slot.At(0, i, nil), d) {
				return i
			}
			d = l.Disp.Next(d)
		}
		return l.Max
	}
}

// probeInduction runs the first probeN iterations sequentially on the
// calling goroutine: the auto-tuner's online probe.  Its writes are
// direct (no tracker), which is exactly the committed-prefix state the
// strip engines start from.  The per-iteration context check keeps
// deadlines honest even when the body is slow, and a panicking body is
// contained here just as a worker would contain it.
func probeInduction(ctx context.Context, l *loopir.Loop[int], probeN int, opt Options) (iters int, done bool, err error) {
	slot := loopir.NewIterSlots(1)
	d := l.Disp.Start()
	i := 0
	defer func() {
		if r := recover(); r != nil {
			opt.Metrics.WorkerPanic()
			iters, done = i, false
			err = &cancel.PanicError{Iter: i, VPN: 0, Value: r, Stack: debug.Stack()}
		}
	}()
	for ; i < probeN; i++ {
		if cerr := cancel.Err(ctx); cerr != nil {
			opt.Metrics.CtxCancel()
			return i, false, cerr
		}
		if l.Cond != nil && !l.Cond(d) {
			return i, true, nil
		}
		if !l.Body(slot.At(0, i, nil), d) {
			return i, true, nil
		}
		d = l.Disp.Next(d)
	}
	return probeN, false, nil
}

// seqRemainder completes the loop sequentially from a committed prefix
// with the same containment contract as the parallel engines: context
// checked per iteration, a panicking body surfaced as a PanicError at
// its global iteration index instead of unwinding through the caller.
// It backs the auto path's sequential plan (the plan a single
// processor, a short remainder, or a violation-heavy profile earns).
func seqRemainder(ctx context.Context, l *loopir.Loop[int], from int, opt Options) (valid int, err error) {
	slot := loopir.NewIterSlots(1)
	d := inductionDispAt(l)(from)
	i := from
	defer func() {
		if r := recover(); r != nil {
			opt.Metrics.WorkerPanic()
			valid = i
			err = &cancel.PanicError{Iter: i, VPN: 0, Value: r, Stack: debug.Stack()}
		}
	}()
	for ; l.Max <= 0 || i < l.Max; i++ {
		if cerr := cancel.Err(ctx); cerr != nil {
			opt.Metrics.CtxCancel()
			return i, cerr
		}
		if l.Cond != nil && !l.Cond(d) {
			return i, nil
		}
		if !l.Body(slot.At(0, i, nil), d) {
			return i, nil
		}
		d = l.Disp.Next(d)
	}
	return l.Max, nil
}

// runInductionAuto is the adaptive path for closed-form induction
// loops under fully-defaulted Options: probe sequentially, consult the
// per-call-site profile, pick an engine (autotune.Decide — engine and
// schedule from deterministic inputs only), run the remainder under
// it, and feed the outcome back into the profile.  Mid-run the Tuner
// re-decides strip size and engine from the obs counters: violation
// storms shrink strips and demote to sequential, clean streaks grow
// strips and promote to the pipelined engine.
func runInductionAuto(ctx context.Context, l *loopir.Loop[int], cf loopir.ClosedForm[int], opt Options) (Report, error) {
	total := l.Max
	procs := opt.procs()
	d, _ := decide(opt, l.Class.Dispatcher) // no Times on this path: the default-parallelize verdict
	rep := Report{Decision: d}

	store := opt.Profiles
	if store == nil {
		store = autotune.Default()
	}
	key := opt.Key
	if key == "" {
		key = callSiteKey()
	}
	prof, haveProf := store.Lookup(key)

	probeN := autotune.ProbeSize(total, procs)
	opt.Metrics.ProbeRun()
	t0 := time.Now()
	pIters, pDone, perr := probeInduction(ctx, l, probeN, opt)
	rep.ProbeNs = time.Since(t0).Nanoseconds()
	rep.ProbeIters = pIters
	rep.Valid = pIters
	if perr != nil {
		rep.Strategy = "auto: sequential probe"
		return finish(rep, opt), perr
	}
	if pDone || probeN >= total {
		rep.Strategy = "auto: probe completed the loop"
		store.Record(key, autotune.Sample{Valid: rep.Valid, Total: total,
			Ns: rep.ProbeNs, NsIters: pIters, Engine: autotune.Sequential})
		recordStats(opt, rep.Valid)
		return finish(rep, opt), nil
	}

	needsSpec := needsSpeculation(l.Class, opt)
	plan := autotune.Decide(prof, haveProf, total-probeN, procs, needsSpec)
	// A pinned Validation overrides the earned tier.  A pinned tier
	// above full forces the stripped engine (the pipeline is
	// element-wise only) and the schedule/strip shape the signatures
	// need: stealing's contiguous chunks on block-aligned strips.
	switch opt.Validation {
	case ValidationFull:
		plan.Tier = 0
	case ValidationSignature, ValidationTrusted:
		if plan.Engine == autotune.Pipelined {
			plan.Engine = autotune.Speculative
			plan.Window = 1
		}
		if plan.Engine == autotune.Speculative {
			plan.Tier = int(opt.Validation.tier())
			plan.Schedule = sched.Stealing
			plan.Strip = autotune.AlignStrip(plan.Strip, procs)
		}
	}
	rep.Strategy = "auto: probe + " + plan.Engine.String()

	switch plan.Engine {
	case autotune.Sequential:
		v, serr := seqRemainder(ctx, l, probeN, opt)
		rep.Valid = v
		if serr != nil {
			return finish(rep, opt), serr
		}
		store.Record(key, autotune.Sample{Valid: rep.Valid, Total: total,
			Ns: rep.ProbeNs, NsIters: pIters, Engine: autotune.Sequential})
		recordStats(opt, rep.Valid)
		return finish(rep, opt), nil

	case autotune.DOALL:
		slots := loopir.NewIterSlots(procs)
		so := opt.doallOptions(opt.Workers)
		so.Schedule = plan.Schedule
		res, err := sched.DOALLCtx(ctx, total-probeN, so,
			func(i, vpn int) sched.Control {
				gi := probeN + i
				dv := cf.At(gi)
				if l.Cond != nil && !l.Cond(dv) {
					return sched.Quit
				}
				if !l.Body(slots.At(vpn, gi, nil), dv) {
					return sched.Quit
				}
				return sched.Continue
			})
		rep.Executed, rep.Overshot = res.Executed, res.Overshot
		if err != nil {
			// No speculation means no undo: the committed prefix is
			// the probe plus the contiguous executed prefix.  The
			// scheduler reports region-local iteration indices, so a
			// contained panic is re-anchored to the global space.
			if pe, ok := cancel.AsPanic(err); ok && pe.Iter >= 0 {
				pe.Iter += probeN
			}
			rep.Valid = probeN + res.Prefix
			return finish(rep, opt), err
		}
		rep.Valid = probeN + res.QuitIndex
		rep.UsedParallel = true
		store.Record(key, autotune.Sample{Valid: rep.Valid, Total: total,
			Ns: rep.ProbeNs, NsIters: pIters, Engine: autotune.DOALL})
		recordStats(opt, rep.Valid)
		return finish(rep, opt), nil
	}

	// Speculative engines: strip-mined, pool-backed, globally indexed.
	// An external Options.Workers pool is used as-is (and never closed
	// here); otherwise the execution spawns its own.
	pool := opt.Workers
	if pool == nil {
		pool = sched.NewPool(procs)
		defer pool.Close()
	}
	so := opt.doallOptions(pool)
	so.Schedule = plan.Schedule
	stripPar, stripSeq, tally := stripRunners(ctx, so, l.Body, l.Cond, cf.At)
	spec := speculate.Spec{Procs: procs, Shared: opt.Shared, Tested: opt.Tested,
		Tier:    speculate.Tier(plan.Tier),
		Metrics: opt.Metrics, Tracer: opt.Tracer}
	tuner := autotune.NewTuner(autotune.TunerConfig{Plan: plan, Procs: procs,
		Total: total, PipelineOK: true, Metrics: opt.Metrics})
	var srep speculate.StripReport
	var err error
	if plan.Engine == autotune.Pipelined {
		srep, err = speculate.RunStrippedPipelinedFromCtx(ctx, spec, probeN, total, plan.Strip, stripPar, stripSeq)
	} else {
		srep, err = speculate.RunTunedCtx(ctx, spec, probeN, total, tuner, stripPar, stripSeq)
	}
	rep.Valid = probeN + srep.Valid
	rep.Undone = srep.Undone
	rep.PrefixCommitted = srep.PrefixCommitted
	rep.Executed, rep.Overshot = tally.executed, tally.overshot
	rep.Retunes = tuner.Events()
	rep.ValidationTier = int(srep.Tier)
	rep.TierDemoted = srep.TierDemoted
	rep.SigFalsePositives = srep.SigFalsePositives
	rep.AuditRuns, rep.AuditFailures = srep.AuditRuns, srep.AuditFailures
	if err != nil {
		// srep.Valid is the committed-strip prefix on unwind.
		return finish(rep, opt), err
	}
	rep.UsedParallel = srep.Strips > srep.SeqStrips
	store.Record(key, autotune.Sample{Valid: rep.Valid, Total: total,
		Ns: rep.ProbeNs, NsIters: pIters,
		Strips: srep.Strips, SeqStrips: srep.SeqStrips, Engine: plan.Engine,
		Tier: int(srep.Tier), Violated: srep.TierDemoted, AuditFailed: srep.AuditFailures > 0})
	recordStats(opt, rep.Valid)
	return finish(rep, opt), nil
}
