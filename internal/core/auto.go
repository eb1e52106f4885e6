package core

import (
	"context"
	"slices"
	"time"

	"whilepar/internal/autotune"
	"whilepar/internal/cancel"
	"whilepar/internal/costmodel"
	"whilepar/internal/loopir"
	"whilepar/internal/mem"
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
// iteration against committed state: the recovery resume of the
// whole-loop speculative engines.
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

// accessCounter is the tracker the probe's first chunk runs under: it
// performs every access directly, as a nil tracker would, and counts the
// ones the speculative engines would have to track — loads of Tested
// arrays (shadow-marked) and stores to Shared or Tested ones (stamped,
// marked) — which per iteration is the `a` of the Section 7 model.
type accessCounter struct {
	shared, tested []*mem.Array
	loads, stores  int
}

func (c *accessCounter) Load(a *mem.Array, idx, _, _ int) float64 {
	if slices.Contains(c.tested, a) {
		c.loads++
	}
	return a.Data[idx]
}

func (c *accessCounter) Store(a *mem.Array, idx int, v float64, _, _ int) {
	if slices.Contains(c.tested, a) || slices.Contains(c.shared, a) {
		c.stores++
	}
	a.Data[idx] = v
}

// probeBudget is how much loop the probe wants to have timed before it
// stops extending itself: a 64-iteration chunk of a light body takes a
// couple of microseconds, cold, which times nothing; a few tens do.  A
// heavy body spends the budget in its first chunk and is not extended
// at all.
const probeBudget = 40 * time.Microsecond

// probe is what timedProbe reports beside the seqRun's own position.
type probe struct {
	est autotune.Estimate
	// ns is the probe's whole wall time; bestNs over bestIters its
	// fastest chunk, which is est.NsPerIter.
	ns, bestNs int64
	bestIters  int
}

// timedProbe runs the loop's first iterations sequentially through s
// and measures them: the auto-tuner's online probe.  Its writes are
// direct, which is exactly the committed-prefix state the strip engines
// start from, so a longer probe costs nothing against sequential
// execution.
//
// The first chunk (autotune.ProbeSize) runs under count (nil: bare), in
// four separately timed quarters; further chunks, each as long as all
// before it, run bare.  The estimate is the fastest piece's ns/iter:
// the first pieces are cold, and a busy host can only have slowed any
// of them down — which is also why the first chunk is timed in
// quarters, so that one stall inside it does not pass for a heavy body.
// The probe stops once the loop it has run would take probeBudget at
// that pace, or a quarter of the iteration space is gone.  Every chunk
// ends on a multiple of the first, so a probe that ProbeSize aligned to
// the signature block grain ends on it.
func timedProbe(s *seqRun[int], total, procs int, count *accessCounter) (probe, error) {
	var p probe
	var trk mem.Tracker
	if count != nil {
		trk = count
	}
	first, limit := autotune.ProbeSize(total, procs), total/4
	piece := first
	if first >= 64 {
		piece = first / 4
	}
	for {
		from := s.i
		t0 := time.Now()
		err := s.advance(from+piece, trk)
		d := time.Since(t0).Nanoseconds()
		p.ns += d
		if n := s.i - from; n == piece && (p.bestIters == 0 || d*int64(p.bestIters) < p.bestNs*int64(n)) {
			p.bestNs, p.bestIters = d, n
		}
		counted := s.i >= first || err != nil || s.done
		if counted {
			if trk != nil && s.i > 0 {
				p.est.Loads = float64(count.loads) / float64(s.i)
				p.est.Stores = float64(count.stores) / float64(s.i)
			}
			trk = nil
			piece = s.i // double: the next chunk is as long as the probe so far
		}
		timed := p.bestIters > 0 && p.bestNs*int64(s.i) >= int64(probeBudget)*int64(p.bestIters)
		if err != nil || s.done || (counted && (timed || s.i+piece > limit)) {
			if p.bestIters > 0 {
				p.est.NsPerIter = float64(p.bestNs) / float64(p.bestIters)
			}
			return p, err
		}
	}
}

// learned ends a successful auto-tuned execution: the outcome goes into
// the call site's profile and the branch statistics, and the report out.
func learned(store *autotune.ProfileStore, key string, smp autotune.Sample, rep Report, opt Options) (Report, error) {
	smp.Valid = rep.Valid
	store.Record(key, smp)
	recordStats(opt, rep.Valid)
	return finish(rep, opt), nil
}

// runInductionAuto is the adaptive path for closed-form induction
// loops under fully-defaulted Options: probe sequentially and time it,
// consult the per-call-site profile, pick an engine (autotune.Decide —
// Table 1 and the profile) and keep it only if the Section 7 cost model
// predicts it beats sequential execution (autotune.DecideTimed), run
// the remainder under the choice, and feed the outcome — the measured
// ns/iter of either side included — back into the profile.  Mid-run the
// Tuner re-decides strip size and engine: violation storms shrink
// strips and demote to sequential, as do strips that measure slower
// than the sequential estimate; clean streaks grow strips and promote
// to the pipelined engine.
func runInductionAuto(ctx context.Context, l *loopir.Loop[int], cf loopir.ClosedForm[int], opt Options) (Report, error) {
	total := l.Max
	procs := opt.procs()
	var rep Report

	store := opt.Profiles
	if store == nil {
		store = autotune.Default()
	}
	key := opt.Key
	if key == "" {
		key = callSiteKey()
	}
	prof, haveProf := store.Lookup(key)

	rep.Strategy = "auto: sequential probe"
	seq, err := newSeqRun(ctx, l, 0, l.Disp.Start(), opt.Metrics)
	if err != nil {
		return finish(rep, opt), err
	}
	defer seq.close()
	opt.Metrics.ProbeRun()
	// Only a loop that would have to speculate has accesses to count.
	needsSpec := needsSpeculation(l.Class, opt)
	var count *accessCounter
	if needsSpec {
		count = &accessCounter{shared: opt.Shared, tested: opt.Tested}
	}
	pr, perr := timedProbe(seq, total, procs, count)
	probeN := seq.i
	rep.ProbeNs, rep.ProbeIters, rep.Valid = pr.ns, probeN, probeN
	if perr != nil {
		return finish(rep, opt), perr
	}
	for _, a := range opt.Shared {
		pr.est.Words += a.Len()
	}
	// smp is what every outcome below reports to the profile.
	smp := autotune.Sample{Total: total, Ns: pr.bestNs, NsIters: pr.bestIters, Engine: autotune.Sequential}
	if seq.done {
		rep.Strategy = "auto: probe completed the loop"
		rep.Decision = costmodel.Decision{Reason: "the probe completed the loop", ExpectedSpeedup: 1}
		return learned(store, key, smp, rep, opt)
	}

	plan := autotune.DecideTimed(prof, haveProf, pr.est, store.Table(needsSpec), total-probeN, procs, needsSpec)
	rep.Decision = costmodel.Decision{Parallelize: plan.Engine != autotune.Sequential,
		Reason: plan.Reason, ExpectedSpeedup: plan.ExpectedSpeedup}
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
	smp.Engine = plan.Engine

	switch plan.Engine {
	case autotune.Sequential:
		err := seq.advance(0, nil)
		rep.Valid = seq.i
		if err != nil {
			return finish(rep, opt), err
		}
		return learned(store, key, smp, rep, opt)

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
		return learned(store, key, smp, rep, opt)
	}

	// Speculative engines: strip-mined, pool-backed, globally indexed.
	// An external Options.Workers pool is used as-is (and never closed
	// here); otherwise the execution spawns its own.  The clock that
	// tells the profile what speculation cost here starts before the
	// pool does: spawning it is part of the price of the choice.
	t0 := time.Now()
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
		Total: total, PipelineOK: true, Metrics: opt.Metrics, SeqNsPerIter: plan.SeqNsPerIter})
	var srep speculate.StripReport
	if plan.Engine == autotune.Pipelined {
		srep, err = speculate.RunStrippedPipelinedFromCtx(ctx, spec, probeN, total, plan.Strip, stripPar, stripSeq)
	} else {
		srep, err = speculate.RunTunedCtx(ctx, spec, probeN, total, tuner, stripPar, stripSeq)
	}
	smp.SpecNs, smp.SpecIters = time.Since(t0).Nanoseconds(), srep.Valid
	if plan.ExpectedSpeedup > 0 {
		smp.SpecPredicted = plan.SeqNsPerIter / plan.ExpectedSpeedup
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
	smp.Strips, smp.SeqStrips = srep.Strips, srep.SeqStrips
	smp.Tier, smp.Violated, smp.AuditFailed = int(srep.Tier), srep.TierDemoted, srep.AuditFailures > 0
	if srep.Demoted {
		// The Tuner gave up on speculation: the committed prefix is
		// final and the remainder runs through the sequential executor,
		// directly against the arrays — the stripped protocol's
		// sequential-fallback contract — but cancellable.
		rest, err := newSeqRun(ctx, l, rep.Valid, cf.At(rep.Valid), opt.Metrics)
		if err != nil {
			return finish(rep, opt), err
		}
		defer rest.close()
		err = rest.advance(0, nil)
		rep.Valid = rest.i
		if err != nil {
			return finish(rep, opt), err
		}
		smp.Engine = autotune.Sequential
	}
	return learned(store, key, smp, rep, opt)
}
