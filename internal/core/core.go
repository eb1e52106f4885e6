// Package core is the orchestration layer — the paper's "compiler plus
// run-time system" in library form.  Given a WHILE loop in loopir form
// plus the annotations a compiler pass would have produced (which arrays
// are written in place, which have unanalyzable access patterns, which
// may be privatized), it:
//
//  1. classifies the loop against the Table 1 taxonomy;
//  2. consults the Section 7 cost model on whether to parallelize at
//     all;
//  3. selects the transformation — Induction-1/2 for closed-form
//     dispatchers, parallel-prefix distribution for associative
//     recurrences, General-1/2/3 for linked-list traversals;
//  4. wraps the execution in the Section 4/5 speculation protocol
//     (checkpoint, time-stamps, PD test, undo or sequential
//     re-execution) whenever overshoot or unknown dependences make it
//     necessary.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"whilepar/internal/autotune"
	"whilepar/internal/cancel"
	"whilepar/internal/costmodel"
	"whilepar/internal/doacross"
	"whilepar/internal/genrec"
	"whilepar/internal/induction"
	"whilepar/internal/list"
	"whilepar/internal/loopir"
	"whilepar/internal/mem"
	"whilepar/internal/obs"
	"whilepar/internal/pdtest"
	"whilepar/internal/prefix"
	"whilepar/internal/sched"
	"whilepar/internal/speculate"
)

// ListMethod selects among the Section 3.3 techniques.
type ListMethod int

const (
	// AutoList picks General-3, the paper's overall winner (dynamic
	// assignment, no serialization, modest redundant traversal).
	AutoList ListMethod = iota
	// General1 serializes next() behind a lock.
	General1
	// General2 statically assigns iterations mod nproc.
	General2
	// General3 dynamically assigns iterations with private cursors.
	General3
	// DoacrossList pipelines the traversal (WHILE-DOACROSS): iteration i
	// receives its node from iteration i-1's dispatcher hand-off and
	// overlaps only the remainder — no redundant traversal, but the
	// hand-off chain is the critical path.
	DoacrossList
)

// String names the method as in the paper.
func (m ListMethod) String() string {
	switch m {
	case General1:
		return "General-1"
	case General2:
		return "General-2"
	case General3:
		return "General-3"
	case DoacrossList:
		return "WHILE-DOACROSS"
	}
	return "General-3 (auto)"
}

// Options configures an orchestrated execution.
type Options struct {
	// Strategy selects the execution strategy.  The zero value, Auto,
	// lets the orchestrator pick engine, schedule, strip size and
	// respeculation window itself (see Strategy); the explicit values
	// pin one engine each — StrategyRunTwice, StrategyRecover and
	// StrategyPipeline are the only way to request those protocols.
	Strategy Strategy
	// Profiles is the persistent per-call-site profile store the
	// adaptive selector learns from.  Nil uses a process-wide default
	// store; services that want profiles to survive restarts supply
	// their own and persist it (autotune.ProfileStore is
	// JSON-round-trippable).
	Profiles *autotune.ProfileStore
	// Key identifies this loop in the profile store.  Empty derives a
	// key from the caller's file:line, so distinct loops learn
	// independently with zero configuration.
	Key string
	// Procs is the number of virtual processors.  Zero defaults to
	// runtime.GOMAXPROCS(0); an explicit 1 requests sequential
	// execution; negative values are rejected by Validate.
	Procs int
	// InductionMethod selects how the whole-loop engines find the exit:
	// Induction-2 (QUIT: stop issuing once an exit is found) is the zero
	// value; Induction1 runs the whole iteration space and reduces.
	InductionMethod induction.Method
	// ListMethod for general-recurrence loops.
	ListMethod ListMethod
	// Schedule for the DOALLs.
	Schedule sched.Schedule
	// Shared lists arrays the loop writes in place (checkpoint + stamp
	// + undo when overshoot is possible).
	Shared []*mem.Array
	// Tested lists arrays with unanalyzable access patterns (PD test).
	Tested []*mem.Array
	// Privatized lists arrays to run against private copies.
	Privatized []speculate.PrivSpec
	// Times, if non-zero, feeds the Section 7 decision; a loop the
	// model rejects is executed sequentially.
	Times costmodel.LoopTimes
	// Stats, if set, supplies the branch-statistics trip-count estimate
	// and enables the Section 8.1 stamp threshold.
	Stats *costmodel.BranchStats
	// MinIters is the profitability floor for the trip-count check.
	MinIters int
	// SparseUndo selects the hash-table undo scheme (Section 4) instead
	// of full checkpointing — for loops whose writes touch a sparse
	// subset of large arrays.
	SparseUndo bool
	// MaxRespecRounds bounds renewed parallel attempts after partial
	// commits in the re-speculating engines (StrategyRecover); 0 means
	// speculate.DefaultMaxRespecRounds.  Negative values are rejected.
	MaxRespecRounds int
	// Pool runs every parallel phase of the execution on one persistent
	// worker pool: the workers are spawned once per entry-point call
	// and parked on a barrier between phases, so a strip-mined or
	// multi-phase loop pays one barrier release per phase instead of
	// procs goroutine spawns.  Off (the default), every phase spawns
	// its own goroutines — the retained baseline and equivalence
	// oracle.  Ignored when Workers supplies a pool.
	Pool bool
	// Workers, if non-nil, is an externally owned worker pool every
	// parallel phase of this execution runs on.  The orchestrator
	// never closes it, so one pool — typically a shared pool
	// (sched.NewSharedPool) — can back many concurrent executions:
	// each parallel region is admitted onto the pool in FIFO order and
	// the effective processor count is clamped to the pool's size.
	Workers *sched.Pool
	// Deadline, if positive, bounds the execution's wall-clock time:
	// the entry point derives a context.WithTimeout from the caller's
	// context (context.Background() for the non-Ctx entry points), so
	// even Run/RunInduction callers that never touch contexts get
	// deadline support.  On expiry the engines stop at the next
	// iteration/strip/chunk boundary, restore any uncommitted
	// speculative state, and return the committed prefix with
	// ErrDeadline.  Zero means no deadline; negative is rejected by
	// Validate (ErrBadDeadline).
	Deadline time.Duration
	// Validation pins the speculative validation tier (full shadows,
	// hash signatures, or shadow-free trusted strips with sampled
	// audits).  The zero value lets the adaptive selector promote and
	// demote the tier from the loop's clean-run streak; see Validation.
	Validation Validation
	// FallbackSequential routes a contained worker panic through the
	// speculation protocol's sequential fallback (restore + re-execute,
	// like any exception) instead of returning ErrWorkerPanic.  Only
	// executions that run under the speculation protocol have a
	// fallback to route to; elsewhere the panic error is returned
	// regardless.
	FallbackSequential bool
	// Metrics, if non-nil, accumulates runtime counters across every
	// layer of the execution (scheduling, speculation, undo memory, PD
	// tests); the Report carries a snapshot.  Tracer, if non-nil,
	// receives structured events suitable for Chrome's trace viewer.
	Metrics *obs.Metrics
	Tracer  obs.Tracer

	// The engine flags the orchestrator dispatches on, derived from
	// Strategy by resolved().  Unexported on purpose: Strategy is the
	// only way callers request these protocols.
	runTwice bool
	recovery bool
	pipeline bool
}

// withDeadline derives the execution context: the caller's ctx (nil
// becomes Background) bounded by Options.Deadline when one is set.  The
// returned stop function must be deferred; it releases the timer.
func (o Options) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Deadline > 0 {
		return context.WithTimeout(ctx, o.Deadline)
	}
	return ctx, func() {}
}

func (o Options) procs() int {
	if o.Procs == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Procs < 1 {
		return 1 // negative: Validate rejects; clamp defensively
	}
	return o.Procs
}

func (o Options) hooks() obs.Hooks { return obs.Hooks{M: o.Metrics, T: o.Tracer} }

// newPool resolves the execution's persistent worker pool: the
// caller-owned Options.Workers when supplied, a freshly spawned pool
// when Options asks for one (StrategyPipeline implies Pool), nil
// otherwise (every phase spawns its own goroutines).  owned reports
// whether the orchestrator must Close it.
func (o Options) newPool() (pool *sched.Pool, owned bool) {
	if o.Workers != nil {
		return o.Workers, false
	}
	if !o.Pool && !o.pipeline {
		return nil, false
	}
	return sched.NewPool(o.procs()), true
}

// closePool is a deferred Close that leaves caller-owned pools alone.
func closePool(p *sched.Pool, owned bool) {
	if p != nil && owned {
		p.Close()
	}
}

// pipeStrip sizes the strips of a pipelined speculative execution:
// small enough that many strips flow through the pipeline (a failed
// strip forfeits little work and the PD-test overlap repeats often),
// large enough that each strip amortizes its checkpoint and barrier.
func pipeStrip(total, procs int) int {
	s := total / 16
	if min := 4 * procs; s < min {
		s = min
	}
	if s > total {
		s = total
	}
	if s < 1 {
		s = 1
	}
	return s
}

// recoveryFor assembles the speculate.Recovery configuration for one
// execution; seqFrom completes the loop sequentially from an arbitrary
// iteration against partially committed state.
func (o Options) recoveryFor(seqFrom func(from int) int) speculate.Recovery {
	if !o.recovery {
		return speculate.Recovery{}
	}
	return speculate.Recovery{Enabled: true, MaxRounds: o.MaxRespecRounds, SeqFrom: seqFrom}
}

// Report describes what the orchestrator did.
type Report struct {
	// Valid iterations (matches the sequential loop).
	Valid int
	// Strategy is the human-readable transformation name.
	Strategy string
	// UsedParallel is false if the loop ran (or re-ran) sequentially.
	UsedParallel bool
	// Decision is the cost model's verdict: on the adaptive path the
	// planner's (predicted Sp_at from the timed probe and the host's
	// unit costs, and the reasoning), elsewhere ShouldParallelize's on
	// Options.Times (the default-to-parallelize verdict if none given).
	Decision costmodel.Decision
	// Failure explains a speculative fallback, "" otherwise.
	Failure string
	// PD holds per-tested-array verdicts when speculation ran.
	PD []pdtest.Result
	// Undone counts restored locations.
	Undone int
	// Executed and Overshot iterations in the parallel attempt.
	Executed, Overshot int
	// RespecRounds counts renewed parallel attempts after partial
	// commits, and PrefixCommitted the iterations those commits salvaged
	// from failed speculative executions (both 0 unless Options.Recovery
	// engaged; UsedParallel stays true when a prefix was kept).
	RespecRounds    int
	PrefixCommitted int
	// StampThreshold is the Section 8.1 statistics-enhanced threshold
	// used (0 = every store stamped).
	StampThreshold int
	// StrategyChosen names the strategy the orchestrator settled on
	// before running — for auto-tuned executions the selector's
	// initial plan (mid-run changes land in Retunes, not here, so the
	// field is identical across identical runs), elsewhere a copy of
	// Strategy.
	StrategyChosen string
	// ProbeIters and ProbeNs are the auto-tuner's online probe cost:
	// iterations executed sequentially before an engine was chosen,
	// and the wall-clock they took (both 0 when no probe ran).
	ProbeIters int
	ProbeNs    int64
	// Retunes lists the mid-run strategy adjustments the auto-tuner
	// made, in order (nil when none, or when the run was not
	// auto-tuned).
	Retunes []autotune.RetuneEvent
	// ValidationTier is the tier the speculative engine actually ran at
	// (0 = full element-wise shadows — also the value for executions
	// that never speculated); TierDemoted reports a mid-run fall back
	// to the full tier after a violation or audit failure.
	ValidationTier int
	TierDemoted    bool
	// SigFalsePositives counts Tier-1 strips flagged by hash aliasing
	// whose element-wise re-run found no real violation; AuditRuns and
	// AuditFailures count Tier-2 sampled audit strips and the ones
	// whose PD test failed.
	SigFalsePositives int
	AuditRuns         int
	AuditFailures     int
	// Metrics is a snapshot of the run's counters, taken as the
	// orchestrator returns; nil unless Options.Metrics was set.
	Metrics *obs.Snapshot
}

// Strategy names of the two whole-loop sequential executions.
const (
	seqExplicit  = "sequential (explicit)"
	seqCostModel = "sequential (cost model)"
)

// finish stamps the report with a metrics snapshot (when requested)
// and the settled strategy name just before the orchestrator hands it
// back.
func finish(rep Report, opt Options) Report {
	if rep.StrategyChosen == "" {
		rep.StrategyChosen = rep.Strategy
	}
	if opt.Metrics != nil {
		s := opt.Metrics.Snapshot()
		rep.Metrics = &s
	}
	return rep
}

// decide runs the Section 7 analysis if the caller supplied timing
// estimates; with no estimates the loop is assumed profitable (the
// paper's default stance: "they should almost always be applied").
func decide(opt Options, kind loopir.DispatcherKind) (costmodel.Decision, bool) {
	if opt.Times.Tseq() <= 0 {
		return costmodel.Decision{Parallelize: true, Reason: "no estimates: default to parallelize"}, true
	}
	ps := costmodel.Params{
		Kind:        kind,
		Times:       opt.Times,
		Procs:       opt.procs(),
		NeedsPDTest: len(opt.Tested) > 0,
		// With no run-time history assume iterations are likely
		// independent — the compiler chose speculation for a reason.
		ProbParallel: 0.75,
		MinIters:     float64(opt.MinIters),
	}
	if opt.Stats != nil {
		ni, _ := opt.Stats.Estimate()
		ps.EstimatedIters = ni
	}
	d := costmodel.ShouldParallelize(ps)
	return d, d.Parallelize
}

// needsSpeculation reports whether the execution must run under the
// checkpoint/undo + PD protocol.
func needsSpeculation(class loopir.Class, opt Options) bool {
	return len(opt.Tested) > 0 || len(opt.Privatized) > 0 ||
		(class.CanOvershoot() && len(opt.Shared) > 0)
}

// stampThreshold derives the Section 8.1 threshold from branch stats.
func stampThreshold(opt Options) int {
	if opt.Stats == nil {
		return 0
	}
	return opt.Stats.StampThreshold()
}

// RunInduction orchestrates a WHILE loop whose dispatcher is an
// induction (Section 3.1).  l.Max must bound the iteration space.  It
// is RunInductionCtx under context.Background().
func RunInduction(l *loopir.Loop[int], opt Options) (Report, error) {
	return RunInductionCtx(context.Background(), l, opt)
}

// RunInductionCtx is RunInduction under a context: once ctx is done (or
// Options.Deadline expires) the execution stops at the next iteration
// or strip boundary, uncommitted speculative state is restored, and the
// Report carries the committed prefix together with
// ErrCanceled/ErrDeadline.  A panicking body is contained and returned
// as ErrWorkerPanic — or, with Options.FallbackSequential on a
// speculative path, absorbed by the sequential fallback.
func RunInductionCtx(ctx context.Context, l *loopir.Loop[int], opt Options) (Report, error) {
	if err := opt.Validate(); err != nil {
		return Report{}, err
	}
	opt = opt.resolved()
	ctx, stop := opt.withDeadline(ctx)
	defer stop()
	if opt.Strategy == StrategySequential {
		return runSequential(ctx, l, Report{Strategy: seqExplicit}, opt)
	}
	if opt.autoEligible() {
		if cf, ok := l.Disp.(loopir.ClosedForm[int]); ok && l.Max > 0 {
			return runInductionAuto(ctx, l, cf, opt)
		}
	}
	d, ok := decide(opt, l.Class.Dispatcher)
	rep := Report{Decision: d, Strategy: opt.InductionMethod.String()}
	if !ok {
		rep.Strategy = seqCostModel
		return runSequential(ctx, l, rep, opt)
	}

	pool, owned := opt.newPool()
	defer closePool(pool, owned)
	cfg := induction.Config{Procs: opt.procs(), Method: opt.InductionMethod, Schedule: opt.Schedule,
		Metrics: opt.Metrics, Tracer: opt.Tracer, Pool: pool}

	if opt.runTwice {
		if len(opt.Tested) > 0 || len(opt.Privatized) > 0 {
			return rep, ErrRunTwiceUnanalyzable
		}
		valid, err := speculate.RunTwiceCtx(ctx, opt.Shared, opt.procs(), opt.hooks(),
			func() (int, error) {
				r, rerr := induction.RunCtx(ctx, l, cfg)
				rep.Executed = r.Executed
				return r.Valid, rerr
			},
			func(valid int) error {
				second := *l
				second.Max = valid
				_, rerr := induction.RunCtx(ctx, &second, cfg)
				return rerr
			})
		if err != nil {
			return rep, err
		}
		rep.Valid = valid
		rep.UsedParallel = true
		rep.Strategy = fmt.Sprintf("%s, run-twice (no time-stamps)", opt.InductionMethod)
		recordStats(opt, valid)
		return finish(rep, opt), nil
	}

	if !needsSpeculation(l.Class, opt) {
		res, err := induction.RunCtx(ctx, l, cfg)
		rep.Valid, rep.Executed, rep.Overshot = res.Valid, res.Executed, res.Overshot
		if err != nil {
			// res.Valid is already capped at the committed prefix.
			return finish(rep, opt), err
		}
		rep.UsedParallel = true
		recordStats(opt, rep.Valid)
		return finish(rep, opt), nil
	}

	var parRes induction.Result
	rep.StampThreshold = stampThreshold(opt)
	seqFrom := inductionSeqFrom(l)
	if opt.pipeline {
		return runInductionPipelined(ctx, l, opt, pool, rep, seqFrom)
	}
	srep, err := speculate.RunCtx(ctx,
		speculate.Spec{
			Procs:          opt.procs(),
			Shared:         opt.Shared,
			Tested:         opt.Tested,
			Privatized:     opt.Privatized,
			StampThreshold: rep.StampThreshold,
			SparseUndo:     opt.SparseUndo,
			Recovery:       opt.recoveryFor(seqFrom),
			PanicFallback:  opt.FallbackSequential,
			Metrics:        opt.Metrics,
			Tracer:         opt.Tracer,
		},
		func(tr mem.Tracker) (int, error) {
			c := cfg
			c.Tracker = tr
			r, err := induction.RunCtx(ctx, l, c)
			parRes = r
			return r.Valid, err
		},
		func() int { return loopir.RunSequential(l).Iterations },
	)
	if err != nil {
		rep.Executed, rep.Overshot = parRes.Executed, parRes.Overshot
		return finish(rep, opt), err
	}
	rep.Valid = srep.Valid
	rep.UsedParallel = srep.UsedParallel
	rep.Failure = srep.Failure
	rep.PD = srep.PD
	rep.Undone = srep.Undone
	rep.RespecRounds, rep.PrefixCommitted = srep.RespecRounds, srep.PrefixCommitted
	rep.Executed, rep.Overshot = parRes.Executed, parRes.Overshot
	rep.Strategy = fmt.Sprintf("%s + speculation", opt.InductionMethod)
	recordStats(opt, rep.Valid)
	return finish(rep, opt), nil
}

// runInductionPipelined executes the speculative section of an
// induction loop as pipelined strips: the iteration space is strip-
// mined, each strip runs as a pool-backed DOALL evaluating the
// dispatcher's closed form, and strip k+1's execution overlaps strip
// k's PD test and commit (speculate.RunStrippedPipelined).
func runInductionPipelined(ctx context.Context, l *loopir.Loop[int], opt Options, pool *sched.Pool, rep Report,
	seqFrom func(int) int) (Report, error) {
	cf, ok := l.Disp.(loopir.ClosedForm[int])
	if !ok {
		return rep, fmt.Errorf("%w: dispatcher %T has no closed form", ErrPipelineUnsupported, l.Disp)
	}
	if l.Max <= 0 {
		return rep, fmt.Errorf("%w: pipelined induction loop", ErrMissingBound)
	}
	total := l.Max
	stripPar, stripSeq, tally := stripRunners(ctx, opt.doallOptions(pool), l.Body, l.Cond, cf.At)
	srep, err := speculate.RunStrippedPipelinedCtx(ctx,
		speculate.Spec{Procs: opt.procs(), Shared: opt.Shared, Tested: opt.Tested,
			Recovery: opt.recoveryFor(seqFrom), PanicFallback: opt.FallbackSequential,
			Metrics: opt.Metrics, Tracer: opt.Tracer},
		total, pipeStrip(total, opt.procs()), stripPar, stripSeq)
	rep.Valid = srep.Valid
	rep.Undone = srep.Undone
	rep.PrefixCommitted = srep.PrefixCommitted
	rep.Executed, rep.Overshot = tally.executed, tally.overshot
	// Per-strip stamps never use the Section 8.1 threshold.
	rep.StampThreshold = 0
	rep.Strategy = fmt.Sprintf("%s + pipelined strip speculation", opt.InductionMethod)
	if err != nil {
		// srep.Valid is the committed-strip prefix on cancellation.
		return finish(rep, opt), err
	}
	rep.UsedParallel = true
	recordStats(opt, rep.Valid)
	return finish(rep, opt), nil
}

// RunAssociative orchestrates a WHILE loop whose dispatcher is an
// associative recurrence (Section 3.2, Figure 3): the loop is
// distributed into a parallel-prefix evaluation of the dispatcher terms
// and a DOALL over the remainder.  The RI condition (l.Cond) terminates
// the term generation; l.Max caps it (strip-mined generation handles an
// absent bound).
func RunAssociative(l *loopir.Loop[float64], opt Options) (Report, error) {
	return RunAssociativeCtx(context.Background(), l, opt)
}

// RunAssociativeCtx is RunAssociative under a context: cancellation (or
// Options.Deadline expiry) stops the parallel-prefix term generation at
// a strip boundary and the remainder DOALL at an iteration boundary,
// restores uncommitted speculative state, and returns the committed
// prefix with ErrCanceled/ErrDeadline.
func RunAssociativeCtx(ctx context.Context, l *loopir.Loop[float64], opt Options) (Report, error) {
	if err := opt.Validate(); err != nil {
		return Report{}, err
	}
	opt = opt.resolved()
	ctx, stop := opt.withDeadline(ctx)
	defer stop()
	if opt.Strategy == StrategySequential {
		return runSequential(ctx, l, Report{Strategy: seqExplicit}, opt)
	}
	return runAssociative(ctx, l, opt)
}

// runAssociative is the associative path with Options already validated
// and the deadline already folded into ctx — the promote path of
// RunGeneralNumeric enters here so Options.Validate runs exactly once
// per execution.
func runAssociative(ctx context.Context, l *loopir.Loop[float64], opt Options) (Report, error) {
	aff, ok := l.Disp.(loopir.Affine)
	if !ok {
		return Report{}, fmt.Errorf("%w: associative path requires an Affine dispatcher, got %T", ErrBadDispatcher, l.Disp)
	}
	d, okDecide := decide(opt, loopir.AssociativeRecurrence)
	rep := Report{Decision: d, Strategy: "parallel prefix + DOALL"}
	if !okDecide {
		rep.Strategy = seqCostModel
		return runSequential(ctx, l, rep, opt)
	}
	maxTerms := l.Max
	if maxTerms <= 0 {
		return rep, fmt.Errorf("%w: associative loop", ErrMissingBound)
	}

	// Loop 1 (distributed): evaluate the dispatcher terms by parallel
	// prefix, stopping at the RI condition.
	cond := l.Cond
	if cond == nil {
		cond = func(float64) bool { return true }
	}
	strip := maxTerms
	if strip > 4096 {
		strip = 4096
	}
	terms, _, err := prefix.TermsUntilCtx(ctx, aff, cond, strip, opt.procs(), maxTerms)
	if err != nil {
		// Term generation is pure computation: nothing has been
		// committed, so the canceled execution reports zero iterations.
		return finish(rep, opt), err
	}
	return runOverTerms(ctx, l, terms, opt, rep)
}

// RunGeneralNumeric orchestrates a WHILE loop whose dispatcher is an
// opaque numeric recurrence (a loopir.Func).  It first attempts the
// run-time recognition of the recurrence as an affine map — promoting
// the loop from the taxonomy's sequential column to the parallel-prefix
// one — and otherwise falls back to the naive loop distribution of
// Section 3.3: evaluate the dispatcher terms sequentially, then run the
// remainder as a DOALL over the stored values.
func RunGeneralNumeric(l *loopir.Loop[float64], opt Options) (Report, error) {
	return RunGeneralNumericCtx(context.Background(), l, opt)
}

// RunGeneralNumericCtx is RunGeneralNumeric under a context; see
// RunAssociativeCtx for the cancellation contract.  Options.Validate
// runs exactly once, even on the path that promotes the loop to the
// associative engine.
func RunGeneralNumericCtx(ctx context.Context, l *loopir.Loop[float64], opt Options) (Report, error) {
	if err := opt.Validate(); err != nil {
		return Report{}, err
	}
	opt = opt.resolved()
	ctx, stop := opt.withDeadline(ctx)
	defer stop()
	if opt.Strategy == StrategySequential {
		return runSequential(ctx, l, Report{Strategy: seqExplicit}, opt)
	}
	if _, ok := l.Disp.(loopir.Affine); ok {
		return runAssociative(ctx, l, opt)
	}
	if l.Max <= 0 {
		return Report{}, fmt.Errorf("%w: numeric loop", ErrMissingBound)
	}
	if f, ok := l.Disp.(loopir.Func[float64]); ok {
		if aff, rec := loopir.RecognizeAffine(f.NextFn, f.StartFn()); rec {
			promoted := *l
			promoted.Disp = aff
			promoted.Class.Dispatcher = loopir.AssociativeRecurrence
			rep, err := runAssociative(ctx, &promoted, opt)
			if err == nil {
				rep.Strategy = "recognized affine: " + rep.Strategy
			}
			return rep, err
		}
	}
	// Naive distribution (Section 3.3 baseline): sequential term loop.
	d, okDecide := decide(opt, loopir.GeneralRecurrence)
	rep := Report{Decision: d, Strategy: "sequential dispatcher + DOALL (naive distribution)"}
	if !okDecide {
		rep.Strategy = seqCostModel
		return runSequential(ctx, l, rep, opt)
	}
	var terms []float64
	x := l.Disp.Start()
	for i := 0; i < l.Max; i++ {
		if i&1023 == 0 {
			if err := cancel.Err(ctx); err != nil {
				opt.Metrics.CtxCancel()
				return finish(rep, opt), err
			}
		}
		if l.Cond != nil && !l.Cond(x) {
			break
		}
		terms = append(terms, x)
		x = l.Disp.Next(x)
	}
	return runOverTerms(ctx, l, terms, opt, rep)
}

// runOverTerms runs the remainder loop as a DOALL over precomputed
// dispatcher terms, with the speculation protocol when needed.
func runOverTerms(ctx context.Context, l *loopir.Loop[float64], terms []float64, opt Options, rep Report) (Report, error) {
	n := len(terms)
	pool, owned := opt.newPool()
	defer closePool(pool, owned)
	var doallRes sched.Result
	slots := loopir.NewIterSlots(opt.procs())
	run := func(tr mem.Tracker) (int, error) {
		var err error
		doallRes, err = sched.DOALLCtx(ctx, n, opt.doallOptions(pool), func(i, vpn int) sched.Control {
			if !l.Body(slots.At(vpn, i, tr), terms[i]) {
				return sched.Quit
			}
			return sched.Continue
		})
		return doallRes.QuitIndex, err
	}

	if !needsSpeculation(l.Class, opt) {
		valid, err := run(nil)
		rep.Valid = valid
		rep.Executed, rep.Overshot = doallRes.Executed, doallRes.Overshot
		if err != nil {
			// No speculation means no undo: the committed prefix is the
			// contiguous executed prefix the substrate computed.
			rep.Valid = doallRes.Prefix
			return finish(rep, opt), err
		}
		rep.UsedParallel = true
		recordStats(opt, rep.Valid)
		return finish(rep, opt), nil
	}
	// Resume over the precomputed term values: iterations below `from`
	// are already committed, only the remainder re-runs.
	seqFrom := func(from int) int {
		seqSlot := loopir.NewIterSlots(1)
		for i := from; i < n; i++ {
			if !l.Body(seqSlot.At(0, i, nil), terms[i]) {
				return i
			}
		}
		return n
	}
	if opt.pipeline {
		return runTermsPipelined(ctx, l, terms, opt, pool, rep, seqFrom)
	}
	srep, err := speculate.RunCtx(ctx,
		speculate.Spec{Procs: opt.procs(), Shared: opt.Shared, Tested: opt.Tested,
			Privatized: opt.Privatized, StampThreshold: stampThreshold(opt),
			SparseUndo: opt.SparseUndo, Recovery: opt.recoveryFor(seqFrom),
			PanicFallback: opt.FallbackSequential,
			Metrics:       opt.Metrics, Tracer: opt.Tracer},
		run,
		func() int { return loopir.RunSequential(l).Iterations },
	)
	if err != nil {
		rep.Executed, rep.Overshot = doallRes.Executed, doallRes.Overshot
		return finish(rep, opt), err
	}
	rep.Valid, rep.UsedParallel, rep.Failure = srep.Valid, srep.UsedParallel, srep.Failure
	rep.PD, rep.Undone = srep.PD, srep.Undone
	rep.RespecRounds, rep.PrefixCommitted = srep.RespecRounds, srep.PrefixCommitted
	rep.Executed, rep.Overshot = doallRes.Executed, doallRes.Overshot
	rep.Strategy += " + speculation"
	recordStats(opt, rep.Valid)
	return finish(rep, opt), nil
}

// runTermsPipelined executes the speculative remainder DOALL over
// precomputed dispatcher terms as pipelined strips (see
// runInductionPipelined; here the "closed form" is the terms slice).
func runTermsPipelined(ctx context.Context, l *loopir.Loop[float64], terms []float64, opt Options, pool *sched.Pool,
	rep Report, seqFrom func(int) int) (Report, error) {
	n := len(terms)
	stripPar, stripSeq, tally := stripRunners(ctx, opt.doallOptions(pool), l.Body, nil,
		func(i int) float64 { return terms[i] })
	srep, err := speculate.RunStrippedPipelinedCtx(ctx,
		speculate.Spec{Procs: opt.procs(), Shared: opt.Shared, Tested: opt.Tested,
			Recovery: opt.recoveryFor(seqFrom), PanicFallback: opt.FallbackSequential,
			Metrics: opt.Metrics, Tracer: opt.Tracer},
		n, pipeStrip(n, opt.procs()), stripPar, stripSeq)
	rep.Valid = srep.Valid
	rep.Undone = srep.Undone
	rep.PrefixCommitted = srep.PrefixCommitted
	rep.Executed, rep.Overshot = tally.executed, tally.overshot
	rep.Strategy += " + pipelined strip speculation"
	if err != nil {
		return finish(rep, opt), err
	}
	rep.UsedParallel = true
	recordStats(opt, rep.Valid)
	return finish(rep, opt), nil
}

// RunList orchestrates a WHILE loop traversing a linked list (the
// general-recurrence case, Section 3.3).  It is RunListCtx under
// context.Background().
func RunList(head *list.Node, body genrec.Body, class loopir.Class, opt Options) (Report, error) {
	return RunListCtx(context.Background(), head, body, class, opt)
}

// RunListCtx is RunList under a context: cancellation (or
// Options.Deadline expiry) stops the traversal at an iteration
// boundary, restores uncommitted speculative state, and returns the
// committed prefix with ErrCanceled/ErrDeadline; a panicking body
// surfaces as ErrWorkerPanic (or the sequential fallback under
// Options.FallbackSequential on a speculative path).
func RunListCtx(ctx context.Context, head *list.Node, body genrec.Body, class loopir.Class, opt Options) (Report, error) {
	if err := opt.Validate(); err != nil {
		return Report{}, err
	}
	opt = opt.resolved()
	ctx, stop := opt.withDeadline(ctx)
	defer stop()
	if opt.Strategy == StrategySequential {
		return runSequential(ctx, listLoop(head, body, class), Report{Strategy: seqExplicit}, opt)
	}
	if opt.pipeline {
		return Report{}, fmt.Errorf("%w: list traversals have no strip-mineable dispatcher", ErrPipelineUnsupported)
	}
	d, ok := decide(opt, loopir.GeneralRecurrence)
	method := opt.ListMethod
	if method == AutoList {
		method = General3
	}
	rep := Report{Decision: d, Strategy: method.String()}
	if !ok {
		rep.Strategy = seqCostModel
		return runSequential(ctx, listLoop(head, body, class), rep, opt)
	}

	pool, owned := opt.newPool()
	defer closePool(pool, owned)
	cfg := genrec.Config{Procs: opt.procs(), Metrics: opt.Metrics, Tracer: opt.Tracer, Pool: pool}
	runner := func(tr mem.Tracker) (int, error) {
		c := cfg
		c.Tracker = tr
		var r genrec.Result
		var rerr error
		switch method {
		case General1:
			r, rerr = genrec.General1Ctx(ctx, head, body, c)
		case General2:
			r, rerr = genrec.General2Ctx(ctx, head, body, c)
		case DoacrossList:
			// No bound: the RI condition finds the end of the list.
			slots := loopir.NewIterSlots(opt.procs())
			res, derr := doacross.RunWhile(ctx, head,
				func(n *list.Node) *list.Node { return n.Next },
				func(n *list.Node) bool { return n != nil },
				math.MaxInt, doacross.Config{Procs: opt.procs(), Hooks: opt.hooks(), Pool: pool},
				func(i, vpn int, nd *list.Node) bool {
					return body(slots.At(vpn, i, c.Tracker), nd)
				})
			r = genrec.Result{Valid: res.QuitIndex, Executed: res.Executed}
			if derr != nil {
				r.Valid = res.Prefix
			}
			rerr = derr
		default:
			r, rerr = genrec.General3Ctx(ctx, head, body, c)
		}
		rep.Executed, rep.Overshot = r.Executed, r.Overshot
		return r.Valid, rerr
	}

	if !needsSpeculation(class, opt) {
		valid, err := runner(nil)
		rep.Valid = valid
		if err != nil {
			// Valid is already capped at the committed prefix.
			return finish(rep, opt), err
		}
		rep.UsedParallel = true
		recordStats(opt, rep.Valid)
		return finish(rep, opt), nil
	}
	// Resume a list traversal mid-way: skip the committed prefix of
	// nodes, then continue the sequential reference traversal.
	seqFrom := func(from int) int {
		pt := head
		for i := 0; i < from && pt != nil; i++ {
			pt = pt.Next
		}
		return from + runListSequential(pt, from, body)
	}
	srep, err := speculate.RunCtx(ctx,
		speculate.Spec{Procs: opt.procs(), Shared: opt.Shared, Tested: opt.Tested,
			Privatized: opt.Privatized, StampThreshold: stampThreshold(opt),
			SparseUndo: opt.SparseUndo, Recovery: opt.recoveryFor(seqFrom),
			PanicFallback: opt.FallbackSequential,
			Metrics:       opt.Metrics, Tracer: opt.Tracer},
		runner,
		func() int { return runListSequential(head, 0, body) },
	)
	if err != nil {
		return finish(rep, opt), err
	}
	rep.Valid, rep.UsedParallel, rep.Failure = srep.Valid, srep.UsedParallel, srep.Failure
	rep.PD, rep.Undone = srep.PD, srep.Undone
	rep.RespecRounds, rep.PrefixCommitted = srep.RespecRounds, srep.PrefixCommitted
	rep.Strategy = fmt.Sprintf("%s + speculation", method)
	recordStats(opt, rep.Valid)
	return finish(rep, opt), nil
}

// runListSequential is the sequential reference traversal from node pt,
// which is iteration `from` of the loop; it returns how many iterations
// from there on were valid.
func runListSequential(pt *list.Node, from int, body genrec.Body) int {
	slot := loopir.NewIterSlots(1)
	n := 0
	for ; pt != nil; pt = pt.Next {
		if !body(slot.At(0, from+n, nil), pt) {
			break
		}
		n++
	}
	return n
}

// doallOptions is the DOALL configuration every parallel phase of this
// execution shares.
func (o Options) doallOptions(pool *sched.Pool) sched.Options {
	return sched.Options{Procs: o.procs(), Schedule: o.Schedule,
		Metrics: o.Metrics, Tracer: o.Tracer, Pool: pool}
}

// stripTally accumulates the DOALL counts of a strip-mined execution.
// The engines serialize successive parallel strips (each overlapped
// strip is joined before the next launches), so plain fields are safe.
type stripTally struct{ executed, overshot int }

// stripRunners builds the parallel and sequential strip runners of a
// strip-mined speculative DOALL whose iteration i has dispatcher value
// at(i) — a closed form, or a lookup into precomputed terms — and stops
// where cond (nil: never) or the body says so.  Iterations carry their
// global indices; a contained panic's strip-local index is re-anchored
// to the global space before it unwinds.
func stripRunners[D any](ctx context.Context, so sched.Options, body loopir.Body[D], cond func(D) bool,
	at func(i int) D) (speculate.StripPar, speculate.StripSeq, *stripTally) {
	tally := &stripTally{}
	slots, seqSlot := loopir.NewIterSlots(so.Procs), loopir.NewIterSlots(1)
	par := func(trk mem.Tracker, lo, hi int) (int, bool, error) {
		res, err := sched.DOALLCtx(ctx, hi-lo, so, func(i, vpn int) sched.Control {
			gi := lo + i
			d := at(gi)
			if cond != nil && !cond(d) {
				return sched.Quit
			}
			if !body(slots.At(vpn, gi, trk), d) {
				return sched.Quit
			}
			return sched.Continue
		})
		tally.executed += res.Executed
		tally.overshot += res.Overshot
		if pe, ok := cancel.AsPanic(err); ok && pe.Iter >= 0 {
			pe.Iter += lo
		}
		return res.QuitIndex, res.QuitIndex < hi-lo, err
	}
	seq := func(lo, hi int) (int, bool) {
		for i := lo; i < hi; i++ {
			d := at(i)
			if cond != nil && !cond(d) {
				return i - lo, true
			}
			if !body(seqSlot.At(0, i, nil), d) {
				return i - lo, true
			}
		}
		return hi - lo, false
	}
	return par, seq, tally
}

// recordStats feeds the observed trip count back into the branch
// statistics, closing the Section 7 feedback loop.
func recordStats(opt Options, valid int) {
	if opt.Stats != nil {
		opt.Stats.Record(valid)
	}
}
