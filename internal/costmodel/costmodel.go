// Package costmodel implements the cost/performance analysis of
// Section 7: the ideal and attainable speedups of a parallelized WHILE
// loop, the overhead terms Tb (before), Td (during) and Ta (after), the
// worst-case bounds Sp_at = Sp_id/4 (without the PD test) and Sp_id/5
// (with it), the slowdown of a failed speculation, and the decision
// procedure for whether parallelization should be attempted at all.
//
// It also provides the branch-statistics iteration-count predictor the
// paper proposes for estimating a WHILE loop's trip count (Sections 7
// and 8.1), used both for the parallelize/don't decision and for the
// statistics-enhanced time-stamp threshold n'_i.
package costmodel

import (
	"math"

	"whilepar/internal/loopir"
)

// LoopTimes characterizes one WHILE loop for the analysis.  Times are in
// the same abstract units as the simulator's.
type LoopTimes struct {
	// Trem is the sequential time spent in the remainder of the loop;
	// Trec the time to compute the entire dispatching recurrence.
	Trem, Trec float64
	// Accesses is `a`, the number of data accesses the loop makes
	// (excluding those inserted by the run-time techniques).
	Accesses float64
}

// Tseq returns the loop's sequential execution time Trem + Trec.
func (lt LoopTimes) Tseq() float64 { return lt.Trem + lt.Trec }

// IdealParallelTime returns T_ipar for p processors given the
// dispatcher kind, per Section 7:
//
//   - general recurrence: the recurrence is evaluated sequentially and
//     only the remainder parallelizes — Trem/p + Trec;
//   - induction: everything parallelizes — (Trem + Trec)/p;
//   - associative recurrence: (Trem + Trec)/p with an additional log p
//     term (scaled by the recurrence's per-term cost).
func IdealParallelTime(lt LoopTimes, kind loopir.DispatcherKind, p int) float64 {
	if p < 1 {
		p = 1
	}
	fp := float64(p)
	switch kind {
	case loopir.MonotonicInduction, loopir.NonMonotonicInduction:
		return lt.Tseq() / fp
	case loopir.AssociativeRecurrence:
		logTerm := 0.0
		if p > 1 {
			logTerm = math.Log2(fp)
		}
		// The log term is in units of recurrence steps; scale by the
		// average per-term cost so units stay consistent.
		return lt.Tseq()/fp + logTerm
	default: // general recurrence
		return lt.Trem/fp + lt.Trec
	}
}

// IdealSpeedup returns Sp_id = Tseq / T_ipar.
func IdealSpeedup(lt LoopTimes, kind loopir.DispatcherKind, p int) float64 {
	t := IdealParallelTime(lt, kind, p)
	if t <= 0 {
		return 0
	}
	return lt.Tseq() / t
}

// Overheads are the three overhead classes of the analysis.
type Overheads struct {
	// Tb: before the loop — checkpointing so iterations can be undone
	// or the loop re-executed.
	Tb float64
	// Td: during the loop — time-stamping and shadow-array marking.
	Td float64
	// Ta: after the loop — undoing invalid iterations and the PD test's
	// post-execution analysis.
	Ta float64
}

// Total returns Tb + Td + Ta.
func (o Overheads) Total() float64 { return o.Tb + o.Td + o.Ta }

// WorstCase returns the paper's worst-case overhead terms: Tb ~= Ta =
// a/p (fully parallel pre/post work) and Td = a/Sp_id (the marking work
// parallelizes only as well as the loop itself).  With the PD test, the
// post-execution analysis adds another a/p to Ta.
func WorstCase(lt LoopTimes, spid float64, p int, pdTest bool) Overheads {
	if p < 1 {
		p = 1
	}
	fp := float64(p)
	o := Overheads{Tb: lt.Accesses / fp, Ta: lt.Accesses / fp}
	if spid > 0 {
		o.Td = lt.Accesses / spid
	}
	if pdTest {
		o.Ta += lt.Accesses / fp
	}
	return o
}

// AttainableSpeedup returns Sp_at = Tseq / (T_ipar + Tb + Td + Ta).
func AttainableSpeedup(lt LoopTimes, kind loopir.DispatcherKind, p int, o Overheads) float64 {
	t := IdealParallelTime(lt, kind, p) + o.Total()
	if t <= 0 {
		return 0
	}
	return lt.Tseq() / t
}

// WorstCaseFraction returns the guaranteed fraction of the ideal speedup
// in the paper's worst case (Sp_id ~= p, every access both stamped and
// undone): 1/4 without the PD test, 1/5 with it — the "at least 20-25%
// of the parallelism inherent in the loop" claim.
func WorstCaseFraction(pdTest bool) float64 {
	if pdTest {
		return 1.0 / 5.0
	}
	return 1.0 / 4.0
}

// FailureTime returns the total execution time when the PD test fails:
// the failed parallel attempt (worst case (5/p)*Tseq) plus the
// sequential re-execution, i.e. Tseq + 5*Tseq/p.
func FailureTime(tseq float64, p int) float64 {
	if p < 1 {
		p = 1
	}
	return tseq + 5*tseq/float64(p)
}

// FailureSlowdown returns the relative slowdown of a failed speculation,
// proportional to Tseq/p: FailureTime/Tseq - 1 = 5/p.
func FailureSlowdown(p int) float64 {
	if p < 1 {
		p = 1
	}
	return 5 / float64(p)
}

// Decision is the verdict of ShouldParallelize with its reasoning.
type Decision struct {
	Parallelize bool
	// Reason is a short human-readable justification.
	Reason string
	// ExpectedSpeedup is Sp_at under worst-case overheads (1 if
	// sequential execution is recommended).  The auto path's planner
	// reports the Sp_at it predicted from measured terms as it is:
	// below 1 where that made it recommend sequential execution.
	ExpectedSpeedup float64
}

// Params collects what the compiler/run-time knows when deciding.
type Params struct {
	Kind loopir.DispatcherKind
	// Times of the loop (possibly estimates from prior runs).
	Times LoopTimes
	// Procs available.
	Procs int
	// NeedsPDTest: the loop's dependence structure is unknown and the
	// PD test will be speculatively applied.
	NeedsPDTest bool
	// ProbParallel is the estimated probability that the iterations are
	// in fact independent (from run-time statistics or directives);
	// only meaningful with NeedsPDTest.
	ProbParallel float64
	// EstimatedIters is the predicted trip count (from branch
	// statistics); 0 if unknown.
	EstimatedIters float64
	// MinIters is the trip count below which parallelization overhead
	// cannot be recovered.
	MinIters float64
}

// ShouldParallelize implements the decision analysis of Section 7: the
// loop should be parallelized as long as there is enough parallelism
// available — even when the PD test is needed, since the expected gain
// is large and the potential slowdown only ~Tseq*5/p — unless the loop
// is known (with high confidence) to be sequential, the dispatcher
// dominates (Trem < Trec for a general recurrence), or the trip count
// is too small.
func ShouldParallelize(ps Params) Decision {
	spid := IdealSpeedup(ps.Times, ps.Kind, ps.Procs)
	o := WorstCase(ps.Times, spid, ps.Procs, ps.NeedsPDTest)
	spat := AttainableSpeedup(ps.Times, ps.Kind, ps.Procs, o)

	if ps.Kind == loopir.GeneralRecurrence && ps.Times.Trem < ps.Times.Trec {
		return Decision{Parallelize: false, ExpectedSpeedup: 1,
			Reason: "loop essentially evaluates its (sequential) dispatcher: Trem < Trec"}
	}
	if ps.EstimatedIters > 0 && ps.EstimatedIters < ps.MinIters {
		return Decision{Parallelize: false, ExpectedSpeedup: 1,
			Reason: "predicted trip count too small to recover parallelization overhead"}
	}
	if spat <= 1 {
		return Decision{Parallelize: false, ExpectedSpeedup: 1,
			Reason: "attainable speedup does not exceed sequential execution"}
	}
	if ps.NeedsPDTest {
		// Expected time: prob*success + (1-prob)*failure.
		exp := ps.ProbParallel*(ps.Times.Tseq()/spat) + (1-ps.ProbParallel)*FailureTime(ps.Times.Tseq(), ps.Procs)
		if exp >= ps.Times.Tseq() {
			return Decision{Parallelize: false, ExpectedSpeedup: 1,
				Reason: "loop believed sequential: expected speculative time exceeds sequential"}
		}
		return Decision{Parallelize: true, ExpectedSpeedup: ps.Times.Tseq() / exp,
			Reason: "speculation profitable: large expected gain, slowdown bounded by ~5*Tseq/p"}
	}
	return Decision{Parallelize: true, ExpectedSpeedup: spat,
		Reason: "sufficient parallelism available"}
}

// UnitCosts prices, in nanoseconds on one host, the primitive operations
// the run-time techniques add to a loop under one validation tier — one
// row of the planner's calibration table (internal/autotune).  They are
// the measured counterparts of the `a`-proportional terms WorstCase
// assumes: with them Tb, Td and Ta come out in the loop's own unit of
// time instead of abstract accesses.
type UnitCosts struct {
	// Dispatch is issuing one iteration to a worker: claiming its index
	// and the scheduler's bookkeeping (Td).
	Dispatch float64
	// Load is one tracked load (shadow-marked) and Store one tracked
	// store (time-stamped and shadow-marked), each beyond the direct
	// access it replaces (Td).
	Load, Store float64
	// Elem is the post-execution analysis of one element the loop
	// touched (Ta).
	Elem float64
	// CheckpointWord is saving one word before a strip (Tb); UndoWord
	// restoring one overshot word after it (Ta).
	CheckpointWord, UndoWord float64
	// Barrier is what one strip costs whatever its length: the dispatch
	// onto the workers and the join (Tb).
	Barrier float64
}

// Measured characterizes what is left of a loop by what a timed
// sequential probe saw of it.
type Measured struct {
	// NsPerIter is the sequential time of one iteration, dispatcher
	// included.
	NsPerIter float64
	// Loads and Stores are the tracked accesses one iteration makes: the
	// paper's `a`, per iteration and split by kind.
	Loads, Stores float64
	// Iters is how many iterations are left, Strips in how many strips
	// (barriers) they will run.
	Iters, Strips int
	// Words is the state checkpointed in full before the first strip;
	// Overshoot how many iterations are expected to run past the exit
	// and be undone.
	Words, Overshoot float64
}

// Times returns the remainder's sequential time.  A probe times the
// dispatcher together with the body, so all of it is Trem.
func (m Measured) Times() LoopTimes {
	n := float64(m.Iters)
	return LoopTimes{Trem: n * m.NsPerIter, Accesses: n * (m.Loads + m.Stores)}
}

// Overheads prices the three overhead classes for m on p processors:
// Tb the full checkpoint, the incremental re-arm of every later strip
// (what the strip before it wrote) and the strips' barriers; Td the
// dispatch and the marking, which parallelize as the loop does; Ta the
// analysis of the touched elements (one per load or store, whichever
// there are more of), likewise parallel, and the undo of the overshoot.
func (u UnitCosts) Overheads(m Measured, p int) Overheads {
	if p < 1 {
		p = 1
	}
	n, fp := float64(m.Iters), float64(p)
	return Overheads{
		Tb: (m.Words+n*m.Stores)*u.CheckpointWord + float64(m.Strips)*u.Barrier,
		Td: n * (u.Dispatch + m.Loads*u.Load + m.Stores*u.Store) / fp,
		Ta: n*math.Max(m.Loads, m.Stores)*u.Elem/fp + m.Overshoot*m.Stores*u.UndoWord,
	}
}

// MeasuredSpeedup is Sp_at = Tseq / (T_ipar + Tb + Td + Ta) for an
// induction loop, with every term measured: the probe's Tseq and the
// overheads u prices for it.
func MeasuredSpeedup(m Measured, u UnitCosts, p int) float64 {
	return AttainableSpeedup(m.Times(), loopir.MonotonicInduction, p, u.Overheads(m, p))
}
