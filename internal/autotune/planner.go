package autotune

import (
	"fmt"

	"whilepar/internal/costmodel"
)

// This file is the Section 7 half of the selector.  Decide answers
// *which* parallel engine Table 1 and the profile call for; DecideTimed
// then asks the paper's question of that engine — is
//
//	Sp_at = Tseq / (T_ipar + Tb + Td + Ta) > 1 ?
//
// — with every term measured: Tseq by the orchestrator's timed probe
// (Estimate), Tb/Td/Ta by a table of this host's unit costs (Table,
// calibrate.go), and the whole prediction corrected by what speculation
// actually cost at this call site before (Profile.SpecNsPerIter).

// Estimate is what the timed sequential probe measured of the loop.
type Estimate struct {
	// NsPerIter is the warm sequential cost of one iteration: the
	// fastest of the probe's chunks, since whatever else the host was
	// doing can only have slowed a chunk down.  Zero means not measured.
	NsPerIter float64
	// Loads and Stores are the tracked accesses one iteration made —
	// loads of Tested arrays, stores to Shared or Tested ones: the
	// paper's `a`, per iteration.
	Loads, Stores float64
	// Words is the total length of the Shared arrays: what the first
	// strip checkpoints in full.
	Words int
}

// Table prices the parallel engines on one host: a row of unit costs
// per validation tier, indexed like Plan.Tier, and one for the plain
// DOALL engine, which pays Dispatch and Barrier only.
type Table struct {
	Tiers [3]costmodel.UnitCosts
	DOALL costmodel.UnitCosts
	// Off takes the wall clock out of the selection altogether:
	// DecideTimed returns Decide's plan and sets no sequential estimate,
	// so the Tuner does not demote on measured time either.  Suites that
	// must reach a particular engine through Auto on whatever host they
	// run on inject such a table (ProfileStore.SetTable).
	Off bool
}

// Hysteresis is the band around Sp_at = 1 inside which the previous
// run's choice stands: a call site that last ran sequentially moves to
// a parallel engine only at a predicted speedup above 1+Hysteresis, one
// that last ran in parallel moves back only below 1/(1+Hysteresis) — and
// one that has never run speculates from there up.  Without it the
// probe's timing jitter flips a loop near the break-even point from run
// to run, and every flip back to speculation rebuilds shadow state the
// collector has meanwhile drained from the pools.
const Hysteresis = 0.10

// AuditEvery mirrors speculate.DefaultAuditEvery: one trusted strip in
// this many pays the full tier's price.
const AuditEvery = 8

// Reasons DecideTimed reports when no prediction was made.
const (
	reasonStructural = "structural: one processor, a remainder too short to dispatch, or a violation-heavy profile"
	reasonNoEstimate = "no estimate: Table 1 dispatch"
)

// DecideTimed is Decide with the Section 7 verdict on top: the plan
// Decide picks is kept when its predicted attainable speedup clears 1
// (give or take the hysteresis band: see Hysteresis) and replaced by
// Sequential otherwise.  Plan.ExpectedSpeedup and
// Plan.Reason carry the prediction either way.
//
// It is a pure function: the same profile, estimate and table give the
// same plan.  What varies from run to run is the estimate, a wall-clock
// measurement; the profile's smoothed NsPerIter and the hysteresis band
// keep that from showing in the choice.  A zero est.NsPerIter, or a
// table that is nil or Off, skips the verdict: the result is Decide's.
func DecideTimed(prof Profile, haveProfile bool, est Estimate, tab *Table, remaining, procs int, needsSpec bool) Plan {
	plan := Decide(prof, haveProfile, remaining, procs, needsSpec)
	if plan.Engine == Sequential {
		plan.ExpectedSpeedup, plan.Reason = 1, reasonStructural
		return plan
	}
	if est.NsPerIter <= 0 || tab == nil || tab.Off {
		plan.Reason = reasonNoEstimate
		return plan
	}

	// The sequential side: this run's probe folded into what earlier
	// probes measured, so that one slow probe moves it by a third at
	// the very most.
	seq := est.NsPerIter
	if haveProfile {
		seq = foldSeq(prof.NsPerIter, est.NsPerIter)
	}
	m := costmodel.Measured{NsPerIter: seq, Loads: est.Loads, Stores: est.Stores, Iters: remaining, Strips: 1}
	row := tab.DOALL
	if plan.Engine != DOALL {
		row = tab.Tiers[plan.Tier]
		m.Words = float64(est.Words)
		m.Strips = (remaining + plan.Strip - 1) / plan.Strip
		// Where the exit will fall in its strip is unknown: half a strip
		// runs past it, on average.  A loop that has always run to its
		// bound has nothing to overshoot.
		if !haveProfile || prof.Runs == 0 || prof.TripFraction < 1 {
			m.Overshoot = float64(plan.Strip) / 2
		}
	}
	par := seq / costmodel.MeasuredSpeedup(m, row, procs) // predicted ns/iter under the engine
	how := "predicted"
	if plan.Engine != DOALL && haveProfile && prof.SpecNsPerIter > 0 {
		// Speculation has been timed here: scale the model by how far
		// off it was then, at the tier it ran at then.  When nothing
		// else changed this is the measured ns/iter itself.
		ref := m
		ref.NsPerIter = prof.NsPerIter
		if ref.NsPerIter <= 0 {
			ref.NsPerIter = seq
		}
		then := ref.NsPerIter / costmodel.MeasuredSpeedup(ref, tab.Tiers[clampTier(prof.LastTier)], procs)
		par *= prof.SpecNsPerIter / then
		how = "measured"
	}
	sp := seq / par

	bar := 1.0
	switch warm := haveProfile && prof.Runs > 0; {
	case warm && prof.LastEngine == Sequential:
		bar = 1 + Hysteresis
	case warm:
		bar = 1 / (1 + Hysteresis)
	case plan.Engine != DOALL:
		// A speculative engine never run here gets the band too: the
		// model is further off than that, and a first run the Tuner can
		// cut short puts a measurement in its place.  Left sequential on
		// a prediction just under 1, the call site would make that first
		// run whenever a probe drifts over the bar instead.
		bar = 1 / (1 + Hysteresis)
	}
	cmp := ">"
	if sp <= bar {
		cmp = "<="
	}
	reason := fmt.Sprintf("Sp_at %.2f %s %.2f: sequential %.1f ns/iter, %s %.1f ns/iter %s on %d processors",
		sp, cmp, bar, seq, plan.Engine, par, how, procs)
	if sp <= bar {
		plan = Plan{Engine: Sequential}
	}
	plan.ExpectedSpeedup, plan.SeqNsPerIter, plan.Reason = sp, seq, reason
	return plan
}

func clampTier(t int) int {
	if t < 0 || t > 2 {
		return 0
	}
	return t
}
