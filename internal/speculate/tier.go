package speculate

import (
	"fmt"
	"math/rand"

	"whilepar/internal/arena"
	"whilepar/internal/mem"
	"whilepar/internal/obs"
	"whilepar/internal/pdtest"
	"whilepar/internal/sig"
	"whilepar/internal/tsmem"
)

// Tier selects how much dependence validation a strip-mined speculative
// execution pays.  The dial exists because once misspeculation is rare,
// the per-element shadow instrumentation — not the engine — dominates
// the parallel run's cost; a loop that has validated clean many times
// has earned the right to validate more cheaply.
//
//	TierFull       every access stamped and PD-marked; the element-wise
//	               oracle and the recovery path (the only tier that can
//	               partially commit a failed strip).
//	TierSignature  accesses marked into per-worker hash signatures
//	               (internal/sig) and stamped for undo, no PD marks;
//	               the post-barrier verdict is a pairwise signature
//	               intersection in O(signature size).  A flagged or
//	               partial strip is rewound and re-run under TierFull —
//	               a false positive costs one strip re-execution, never
//	               a wrong commit.
//	TierTrusted    shadow-free: strips run as uninstrumented DOALLs
//	               against the shared arrays, with a sampled audit strip
//	               (one in Spec.AuditEvery, re-armed under TierFull)
//	               continuously re-earning the trust.  A failed audit
//	               revokes it: the run rewinds to its entry state and
//	               completes sequentially — the exact sequential result.
//
// Demotion is engine-local and monotone: a real violation at
// TierSignature, or an audit failure at TierTrusted, drops the
// remainder of the run to TierFull.  Promotion only happens across
// runs, by autotune's clean-streak evidence.
type Tier int

const (
	// TierFull is the full element-wise shadow validation (Tier 0).
	TierFull Tier = iota
	// TierSignature validates by hash-signature intersection (Tier 1).
	TierSignature
	// TierTrusted runs shadow-free with sampled audits (Tier 2).
	TierTrusted
)

// String names the tier for reports and rendered metrics.
func (t Tier) String() string {
	switch t {
	case TierSignature:
		return "signature"
	case TierTrusted:
		return "trusted"
	}
	return "full"
}

// DefaultAuditEvery is the default Tier-2 audit sampling period: one
// strip in this many re-runs under the full shadow machinery.
const DefaultAuditEvery = 8

// sigTracker is the Tier-1 access path: signature marks for the
// post-barrier conflict verdict plus time stamps for the undo/write-set
// machinery — no per-element PD marks, which is the saving.  Shape and
// plumbing mirror fusedTracker.
type sigTracker struct {
	ts *tsmem.Memory
	sg *sig.Sigs
}

var (
	_ mem.Tracker      = (*sigTracker)(nil)
	_ mem.RangeTracker = (*sigTracker)(nil)
)

func (s *sigTracker) Load(a *mem.Array, idx, iter, vpn int) float64 {
	s.sg.MarkLoad(a, idx, iter, vpn)
	return s.ts.StampLoad(a, idx)
}

func (s *sigTracker) Store(a *mem.Array, idx int, v float64, iter, vpn int) {
	s.sg.MarkStore(a, idx, iter, vpn)
	s.ts.StampStore(a, idx, v, iter, vpn)
}

func (s *sigTracker) LoadRange(a *mem.Array, lo, hi int, dst []float64, iter, vpn int) {
	s.sg.MarkLoadRange(a, lo, hi, iter, vpn)
	s.ts.StampLoadRange(a, lo, hi, dst)
}

func (s *sigTracker) StoreRange(a *mem.Array, lo int, src []float64, iter, vpn int) {
	s.sg.MarkStoreRange(a, lo, lo+len(src), iter, vpn)
	s.ts.StampStoreRange(a, lo, src, iter, vpn)
}

// newTracker builds the signature set the spec's tier needs over every
// array the loop touches.  Returns nil below TierSignature.
func (s Spec) newTracker(procs int) *sig.Sigs {
	arrs := append([]*mem.Array(nil), s.Shared...)
	for _, a := range s.Tested {
		dup := false
		for _, b := range arrs {
			if a == b {
				dup = true
				break
			}
		}
		if !dup {
			arrs = append(arrs, a)
		}
	}
	return sig.New(procs, arrs, s.Sig)
}

// tierRuntime is the strip-verdict state machine shared by the stripped
// and tuned engines: one instance per run owns the undo memory, the PD
// tests, the signatures and (at TierTrusted) the run-entry backup, and
// executes each strip under the current tier.  The engines keep only
// their scheduling around it.
type tierRuntime struct {
	spec  Spec
	mx    *obs.Metrics
	tr    obs.Tracer
	ts    *tsmem.Memory
	tests []*pdtest.Test
	fused *fusedTracker
	sg    *sig.Sigs
	sigTr *sigTracker

	// chosen is the tier granted at entry (after clamping); current
	// only ever moves down from it.
	chosen, current Tier

	// backup holds run-entry raw copies of the shared arrays — the only
	// rewind TierTrusted's uninstrumented strips have.
	backup [][]float64

	start, total           int
	auditEvery, auditPhase int
	stripIdx               int

	// pending carries the previous strip's write-set so Rearm can
	// refresh the checkpoint incrementally — O(strip writes) instead of
	// O(n) per strip.  nil forces a full Checkpoint (first strip, and
	// after any untracked writes: sequential fallbacks, direct strips).
	pending [][]int

	// lastPDFail records whether the most recent stepFull verdict
	// failed its PD analysis (vs an exception) — the demotion trigger.
	lastPDFail bool

	rep *StripReport
}

// newTierRuntime builds the run's validation state.  Tiers above
// TierFull are clamped away when the speculation mode needs the full
// shadow machinery: sparse undo logs and privatized copies both hang
// off the element-wise paths.
func newTierRuntime(spec Spec, procs, start, total int, rep *StripReport) *tierRuntime {
	tier := spec.Tier
	if tier < TierFull || tier > TierTrusted ||
		spec.SparseUndo || len(spec.Privatized) > 0 {
		tier = TierFull
	}
	r := &tierRuntime{
		spec: spec, mx: spec.Metrics, tr: spec.Tracer,
		chosen: tier, current: tier,
		start: start, total: total,
		rep: rep,
	}
	r.ts = tsmem.NewSharded(procs, spec.Shared...)
	r.ts.SetObs(r.mx, r.tr)
	for _, a := range spec.Tested {
		t := pdtest.New(a, procs)
		t.SetObs(r.mx, r.tr)
		r.tests = append(r.tests, t)
	}
	r.fused = newFusedTracker(r.ts, r.tests)
	if tier >= TierSignature {
		r.sg = spec.newTracker(procs)
		r.sigTr = &sigTracker{ts: r.ts, sg: r.sg}
	}
	if tier == TierTrusted {
		r.auditEvery = spec.AuditEvery
		if r.auditEvery < 1 {
			r.auditEvery = DefaultAuditEvery
		}
		if spec.AuditPhase > 0 {
			r.auditPhase = (spec.AuditPhase - 1) % r.auditEvery
		} else {
			r.auditPhase = rand.Intn(r.auditEvery)
		}
		for _, a := range spec.Shared {
			b := arena.Float64s(a.Len())
			copy(b, a.Data)
			r.backup = append(r.backup, b)
		}
	}
	rep.Tier = tier
	return r
}

// release returns every pooled buffer.  The runtime must not be used
// afterwards.
func (r *tierRuntime) release() {
	r.ts.Release()
	for _, t := range r.tests {
		t.Release()
	}
	if r.sg != nil {
		r.sg.Release()
	}
	for _, b := range r.backup {
		arena.PutFloat64s(b)
	}
	r.backup = nil
}

// demote drops the remainder of the run to the full shadow tier after a
// real violation or audit failure.
func (r *tierRuntime) demote() {
	if r.current == TierFull {
		return
	}
	r.current = TierFull
	r.rep.TierDemoted = true
	r.mx.TierDemotion()
}

// restoreBackup rewinds the shared arrays to the run's entry state —
// TierTrusted's only rewind — and voids the incremental-checkpoint
// premise (the restore bypasses the tracker).
func (r *tierRuntime) restoreBackup() {
	for i, a := range r.spec.Shared {
		copy(a.Data, r.backup[i])
	}
	r.ts.InvalidateCheckpoint()
	r.pending = nil
}

// step executes one strip [lo, hi) under the current tier and settles
// its verdict: valid iterations credited (already added to the report),
// whether the strip committed speculatively, and whether the engine
// must stop (loop terminated, whole-range fallback completed, or err).
// On a nil error the report's Valid/Done are up to date.
func (r *tierRuntime) step(lo, hi int, par StripPar, seq StripSeq) (valid int, committed, stop bool, err error) {
	r.rep.Strips++
	r.mx.SpecAttempt()
	r.stripIdx++
	stripStart := obs.Start(r.tr)
	switch r.current {
	case TierTrusted:
		valid, committed, stop, err = r.stepTrusted(lo, hi, par, seq)
	case TierSignature:
		valid, committed, stop, err = r.stepSignature(lo, hi, par, seq)
	default:
		valid, committed, stop, err = r.stepFull(lo, hi, par, seq)
	}
	if err != nil {
		return valid, committed, stop, err
	}
	if r.tr != nil {
		obs.Span(r.tr, stripStart, "strip", "speculate", 0, map[string]any{
			"lo": lo, "hi": hi, "valid": valid, "committed": committed, "tier": r.current.String()})
	}
	r.rep.Valid += valid
	return valid, committed, stop, nil
}

// stepFull is the Tier-0 strip protocol — the body RunStrippedCtx ran
// before the tiers existed, verbatim: re-arm, run under the fused
// element-wise tracker, analyze, then commit/recover/fall back.
func (r *tierRuntime) stepFull(lo, hi int, par StripPar, seq StripSeq) (int, bool, bool, error) {
	spec, ts, mx := r.spec, r.ts, r.mx
	r.lastPDFail = false
	ts.Rearm(r.pending)
	for _, t := range r.tests {
		t.Reset()
	}

	valid, done, err := par(r.fused, lo, hi)
	if spec.wantsUnwind(err) {
		mx.SpecAbort(fmt.Sprintf("strip [%d,%d) unwound: %v", lo, hi, err))
		if rerr := ts.RestoreAll(); rerr != nil {
			return 0, false, true, rerr
		}
		return 0, false, true, err
	}
	ok := err == nil && valid >= 0 && valid <= hi-lo
	firstViol := -1
	if ok {
		for _, t := range r.tests {
			// Iterations are stamped with their global indices.
			res := t.Analyze(lo + valid)
			if !res.DOALL {
				ok = false
				r.lastPDFail = true
				if res.FirstViolation >= 0 && (firstViol < 0 || res.FirstViolation < firstViol) {
					firstViol = res.FirstViolation
				}
			}
		}
	}
	if !ok {
		reason := fmt.Sprintf("strip [%d,%d) failed validation", lo, hi)
		if err != nil {
			reason = fmt.Sprintf("strip [%d,%d) exception: %v", lo, hi, err)
		}
		mx.SpecAbort(reason)
		if spec.Recovery.Enabled && err == nil && firstViol > lo {
			// Strip-local partial commit: keep the prefix below the
			// earliest violating iteration, rewind only the suffix,
			// and re-execute just [firstViol, hi) sequentially.
			restored, perr := ts.PartialCommit(firstViol)
			if perr != nil {
				return 0, false, true, perr
			}
			r.rep.Undone += restored
			r.rep.PrefixCommitted += firstViol - lo
			mx.PrefixCommittedAdd(firstViol - lo)
			mx.RespecRound()
			r.rep.SeqStrips++
			sv, sdone := seq(firstViol, hi)
			valid, done = (firstViol-lo)+sv, sdone
		} else {
			if rerr := ts.RestoreAll(); rerr != nil {
				return 0, false, true, rerr
			}
			r.rep.SeqStrips++
			valid, done = seq(lo, hi)
		}
		// The sequential runner wrote the arrays directly, invisibly
		// to the write-set journals: the incremental checkpoint
		// premise is gone until the next full Checkpoint.
		ts.InvalidateCheckpoint()
		r.pending = nil
	} else {
		// What this strip wrote is exactly what the next strip's
		// checkpoint must refresh.  (Undo restores some of those
		// locations to their checkpoint values; re-copying them is
		// merely redundant, not wrong.)
		r.pending = ts.WriteSet()
		if valid < hi-lo || done {
			// Undo the strip's overshoot (stamps carry global indices).
			undone, uerr := ts.Undo(lo + valid)
			if uerr != nil {
				return 0, false, true, uerr
			}
			r.rep.Undone += undone
			done = true
		}
	}
	if ok {
		mx.SpecCommit()
	}
	if done {
		r.rep.Done = true
	}
	return valid, ok, done, nil
}

// stepSignature is the Tier-1 strip protocol: run under the signature
// tracker, settle the strip by pairwise intersection, and hand anything
// the cheap verdict cannot commit — a flagged strip, or a partial strip
// whose overshoot undo needs the element-wise stamps' exactness — back
// to stepFull after a rewind.
func (r *tierRuntime) stepSignature(lo, hi int, par StripPar, seq StripSeq) (int, bool, bool, error) {
	spec, ts, mx := r.spec, r.ts, r.mx
	ts.Rearm(r.pending)
	r.sg.Reset()

	valid, done, err := par(r.sigTr, lo, hi)
	if spec.wantsUnwind(err) {
		mx.SpecAbort(fmt.Sprintf("strip [%d,%d) unwound: %v", lo, hi, err))
		if rerr := ts.RestoreAll(); rerr != nil {
			return 0, false, true, rerr
		}
		return 0, false, true, err
	}
	if err == nil && valid >= 0 && valid <= hi-lo {
		mx.SigValidation()
		flagged := r.sg.Conflict()
		if flagged {
			mx.SigConflict()
		}
		if !flagged && valid == hi-lo {
			// Clean full strip: commit on the signature verdict alone.
			r.pending = ts.WriteSet()
			mx.SpecCommit()
			if done {
				r.rep.Done = true
			}
			return valid, true, done, nil
		}
		// Flagged, or partial (a signature-clean strip can still hold
		// same-worker output dependences inside the undone suffix, so
		// Undo needs the element-wise stamps): rewind and re-run the
		// strip under the Tier-0 oracle.
		if rerr := ts.RestoreAll(); rerr != nil {
			return 0, false, true, rerr
		}
		r.pending = nil // the signature run's write-set is void
		fv, fcommitted, fstop, ferr := r.stepFull(lo, hi, par, seq)
		if ferr == nil && flagged && fcommitted {
			// The oracle found the strip clean: hash aliasing, not a
			// dependence.  One strip re-execution was the entire cost.
			r.rep.SigFalsePositives++
			mx.SigFalsePositive()
		}
		if ferr == nil && r.lastPDFail {
			// A real violation hid under the signatures' grain — the
			// loop is not as clean as its streak claimed.
			r.demote()
		}
		return fv, fcommitted, fstop, ferr
	}
	// Exception (or out-of-range valid): Tier 0's strip-local fallback.
	reason := fmt.Sprintf("strip [%d,%d) failed validation", lo, hi)
	if err != nil {
		reason = fmt.Sprintf("strip [%d,%d) exception: %v", lo, hi, err)
	}
	mx.SpecAbort(reason)
	if rerr := ts.RestoreAll(); rerr != nil {
		return 0, false, true, rerr
	}
	r.rep.SeqStrips++
	valid, done = seq(lo, hi)
	ts.InvalidateCheckpoint()
	r.pending = nil
	if done {
		r.rep.Done = true
	}
	return valid, false, done, nil
}

// stepTrusted is the Tier-2 strip protocol: most strips run as
// uninstrumented DOALLs (nil tracker — the same direct access a loop
// with compile-time-provable independence would use); one strip in
// auditEvery re-runs the full machinery to re-earn the trust.  Direct
// strips have no per-strip rewind, so every failure mode that Tier 0
// would fix locally — exception, mid-strip termination overshoot —
// rewinds to the run-entry backup and completes the whole range
// sequentially: the exact sequential result, at the price of the run.
func (r *tierRuntime) stepTrusted(lo, hi int, par StripPar, seq StripSeq) (int, bool, bool, error) {
	if (r.stripIdx-1)%r.auditEvery == r.auditPhase {
		return r.stepAudit(lo, hi, par, seq)
	}
	spec, mx := r.spec, r.mx
	valid, done, err := par(nil, lo, hi)
	if spec.wantsUnwind(err) {
		mx.SpecAbort(fmt.Sprintf("strip [%d,%d) unwound: %v", lo, hi, err))
		// The run-entry backup is the only rewind, and it also erases
		// the strips already committed this run: the committed-prefix
		// contract holds with an empty prefix.
		r.restoreBackup()
		r.rep.Valid = 0
		return 0, false, true, err
	}
	if err == nil && valid == hi-lo {
		mx.SpecCommit()
		if done {
			r.rep.Done = true
		}
		return valid, true, done, nil
	}
	// Exception or mid-strip termination: the overshoot iterations
	// wrote directly with nothing to undo them.
	reason := fmt.Sprintf("trusted strip [%d,%d) terminated mid-strip", lo, hi)
	if err != nil {
		reason = fmt.Sprintf("trusted strip [%d,%d) exception: %v", lo, hi, err)
	}
	mx.SpecAbort(reason)
	return r.seqWholeRange(seq)
}

// stepAudit is one sampled Tier-2 audit: the strip re-armed under the
// full shadow machinery.  A pass (with its exact overshoot undo)
// re-earns the trust; a PD failure revokes it — everything the
// shadow-free strips committed since run entry is suspect, so the run
// rewinds to its backup and completes sequentially.
func (r *tierRuntime) stepAudit(lo, hi int, par StripPar, seq StripSeq) (int, bool, bool, error) {
	spec, ts, mx := r.spec, r.ts, r.mx
	r.rep.AuditRuns++
	mx.AuditRun()
	// Direct strips bypassed the tracker since the last audit: the
	// incremental-checkpoint premise is void, take a full checkpoint.
	ts.InvalidateCheckpoint()
	ts.Rearm(nil)
	for _, t := range r.tests {
		t.Reset()
	}

	valid, done, err := par(r.fused, lo, hi)
	if spec.wantsUnwind(err) {
		mx.SpecAbort(fmt.Sprintf("audit strip [%d,%d) unwound: %v", lo, hi, err))
		// This strip has its own checkpoint; the direct strips before
		// it stand as the committed prefix.
		if rerr := ts.RestoreAll(); rerr != nil {
			return 0, false, true, rerr
		}
		return 0, false, true, err
	}
	ok := err == nil && valid >= 0 && valid <= hi-lo
	pdFailed := false
	if ok {
		for _, t := range r.tests {
			if !t.Analyze(lo + valid).DOALL {
				ok = false
				pdFailed = true
			}
		}
	}
	if pdFailed {
		r.rep.AuditFailures++
		mx.AuditFailure()
		mx.SpecAbort(fmt.Sprintf("audit strip [%d,%d) failed validation", lo, hi))
		r.demote()
		return r.seqWholeRange(seq)
	}
	if !ok {
		// Exception or out-of-range valid: strip-local fallback under
		// the audit's own checkpoint, exactly Tier 0's.
		mx.SpecAbort(fmt.Sprintf("audit strip [%d,%d) exception: %v", lo, hi, err))
		if rerr := ts.RestoreAll(); rerr != nil {
			return 0, false, true, rerr
		}
		r.rep.SeqStrips++
		valid, done = seq(lo, hi)
		ts.InvalidateCheckpoint()
		r.pending = nil
		if done {
			r.rep.Done = true
		}
		return valid, false, done, nil
	}
	if valid < hi-lo || done {
		undone, uerr := ts.Undo(lo + valid)
		if uerr != nil {
			return 0, false, true, uerr
		}
		r.rep.Undone += undone
		done = true
	}
	mx.SpecCommit()
	if done {
		r.rep.Done = true
	}
	return valid, true, done, nil
}

// seqWholeRange is TierTrusted's global fallback: rewind the shared
// arrays to the run's entry state and execute the engine's whole range
// sequentially.  The report's Valid is reset first — the backup restore
// erased the strips it counted — so the caller's += yields exactly the
// sequential pass's credit.
func (r *tierRuntime) seqWholeRange(seq StripSeq) (int, bool, bool, error) {
	r.restoreBackup()
	r.rep.Valid = 0
	r.rep.SeqStrips++
	sv, sdone := seq(r.start, r.total)
	if sdone {
		r.rep.Done = true
	}
	return sv, false, true, nil
}
