package speculate

import (
	"testing"

	"whilepar/internal/mem"
	"whilepar/internal/obs"
	"whilepar/internal/sched"
)

// tierLoop is stripLoop's nil-tracker-tolerant twin: the same
// A[i] = i+1 loop with an RV exit and an optional planted dependence
// window, but runnable shadow-free (TierTrusted's direct strips hand
// the runner a nil tracker).  The Stealing schedule gives each worker a
// contiguous block, so with 64-aligned strips the per-worker footprints
// are block-aligned — the shape Tier-1's block-granular signatures are
// sized for.
func tierLoop(a *mem.Array, procs, exit, depLo, depHi int) (StripPar, StripSeq) {
	par := func(tr mem.Tracker, lo, hi int) (int, bool, error) {
		res := sched.DOALL(hi-lo, sched.Options{Procs: procs, Schedule: sched.Stealing},
			func(j, vpn int) sched.Control {
				i := lo + j
				if i == exit {
					return sched.Quit
				}
				if i >= depLo && i < depHi && i > 0 {
					if tr != nil {
						_ = tr.Load(a, i-1, i, vpn) // exposed read: cross-iteration dep
					} else {
						_ = a.Data[i-1]
					}
				}
				if tr != nil {
					tr.Store(a, i, float64(i+1), i, vpn)
				} else {
					a.Data[i] = float64(i + 1)
				}
				return sched.Continue
			})
		if res.QuitIndex < hi-lo {
			return res.QuitIndex, true, nil
		}
		return hi - lo, false, nil
	}
	seq := func(lo, hi int) (int, bool) {
		for i := lo; i < hi; i++ {
			if i == exit {
				return i - lo, true
			}
			a.Data[i] = float64(i + 1)
		}
		return hi - lo, false
	}
	return par, seq
}

// TestTierSignatureCleanLoop: a clean loop at TierSignature commits
// every strip and produces the exact sequential state.  Strips are
// 64*procs so the Stealing blocks are signature-block aligned; every
// strip's verdict comes from the signature intersection.
func TestTierSignatureCleanLoop(t *testing.T) {
	n, procs, strip := 1024, 4, 256
	a := mem.NewArray("A", n)
	mx := obs.NewMetrics()
	par, seq := tierLoop(a, procs, -1, 0, 0)
	rep, err := RunStripped(Spec{
		Procs: procs, Shared: []*mem.Array{a}, Tested: []*mem.Array{a},
		Tier: TierSignature, Metrics: mx,
	}, n, strip, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != n || rep.Done || rep.SeqStrips != 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Tier != TierSignature || rep.TierDemoted {
		t.Fatalf("tier %v demoted=%v, want signature undemoted", rep.Tier, rep.TierDemoted)
	}
	s := mx.Snapshot()
	if s.SigValidations != int64(rep.Strips) {
		t.Fatalf("sig validations = %d, want one per strip (%d)", s.SigValidations, rep.Strips)
	}
	expectState(t, a, n)
}

// depPar is a deterministic strip runner: fixed contiguous chunks per
// vpn, executed in vpn order on the calling goroutine.  The planted
// read of i-1 in [depLo, depHi) is a cross-worker flow dependence
// whenever the window spans a chunk boundary — deterministic, where a
// real stealing schedule may legitimately run both endpoints on one
// worker and make the strip signature-clean.
func depPar(a *mem.Array, procs, depLo, depHi int) StripPar {
	return func(tr mem.Tracker, lo, hi int) (int, bool, error) {
		chunk := (hi - lo + procs - 1) / procs
		for v := 0; v < procs; v++ {
			for j := 0; j < chunk; j++ {
				i := lo + v*chunk + j
				if i >= hi {
					break
				}
				if i >= depLo && i < depHi && i > 0 {
					_ = tr.Load(a, i-1, i, v)
				}
				tr.Store(a, i, float64(i+1), i, v)
			}
		}
		return hi - lo, false, nil
	}
}

// TestTierSignatureViolationDemotes is the injected mid-run violation:
// a cross-worker flow dependence planted in strip 2 must flag the
// signatures, fail the Tier-0 re-run's PD test, fall back sequentially
// for that strip, demote the run to TierFull — and still commit the
// exact sequential result.
func TestTierSignatureViolationDemotes(t *testing.T) {
	n, procs, strip := 1024, 4, 256
	a := mem.NewArray("A", n)
	mx := obs.NewMetrics()
	// Strip [256,512) has chunks starting at 256+64k; iteration 320
	// reads element 319 — the last element of its neighbor's chunk.
	par := depPar(a, procs, 320, 322)
	_, seq := tierLoop(a, procs, -1, 0, 0)
	rep, err := RunStripped(Spec{
		Procs: procs, Shared: []*mem.Array{a}, Tested: []*mem.Array{a},
		Tier: TierSignature, Metrics: mx,
	}, n, strip, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != n || rep.SeqStrips != 1 {
		t.Fatalf("report %+v", rep)
	}
	if !rep.TierDemoted {
		t.Fatalf("a real violation must demote the run: %+v", rep)
	}
	s := mx.Snapshot()
	if s.SigConflicts < 1 || s.TierDemotions != 1 || s.PDFail < 1 {
		t.Fatalf("snapshot conflicts=%d demotions=%d pdfail=%d", s.SigConflicts, s.TierDemotions, s.PDFail)
	}
	expectState(t, a, n)
}

// TestTierSignatureFalsePositiveRerun: with a tiny strip all workers
// write inside one 64-element signature block, so every strip flags —
// pure hash/block aliasing.  Each must re-run under Tier 0, validate
// clean, count a false positive, and never demote.
func TestTierSignatureFalsePositiveRerun(t *testing.T) {
	n, procs, strip := 128, 4, 32
	a := mem.NewArray("A", n)
	mx := obs.NewMetrics()
	// A deterministic runner (no real concurrency, fixed vpn blocks):
	// under sched the stealing pass can leave a whole strip on one
	// worker, which is legitimately conflict-free.
	par := func(tr mem.Tracker, lo, hi int) (int, bool, error) {
		chunk := (hi - lo) / procs
		for v := 0; v < procs; v++ {
			for j := 0; j < chunk; j++ {
				i := lo + v*chunk + j
				tr.Store(a, i, float64(i+1), i, v)
			}
		}
		return hi - lo, false, nil
	}
	_, seq := tierLoop(a, procs, -1, 0, 0)
	rep, err := RunStripped(Spec{
		Procs: procs, Shared: []*mem.Array{a}, Tested: []*mem.Array{a},
		Tier: TierSignature, Metrics: mx,
	}, n, strip, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != n || rep.SeqStrips != 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.SigFalsePositives != rep.Strips {
		t.Fatalf("every strip should flag and re-validate clean: fps=%d strips=%d",
			rep.SigFalsePositives, rep.Strips)
	}
	if rep.TierDemoted {
		t.Fatalf("false positives must not demote: %+v", rep)
	}
	if s := mx.Snapshot(); s.SigFalsePositives != int64(rep.Strips) || s.TierDemotions != 0 {
		t.Fatalf("snapshot fps=%d demotions=%d", s.SigFalsePositives, s.TierDemotions)
	}
	expectState(t, a, n)
}

// TestTierSignatureExitMidStrip: a partial strip cannot commit on the
// signature verdict (the overshoot undo needs element-wise stamps), so
// the final strip re-runs under Tier 0 and undoes its overshoot
// exactly.
func TestTierSignatureExitMidStrip(t *testing.T) {
	n, procs, strip := 1024, 4, 256
	a := mem.NewArray("A", n)
	par, seq := tierLoop(a, procs, 700, 0, 0)
	rep, err := RunStripped(Spec{
		Procs: procs, Shared: []*mem.Array{a}, Tested: []*mem.Array{a},
		Tier: TierSignature,
	}, n, strip, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != 700 || !rep.Done || rep.TierDemoted {
		t.Fatalf("report %+v", rep)
	}
	expectState(t, a, 700)
}

// TestTierTrustedCleanLoop: shadow-free strips plus pinned audits
// commit the exact state; the audits are counted and pass.
func TestTierTrustedCleanLoop(t *testing.T) {
	n, procs, strip := 1024, 4, 128
	a := mem.NewArray("A", n)
	mx := obs.NewMetrics()
	par, seq := tierLoop(a, procs, -1, 0, 0)
	rep, err := RunStripped(Spec{
		Procs: procs, Shared: []*mem.Array{a}, Tested: []*mem.Array{a},
		Tier: TierTrusted, AuditEvery: 4, AuditPhase: 1, Metrics: mx,
	}, n, strip, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != n || rep.Done || rep.SeqStrips != 0 || rep.TierDemoted {
		t.Fatalf("report %+v", rep)
	}
	if rep.AuditRuns != 2 || rep.AuditFailures != 0 { // strips 1 and 5 of 8
		t.Fatalf("audits = %d/%d failures, want 2/0", rep.AuditRuns, rep.AuditFailures)
	}
	if s := mx.Snapshot(); s.AuditRuns != 2 || s.AuditFailures != 0 {
		t.Fatalf("snapshot audits=%d failures=%d", s.AuditRuns, s.AuditFailures)
	}
	expectState(t, a, n)
}

// TestTierTrustedAuditFailure: a violation planted inside the audited
// strip revokes the trust — the run rewinds to its entry state,
// completes sequentially, demotes, and still holds the exact
// sequential result.
func TestTierTrustedAuditFailure(t *testing.T) {
	n, procs, strip := 1024, 4, 128
	a := mem.NewArray("A", n)
	mx := obs.NewMetrics()
	// AuditPhase 1 audits strip 1 ([0,128), Stealing blocks of 32):
	// iteration 64 reads element 63, its neighbor block's last element.
	par, seq := tierLoop(a, procs, -1, 64, 66)
	rep, err := RunStripped(Spec{
		Procs: procs, Shared: []*mem.Array{a}, Tested: []*mem.Array{a},
		Tier: TierTrusted, AuditEvery: 4, AuditPhase: 1, Metrics: mx,
	}, n, strip, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != n || rep.SeqStrips != 1 {
		t.Fatalf("report %+v", rep)
	}
	if rep.AuditFailures != 1 || !rep.TierDemoted {
		t.Fatalf("audit failure must demote: %+v", rep)
	}
	if s := mx.Snapshot(); s.AuditFailures != 1 || s.TierDemotions != 1 {
		t.Fatalf("snapshot failures=%d demotions=%d", s.AuditFailures, s.TierDemotions)
	}
	expectState(t, a, n)
}

// TestTierTrustedExitMidStrip: termination inside a direct strip left
// untracked overshoot writes in the arrays, so the run rewinds to its
// backup and completes sequentially — the exact sequential prefix.
func TestTierTrustedExitMidStrip(t *testing.T) {
	n, procs, strip := 1024, 4, 128
	a := mem.NewArray("A", n)
	par, seq := tierLoop(a, procs, 500, 0, 0)
	rep, err := RunStripped(Spec{
		Procs: procs, Shared: []*mem.Array{a}, Tested: []*mem.Array{a},
		Tier: TierTrusted, AuditEvery: 4, AuditPhase: 1,
	}, n, strip, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != 500 || !rep.Done || rep.SeqStrips != 1 {
		t.Fatalf("report %+v", rep)
	}
	expectState(t, a, 500)
}

// TestTierClampedBySparseUndo: modes that need the element-wise
// machinery silently run at TierFull whatever the spec asked for.
func TestTierClampedBySparseUndo(t *testing.T) {
	n := 128
	a := mem.NewArray("A", n)
	par, seq := tierLoop(a, 2, -1, 0, 0)
	rep, err := RunStripped(Spec{
		Procs: 2, Shared: []*mem.Array{a}, Tested: []*mem.Array{a},
		Tier: TierTrusted, SparseUndo: true,
	}, n, 32, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tier != TierFull {
		t.Fatalf("sparse undo must clamp the tier, got %v", rep.Tier)
	}
	expectState(t, a, n)
}

// fixedCtl is a minimal StripController: constant strip, no switches.
type fixedCtl struct{ strip int }

func (c fixedCtl) NextStrip(done, total int) int                       { return c.strip }
func (c fixedCtl) Observe(lo, valid, hi int, committed bool, ns int64) {}
func (c fixedCtl) SwitchPipeline() bool                                { return false }
func (c fixedCtl) SwitchSequential() bool                              { return false }

// TestTunedTierSignature: the tuned engine honors the tier through the
// same runtime, and a violation still demotes and commits exactly.
func TestTunedTierSignature(t *testing.T) {
	n, procs := 1024, 4
	a := mem.NewArray("A", n)
	par := depPar(a, procs, 320, 322)
	_, seq := tierLoop(a, procs, -1, 0, 0)
	rep, err := RunTunedCtx(t.Context(), Spec{
		Procs: procs, Shared: []*mem.Array{a}, Tested: []*mem.Array{a},
		Tier: TierSignature,
	}, 0, n, fixedCtl{strip: 256}, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != n || !rep.TierDemoted || rep.Tier != TierSignature {
		t.Fatalf("report %+v", rep)
	}
	expectState(t, a, n)
}
