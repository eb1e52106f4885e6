// Package obs is the runtime observability layer: execution-scoped
// metrics and optional structured event tracing for the speculative
// WHILE-loop runtime.
//
// The paper's profitability argument (Section 7) hinges on quantities
// the runtime itself produces — overshoot, undo volume, speculation
// aborts, PD-test verdicts — and the related work (taskloop-style
// speculation studies) shows abort/commit rates are the deciding signal
// for whether speculative execution pays.  This package makes those
// quantities observable without perturbing the hot path:
//
//   - Metrics is a set of atomic counters an execution accumulates
//     into.  Every recording method is safe on a nil *Metrics and
//     compiles down to a single predictable branch in that case, so the
//     substrates (internal/sched, internal/tsmem, ...) call them
//     unconditionally.
//   - Tracer receives structured events (iteration spans, QUIT posts,
//     checkpoint/undo, PD verdicts).  A nil Tracer costs one branch per
//     potential event; ChromeTracer (trace.go) buffers events and
//     exports them in the Chrome trace-event JSON format, loadable in
//     chrome://tracing or https://ui.perfetto.dev.
//
// Metrics is execution-scoped, not global: callers allocate one per
// orchestrated run (whilepar Options.Metrics) and read a consistent
// Snapshot after the run completes.  Per-iteration and per-access
// counts are kept per worker and flushed here after each barrier, so a
// Metrics adds no shared write per iteration or access.  Counters may
// be read while the run is in flight — they are individually atomic,
// and lag by at most one strip — but only a
// post-completion Snapshot is guaranteed to satisfy the cross-counter
// identities (Executed == valid + overshot, and so on).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics accumulates counters for one orchestrated loop execution.
// All methods are safe for concurrent use and for a nil receiver (a
// nil *Metrics records nothing).
type Metrics struct {
	// DOALL substrate.
	issued   atomic.Int64
	executed atomic.Int64
	overshot atomic.Int64
	quits    atomic.Int64

	// Guided-schedule chunking.
	chunks     atomic.Int64
	chunkIters atomic.Int64
	maxChunk   atomic.Int64
	minChunk   atomic.Int64 // 0 = unset

	// Dynamic-schedule chunking (geometric claims from the shared
	// counter).
	dynChunks     atomic.Int64
	dynChunkIters atomic.Int64

	// Time-stamped memory (internal/tsmem).
	trackedStores atomic.Int64
	stampedStores atomic.Int64
	checkpoints   atomic.Int64
	checkpointWds atomic.Int64
	restores      atomic.Int64
	undone        atomic.Int64

	// Sharded/batched memory fast path.
	batchedRanges atomic.Int64
	batchedElems  atomic.Int64
	shardMerges   atomic.Int64
	shardMergeWds atomic.Int64
	parCopies     atomic.Int64
	parCopyMaxWk  atomic.Int64

	// PD tests.
	pdTests atomic.Int64
	pdPass  atomic.Int64
	pdFail  atomic.Int64

	// Speculation protocol.
	specAttempts atomic.Int64
	specCommits  atomic.Int64
	specAborts   atomic.Int64

	// Partial-commit misspeculation recovery.
	respecRounds    atomic.Int64
	prefixCommitted atomic.Int64
	suffixUndone    atomic.Int64

	// Persistent-pool executor and pipelined strip speculation.
	poolDispatches atomic.Int64
	poolWorkers    atomic.Int64
	pipeOverlapped atomic.Int64
	pipeSquashed   atomic.Int64
	epochResets    atomic.Int64

	// Work-stealing schedule and incremental checkpoint re-arm.
	stealChunks  atomic.Int64
	stealIters   atomic.Int64
	deltaCheckps atomic.Int64
	deltaCheckWd atomic.Int64

	// Cancellation and panic containment.
	ctxCancels   atomic.Int64
	workerPanics atomic.Int64

	// Adaptive strategy selection (internal/autotune).
	probeRuns        atomic.Int64
	strategySwitches atomic.Int64

	// Tiered validation (internal/sig signatures and trusted audits).
	sigValidations atomic.Int64
	sigConflicts   atomic.Int64
	sigFalsePos    atomic.Int64
	tierDemotions  atomic.Int64
	auditRuns      atomic.Int64
	auditFailures  atomic.Int64

	vpnBusy atomic.Pointer[[]*busySlot] // grown under mu, read lock-free

	mu           sync.Mutex
	abortReasons map[string]int64
	pdVerdicts   []PDVerdict
}

// busySlot is one per-vpn executed counter padded out to a cache line:
// adjacent workers flush their chunk counts concurrently, and without
// the padding the slots share lines and every flush ping-pongs the line
// between cores (false sharing).  64 bytes covers x86-64 and arm64 line
// sizes.
type busySlot struct {
	v atomic.Int64
	_ [56]byte
}

// PDVerdict is one recorded PD-test outcome.
type PDVerdict struct {
	// Array names the tested array.
	Array string
	// DOALL reports whether the execution was valid as-is.
	DOALL bool
	// DOALLWithPriv reports validity under privatization.
	DOALLWithPriv bool
	// Accesses is the number of marked accesses.
	Accesses int
}

// NewMetrics returns an empty Metrics.
func NewMetrics() *Metrics { return &Metrics{} }

// IterIssued records n iterations handed to a worker by the issue
// mechanism (claimed, whether or not QUIT later suppressed them).
func (m *Metrics) IterIssued(n int) {
	if m == nil {
		return
	}
	m.issued.Add(int64(n))
}

// IterExecutedN records n iterations whose bodies ran on processor vpn
// in one call — the per-worker flush of the dispatchers, which pays the
// busy-slot lookup once per worker instead of per iteration.
func (m *Metrics) IterExecutedN(vpn, n int) {
	if m == nil || n <= 0 {
		return
	}
	m.executed.Add(int64(n))
	m.busySlot(vpn).Add(int64(n))
}

// SizeVPNs sizes the per-vpn table for p workers, so their flushes never lock.
func (m *Metrics) SizeVPNs(p int) {
	if m != nil && p > 0 {
		m.busySlot(p - 1)
	}
}

// busySlot returns the per-vpn executed counter (cache-line padded),
// growing the table on first use of a processor number.
func (m *Metrics) busySlot(vpn int) *atomic.Int64 {
	if vpn < 0 {
		vpn = 0
	}
	if t := m.vpnBusy.Load(); t != nil && vpn < len(*t) {
		return &(*t)[vpn].v
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var t []*busySlot
	if p := m.vpnBusy.Load(); p != nil {
		t = *p
	}
	for len(t) <= vpn { // past every reader's length: no one reads it yet
		t = append(t, new(busySlot))
	}
	m.vpnBusy.Store(&t)
	return &t[vpn].v
}

// OvershotAdd records n iterations that executed at or beyond the final
// quit index.
func (m *Metrics) OvershotAdd(n int) {
	if m == nil {
		return
	}
	m.overshot.Add(int64(n))
}

// QuitPosted records one QUIT signalled by an iteration.
func (m *Metrics) QuitPosted() {
	if m == nil {
		return
	}
	m.quits.Add(1)
}

// GuidedChunk records one chunk of the given size claimed by the Guided
// schedule.
func (m *Metrics) GuidedChunk(size int) {
	if m == nil {
		return
	}
	m.chunks.Add(1)
	m.chunkIters.Add(int64(size))
	casMax(&m.maxChunk, int64(size))
	casMinNonzero(&m.minChunk, int64(size))
}

// DynamicChunk records one chunk of the given size claimed by the
// Dynamic schedule's geometric dispatcher.
func (m *Metrics) DynamicChunk(size int) {
	if m == nil {
		return
	}
	m.dynChunks.Add(1)
	m.dynChunkIters.Add(int64(size))
}

func casMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func casMinNonzero(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if (cur != 0 && v >= cur) || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// TrackedStore records one store performed through a time-stamping
// tracker.
func (m *Metrics) TrackedStore() {
	if m == nil {
		return
	}
	m.trackedStores.Add(1)
}

// TrackedStoresAdd records n stores performed through a time-stamping
// tracker in one batched (range) call.
func (m *Metrics) TrackedStoresAdd(n int) {
	if m == nil {
		return
	}
	m.trackedStores.Add(int64(n))
}

// StampedStore records the first stamp taken on a memory location.
func (m *Metrics) StampedStore() {
	if m == nil {
		return
	}
	m.stampedStores.Add(1)
}

// StampedStoresAdd records n distinct stamped locations at once — the
// sharded time-stamp memory counts them during the post-barrier merge
// rather than store by store.
func (m *Metrics) StampedStoresAdd(n int) {
	if m == nil {
		return
	}
	m.stampedStores.Add(int64(n))
}

// BatchedRanges records ranges batched LoadRange/StoreRange calls (one
// tracker interposition each) covering elems elements in all.
func (m *Metrics) BatchedRanges(ranges, elems int) {
	if m == nil {
		return
	}
	m.batchedRanges.Add(int64(ranges))
	m.batchedElems.Add(int64(elems))
}

// ShardMergeDone records one post-barrier merge of per-worker stamp (or
// sparse-undo) shards into the authoritative view: shards were combined
// over words locations.
func (m *Metrics) ShardMergeDone(shards, words int) {
	if m == nil {
		return
	}
	m.shardMerges.Add(1)
	m.shardMergeWds.Add(int64(words))
}

// ParallelCopy records one checkpoint/restore span executed by workers
// concurrent workers instead of a single sequential copy.
func (m *Metrics) ParallelCopy(workers int) {
	if m == nil {
		return
	}
	m.parCopies.Add(1)
	casMax(&m.parCopyMaxWk, int64(workers))
}

// CheckpointDone records one checkpoint of the given size in words.
func (m *Metrics) CheckpointDone(words int) {
	if m == nil {
		return
	}
	m.checkpoints.Add(1)
	m.checkpointWds.Add(int64(words))
}

// RestoreDone records one full checkpoint restore (a speculation
// abort's rewind).
func (m *Metrics) RestoreDone() {
	if m == nil {
		return
	}
	m.restores.Add(1)
}

// UndoneAdd records n memory locations restored by the overshoot undo.
func (m *Metrics) UndoneAdd(n int) {
	if m == nil {
		return
	}
	m.undone.Add(int64(n))
}

// RecordPD records one PD-test verdict.
func (m *Metrics) RecordPD(v PDVerdict) {
	if m == nil {
		return
	}
	m.pdTests.Add(1)
	if v.DOALL {
		m.pdPass.Add(1)
	} else {
		m.pdFail.Add(1)
	}
	m.mu.Lock()
	m.pdVerdicts = append(m.pdVerdicts, v)
	m.mu.Unlock()
}

// SpecAttempt records the start of one speculative execution (a whole
// loop, a strip, or a window).
func (m *Metrics) SpecAttempt() {
	if m == nil {
		return
	}
	m.specAttempts.Add(1)
}

// SpecCommit records a speculative execution whose results were kept.
func (m *Metrics) SpecCommit() {
	if m == nil {
		return
	}
	m.specCommits.Add(1)
}

// SpecAbort records a speculative execution abandoned for the given
// reason (sequential fallback).
func (m *Metrics) SpecAbort(reason string) {
	if m == nil {
		return
	}
	m.specAborts.Add(1)
	m.mu.Lock()
	if m.abortReasons == nil {
		m.abortReasons = make(map[string]int64)
	}
	m.abortReasons[reason]++
	m.mu.Unlock()
}

// RespecRound records one re-speculation round: a renewed parallel
// attempt launched from a violation point after a partial commit.
func (m *Metrics) RespecRound() {
	if m == nil {
		return
	}
	m.respecRounds.Add(1)
}

// PrefixCommittedAdd records n iterations committed as the valid prefix
// of a partially failed speculative execution.
func (m *Metrics) PrefixCommittedAdd(n int) {
	if m == nil {
		return
	}
	m.prefixCommitted.Add(int64(n))
}

// SuffixUndoneAdd records n memory locations restored by a suffix-only
// undo during partial-commit recovery.
func (m *Metrics) SuffixUndoneAdd(n int) {
	if m == nil {
		return
	}
	m.suffixUndone.Add(int64(n))
}

// PoolDispatch records one parallel region executed on a persistent
// worker pool of the given width (instead of spawn-per-call
// goroutines).
func (m *Metrics) PoolDispatch(workers int) {
	if m == nil {
		return
	}
	m.poolDispatches.Add(1)
	casMax(&m.poolWorkers, int64(workers))
}

// PipelineOverlap records one strip whose speculative execution was
// launched while its predecessor's PD test and commit were still
// running (software-pipelined strip speculation).
func (m *Metrics) PipelineOverlap() {
	if m == nil {
		return
	}
	m.pipeOverlapped.Add(1)
}

// PipelineSquash records one in-flight speculative strip discarded
// because its predecessor failed validation (or terminated the loop).
func (m *Metrics) PipelineSquash() {
	if m == nil {
		return
	}
	m.pipeSquashed.Add(1)
}

// EpochReset records one O(1) time-stamp reset performed by bumping
// the stamp memory's generation number instead of clearing the shards.
func (m *Metrics) EpochReset() {
	if m == nil {
		return
	}
	m.epochResets.Add(1)
}

// StealChunk records one chunk of the given size a worker claimed from
// another worker's block under the Stealing schedule.
func (m *Metrics) StealChunk(size int) {
	if m == nil {
		return
	}
	m.stealChunks.Add(1)
	m.stealIters.Add(int64(size))
}

// DeltaCheckpointDone records one incremental checkpoint re-arm that
// refreshed only the given number of dirtied words instead of
// recopying every tracked array.
func (m *Metrics) DeltaCheckpointDone(words int) {
	if m == nil {
		return
	}
	m.deltaCheckps.Add(1)
	m.deltaCheckWd.Add(int64(words))
}

// CtxCancel records one execution abandoned because its context was
// canceled or its deadline expired.
func (m *Metrics) CtxCancel() {
	if m == nil {
		return
	}
	m.ctxCancels.Add(1)
}

// WorkerPanic records one loop-body panic contained by a worker's
// recover backstop.
func (m *Metrics) WorkerPanic() {
	if m == nil {
		return
	}
	m.workerPanics.Add(1)
}

// ProbeRun records one sequential auto-tuning probe: a first strip
// executed on the calling goroutine to estimate body cost, violation
// likelihood and trip count before an engine is chosen.
func (m *Metrics) ProbeRun() {
	if m == nil {
		return
	}
	m.probeRuns.Add(1)
}

// StrategySwitch records one mid-run engine change by the auto-tuner
// (a clean run promoted to the pipelined engine, or a violation storm
// demoted to sequential completion).
func (m *Metrics) StrategySwitch() {
	if m == nil {
		return
	}
	m.strategySwitches.Add(1)
}

// SigValidation records one post-barrier strip verdict computed by
// pairwise signature intersection instead of the element-wise PD test.
func (m *Metrics) SigValidation() {
	if m == nil {
		return
	}
	m.sigValidations.Add(1)
}

// SigConflict records one signature validation that flagged the strip
// (a possible conflict; the strip re-runs under the full shadow tier).
func (m *Metrics) SigConflict() {
	if m == nil {
		return
	}
	m.sigConflicts.Add(1)
}

// SigFalsePositive records one flagged strip whose Tier-0 re-run found
// no real violation — the cost of hash aliasing, never a wrong commit.
func (m *Metrics) SigFalsePositive() {
	if m == nil {
		return
	}
	m.sigFalsePos.Add(1)
}

// TierDemotion records one mid-run validation-tier demotion back to the
// full element-wise shadow tier after a real violation or audit failure.
func (m *Metrics) TierDemotion() {
	if m == nil {
		return
	}
	m.tierDemotions.Add(1)
}

// AuditRun records one sampled Tier-2 audit strip: a strip re-armed
// under the full shadow machinery to re-earn the shadow-free trust.
func (m *Metrics) AuditRun() {
	if m == nil {
		return
	}
	m.auditRuns.Add(1)
}

// AuditFailure records one Tier-2 audit strip whose PD test failed —
// trust is revoked and the run falls back to the exact sequential path.
func (m *Metrics) AuditFailure() {
	if m == nil {
		return
	}
	m.auditFailures.Add(1)
}

// Snapshot is a plain-value copy of all counters, safe to retain after
// the Metrics keeps accumulating.
type Snapshot struct {
	// Issued counts iterations claimed from the issue mechanism;
	// Issued - Executed is the claims QUIT suppressed.
	Issued int64
	// Executed counts iterations whose body ran.
	Executed int64
	// Overshot counts executed iterations at or beyond the final quit
	// index.
	Overshot int64
	// QuitsPosted counts QUIT verdicts returned by iteration bodies.
	QuitsPosted int64

	// GuidedChunks/GuidedChunkIters/MaxGuidedChunk/MinGuidedChunk
	// describe the Guided schedule's claim sizes (zero when unused).
	GuidedChunks, GuidedChunkIters, MaxGuidedChunk, MinGuidedChunk int64

	// DynamicChunks/DynamicChunkIters describe the Dynamic schedule's
	// geometric claims from the shared counter (zero when unused).
	DynamicChunks, DynamicChunkIters int64

	// TrackedStores counts stores through time-stamping trackers;
	// StampedStores counts distinct locations that took a stamp.
	TrackedStores, StampedStores int64
	// Checkpoints/CheckpointWords/Restores/Undone describe the undo
	// machinery's work.
	Checkpoints, CheckpointWords, Restores, Undone int64

	// BatchedRanges counts batched LoadRange/StoreRange tracker calls;
	// BatchedElems the elements they covered (one interposition per
	// range instead of per element).
	BatchedRanges, BatchedElems int64
	// ShardMerges counts post-barrier merges of per-worker stamp
	// shards; ShardMergeWords the locations merged.
	ShardMerges, ShardMergeWords int64
	// ParallelCopies counts checkpoint/restore spans split across
	// workers; ParallelCopyMaxWorkers is the widest such span.
	ParallelCopies, ParallelCopyMaxWorkers int64

	// PDTests = PDPass + PDFail; PDVerdicts holds the individual
	// outcomes in recording order.
	PDTests, PDPass, PDFail int64
	PDVerdicts              []PDVerdict

	// SpecAttempts/SpecCommits/SpecAborts describe the speculation
	// protocol; AbortReasons tallies fallback causes.
	SpecAttempts, SpecCommits, SpecAborts int64
	AbortReasons                          map[string]int64

	// RespecRounds counts renewed parallel attempts after a partial
	// commit; PrefixCommitted the iterations salvaged below violation
	// points; SuffixUndone the locations restored by suffix-only undos.
	RespecRounds, PrefixCommitted, SuffixUndone int64

	// PoolDispatches counts parallel regions executed on a persistent
	// worker pool; PoolMaxWorkers is the widest such pool.
	PoolDispatches, PoolMaxWorkers int64
	// PipelinedStrips counts strips launched while their predecessor
	// was still validating; PipelineSquashes the in-flight strips
	// discarded after a predecessor failed (or terminated the loop).
	PipelinedStrips, PipelineSquashes int64
	// EpochResets counts O(1) stamp resets done by generation bump.
	EpochResets int64

	// StealChunks/StealIters count chunks (and the iterations they
	// covered) claimed from another worker's block by the Stealing
	// schedule.
	StealChunks, StealIters int64
	// DeltaCheckpoints counts incremental checkpoint re-arms;
	// DeltaCheckpointWords the dirtied words they refreshed (vs the
	// full-array words a Checkpoint would copy).
	DeltaCheckpoints, DeltaCheckpointWords int64

	// CtxCancels counts executions abandoned on a canceled or expired
	// context; WorkerPanics counts loop-body panics contained by the
	// workers' recover backstops.
	CtxCancels, WorkerPanics int64

	// ProbeRuns counts sequential auto-tuning probes; StrategySwitches
	// counts mid-run engine changes the auto-tuner made (pipeline
	// promotions and sequential demotions).
	ProbeRuns, StrategySwitches int64

	// SigValidations counts strip verdicts computed by signature
	// intersection; SigConflicts the strips it flagged;
	// SigFalsePositives the flagged strips whose Tier-0 re-run found no
	// real violation.  TierDemotions counts mid-run falls back to the
	// full shadow tier; AuditRuns/AuditFailures describe the Tier-2
	// sampled audits.
	SigValidations, SigConflicts, SigFalsePositives int64
	TierDemotions, AuditRuns, AuditFailures         int64

	// VPNBusy[k] is the number of iterations processor k executed.
	VPNBusy []int64
}

// Snapshot returns a consistent copy of the counters.  Call it after
// the instrumented execution has completed.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Issued:                 m.issued.Load(),
		Executed:               m.executed.Load(),
		Overshot:               m.overshot.Load(),
		QuitsPosted:            m.quits.Load(),
		GuidedChunks:           m.chunks.Load(),
		GuidedChunkIters:       m.chunkIters.Load(),
		MaxGuidedChunk:         m.maxChunk.Load(),
		MinGuidedChunk:         m.minChunk.Load(),
		DynamicChunks:          m.dynChunks.Load(),
		DynamicChunkIters:      m.dynChunkIters.Load(),
		TrackedStores:          m.trackedStores.Load(),
		StampedStores:          m.stampedStores.Load(),
		Checkpoints:            m.checkpoints.Load(),
		CheckpointWords:        m.checkpointWds.Load(),
		Restores:               m.restores.Load(),
		Undone:                 m.undone.Load(),
		BatchedRanges:          m.batchedRanges.Load(),
		BatchedElems:           m.batchedElems.Load(),
		ShardMerges:            m.shardMerges.Load(),
		ShardMergeWords:        m.shardMergeWds.Load(),
		ParallelCopies:         m.parCopies.Load(),
		ParallelCopyMaxWorkers: m.parCopyMaxWk.Load(),
		PDTests:                m.pdTests.Load(),
		PDPass:                 m.pdPass.Load(),
		PDFail:                 m.pdFail.Load(),
		SpecAttempts:           m.specAttempts.Load(),
		SpecCommits:            m.specCommits.Load(),
		SpecAborts:             m.specAborts.Load(),
		RespecRounds:           m.respecRounds.Load(),
		PrefixCommitted:        m.prefixCommitted.Load(),
		SuffixUndone:           m.suffixUndone.Load(),
		PoolDispatches:         m.poolDispatches.Load(),
		PoolMaxWorkers:         m.poolWorkers.Load(),
		PipelinedStrips:        m.pipeOverlapped.Load(),
		PipelineSquashes:       m.pipeSquashed.Load(),
		EpochResets:            m.epochResets.Load(),
		StealChunks:            m.stealChunks.Load(),
		StealIters:             m.stealIters.Load(),
		DeltaCheckpoints:       m.deltaCheckps.Load(),
		DeltaCheckpointWords:   m.deltaCheckWd.Load(),
		CtxCancels:             m.ctxCancels.Load(),
		WorkerPanics:           m.workerPanics.Load(),
		ProbeRuns:              m.probeRuns.Load(),
		StrategySwitches:       m.strategySwitches.Load(),
		SigValidations:         m.sigValidations.Load(),
		SigConflicts:           m.sigConflicts.Load(),
		SigFalsePositives:      m.sigFalsePos.Load(),
		TierDemotions:          m.tierDemotions.Load(),
		AuditRuns:              m.auditRuns.Load(),
		AuditFailures:          m.auditFailures.Load(),
	}
	if t := m.vpnBusy.Load(); t != nil {
		s.VPNBusy = make([]int64, len(*t))
		for k, c := range *t {
			s.VPNBusy[k] = c.v.Load()
		}
	}
	m.mu.Lock()
	if len(m.abortReasons) > 0 {
		s.AbortReasons = make(map[string]int64, len(m.abortReasons))
		for k, v := range m.abortReasons {
			s.AbortReasons[k] = v
		}
	}
	s.PDVerdicts = append([]PDVerdict(nil), m.pdVerdicts...)
	m.mu.Unlock()
	return s
}

// String renders the snapshot as an aligned human-readable summary.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "iterations: issued=%d executed=%d overshot=%d quits=%d\n",
		s.Issued, s.Executed, s.Overshot, s.QuitsPosted)
	if s.GuidedChunks > 0 {
		fmt.Fprintf(&b, "guided:     chunks=%d iters=%d min=%d max=%d avg=%.1f\n",
			s.GuidedChunks, s.GuidedChunkIters, s.MinGuidedChunk, s.MaxGuidedChunk,
			float64(s.GuidedChunkIters)/float64(s.GuidedChunks))
	}
	if s.DynamicChunks > 0 {
		fmt.Fprintf(&b, "dynamic:    chunks=%d iters=%d avg=%.1f\n",
			s.DynamicChunks, s.DynamicChunkIters,
			float64(s.DynamicChunkIters)/float64(s.DynamicChunks))
	}
	fmt.Fprintf(&b, "memory:     stores=%d stamped=%d checkpoints=%d (%d words) restores=%d undone=%d\n",
		s.TrackedStores, s.StampedStores, s.Checkpoints, s.CheckpointWords, s.Restores, s.Undone)
	if s.BatchedRanges > 0 || s.ShardMerges > 0 || s.ParallelCopies > 0 {
		fmt.Fprintf(&b, "fast path:  ranges=%d (%d elems) shard-merges=%d (%d words) par-copies=%d (max %d workers)\n",
			s.BatchedRanges, s.BatchedElems, s.ShardMerges, s.ShardMergeWords,
			s.ParallelCopies, s.ParallelCopyMaxWorkers)
	}
	fmt.Fprintf(&b, "pd-test:    runs=%d pass=%d fail=%d\n", s.PDTests, s.PDPass, s.PDFail)
	for _, v := range s.PDVerdicts {
		fmt.Fprintf(&b, "  %-12s doall=%v priv=%v accesses=%d\n", v.Array, v.DOALL, v.DOALLWithPriv, v.Accesses)
	}
	if s.PoolDispatches > 0 || s.PipelinedStrips > 0 || s.EpochResets > 0 {
		fmt.Fprintf(&b, "pool:       dispatches=%d (max %d workers) pipelined-strips=%d squashes=%d epoch-resets=%d\n",
			s.PoolDispatches, s.PoolMaxWorkers, s.PipelinedStrips, s.PipelineSquashes, s.EpochResets)
	}
	if s.StealChunks > 0 || s.DeltaCheckpoints > 0 {
		fmt.Fprintf(&b, "hot path:   steals=%d (%d iters) delta-checkpoints=%d (%d words)\n",
			s.StealChunks, s.StealIters, s.DeltaCheckpoints, s.DeltaCheckpointWords)
	}
	if s.CtxCancels > 0 || s.WorkerPanics > 0 {
		fmt.Fprintf(&b, "cancel:     ctx-cancels=%d worker-panics=%d\n", s.CtxCancels, s.WorkerPanics)
	}
	if s.ProbeRuns > 0 || s.StrategySwitches > 0 {
		fmt.Fprintf(&b, "autotune:   probes=%d strategy-switches=%d\n", s.ProbeRuns, s.StrategySwitches)
	}
	if s.SigValidations > 0 || s.AuditRuns > 0 || s.TierDemotions > 0 {
		fmt.Fprintf(&b, "tiers:      sig-validations=%d conflicts=%d false-positives=%d audits=%d audit-failures=%d demotions=%d\n",
			s.SigValidations, s.SigConflicts, s.SigFalsePositives, s.AuditRuns, s.AuditFailures, s.TierDemotions)
	}
	fmt.Fprintf(&b, "speculation: attempts=%d commits=%d aborts=%d\n", s.SpecAttempts, s.SpecCommits, s.SpecAborts)
	if s.RespecRounds > 0 || s.PrefixCommitted > 0 || s.SuffixUndone > 0 {
		fmt.Fprintf(&b, "recovery:   respec-rounds=%d prefix-committed=%d suffix-undone=%d\n",
			s.RespecRounds, s.PrefixCommitted, s.SuffixUndone)
	}
	if len(s.AbortReasons) > 0 {
		reasons := make([]string, 0, len(s.AbortReasons))
		for r := range s.AbortReasons {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Fprintf(&b, "  abort x%d: %s\n", s.AbortReasons[r], r)
		}
	}
	if len(s.VPNBusy) > 0 {
		fmt.Fprintf(&b, "vpn busy:   %v\n", s.VPNBusy)
	}
	return b.String()
}

// Hooks bundles a Metrics and a Tracer for substrates whose entry
// points take one optional observability argument.  The zero value is
// fully inert.
type Hooks struct {
	M *Metrics
	T Tracer
}
