// Package tsmem implements the time-stamped memory of Section 4: the
// machinery that lets a speculatively parallelized WHILE loop *undo* the
// work of iterations that overshot the termination condition.
//
// The scheme is the paper's: checkpoint the affected arrays before the
// DOALL, record for every memory location the iteration that wrote it
// during the loop, and, once the last valid iteration is known, restore
// the checkpointed value of every location whose stamp exceeds it.  This
// costs up to three times the loop's own memory (data + checkpoint +
// stamps), which Stats exposes so the resource-controlled strategies of
// Section 8 can react.
//
// Throughput: the stamp store is the hot path every speculative
// execution funnels each write through, so Memory keeps its stamps
// *sharded per virtual processor*: worker k writes min-stamps into its
// own private slice with plain (non-atomic) loads and stores, and the
// authoritative per-location minimum is taken across the shards only
// after the DOALL's barrier, when Undo/Stamp/Stats first need it.
// This removes all atomic contention (and cache-line ping-pong) from
// the store path at the cost of procs x words of stamp memory — the
// same privatize-then-reduce trade the paper itself applies to the PD
// test's shadow structures.  AtomicMemory (atomic.go) preserves the
// per-element CAS scheme as the comparison baseline.
//
// Strip-mining throughput: every per-strip cost is proportional to the
// strip's writes, not the array length.
//
//   - Stamps are epoch-tagged: each shard slot carries the generation
//     that wrote it and is live only while that generation is current,
//     so the per-strip stamp reset is one epoch bump — O(1) — instead
//     of an O(procs x n) NoStamp sweep.  NewShardedExplicit keeps the
//     eager-sweep scheme as the equivalence oracle and baseline.
//   - Each shard journals the locations it first-touches per epoch, so
//     the post-barrier shard merge (and everything downstream: Undo,
//     PartialCommit, Stamp, Stats) visits only written locations.
//   - The journals double as write-sets (WriteSet), which lets an
//     engine re-arm the checkpoint incrementally (Rearm): instead of
//     recopying every array per strip, only the locations the previous
//     strip dirtied are refreshed — O(writes) per strip.
//   - Buffers come from a shared sync.Pool arena (internal/arena) and
//     go back via Release, so repeated engine invocations recycle their
//     checkpoint/stamp/tag memory instead of reallocating it.  A packed
//     shard goes back whole, together with the last epoch it was used
//     under (block.go), so the next Memory starts one epoch later and
//     clears nothing.
//
// Checkpoint, RestoreAll and the undo scan are parallelized across the
// same worker count, so the Tb/Ta overheads of the cost model shrink
// with processors too.
//
// The package also provides the write Trail needed when a privatized
// array under test is live after the loop (Section 5.1): a privatized
// location may legitimately be written by several iterations of a valid
// parallel loop, so last-value copy-out must pick, per location, the
// value with the largest stamp not exceeding the last valid iteration.
package tsmem

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"whilepar/internal/arena"
	"whilepar/internal/mem"
	"whilepar/internal/obs"
)

// NoStamp is the stamp value of a location never written in the loop.
const NoStamp = int64(-1)

// minSpan is the smallest per-worker chunk worth spawning a goroutine
// for in the parallel copy/merge helpers; below it the work runs inline.
const minSpan = 4096

// parallelDo splits [0, n) into at most workers contiguous spans and
// runs f on each concurrently, waiting for all.  Small ranges run
// inline.  It returns the number of workers actually used.
func parallelDo(workers, n int, f func(lo, hi int)) int {
	if n <= 0 {
		return 0
	}
	if workers > n/minSpan {
		workers = n / minSpan
	}
	if workers <= 1 {
		f(0, n)
		return 1
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	span := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * span
		hi := lo + span
		if hi > n {
			hi = n
		}
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return workers
}

// Memory tracks a set of managed arrays through one speculative loop
// execution: checkpoint -> (stamped stores during the DOALL) -> undo or
// commit.
//
// Stamps are sharded per virtual processor: shard k is written only by
// the worker running as vpn k (single-writer slots, no atomics), and
// the shards are merged lazily after the parallel section's barrier.
// Callers must size the shards with NewSharded(procs, ...) to at least
// the number of concurrent workers; stores from an out-of-range vpn are
// folded onto shard vpn mod procs, which is only safe when that vpn is
// not concurrent with the shard's owner.
type Memory struct {
	arrays      []*mem.Array
	checkpoints []*mem.Array
	procs       int
	// stamps[a][k][i] is worker k's minimum writing iteration for
	// location i of array a (NoStamp if it never wrote it).
	stamps map[*mem.Array][][]int64
	// epochs[a][k][i] tags stamps[a][k][i] with the stamp generation
	// that wrote it: a stamp is live iff its tag equals the Memory's
	// current epoch.  Bumping the epoch therefore invalidates every
	// stamp at once — the O(1) reset a strip-mined loop performs
	// between strips — without sweeping procs x n words.
	epochs map[*mem.Array][][]uint32
	// dirty[a][k] journals the locations worker k first-touched since
	// the last stamp reset (in both epoch and explicit mode): the
	// worklist the lazy merge deduplicates, and the raw material of
	// WriteSet.  Single-writer per shard, like the stamps.
	dirty map[*mem.Array][][]int
	// Packed block-journal layout (the JournalBlock default; see
	// block.go).  shards[a][k] is worker k's pooled shard for array a —
	// its 16-byte stamp records, per-block journal state and block
	// journal — which Release hands back.  unionBits/touchedBlk are the
	// merge's block-granular results, playing the role touchedIdx plays
	// for the element layout.  Exactly one of {shards, stamps...} is
	// populated per Memory.
	shards     map[*mem.Array][]*shard
	unionBits  map[*mem.Array][]uint64
	touchedBlk map[*mem.Array][]int32
	// packed selects the block layout's code paths (JournalBlock and
	// not explicit).
	packed bool
	// views carries the same stamp/epoch/dirty slice headers and shards
	// as the maps above, keyed by position: the per-element store path
	// resolves its array by a linear pointer scan over this handful of
	// entries instead of two pointer-keyed map hashes per store (the
	// dominant cost of a stamped store before this cache).  The slice
	// headers alias the map entries, so journal appends through either
	// stay coherent.
	views []shardView
	// epoch is the current stamp generation: above the last epoch of
	// every pooled shard the Memory took, so whatever they hold is
	// stale, and never zero, so a fresh allocation's zeroed tags are
	// too.
	epoch uint32
	// explicit disables epoch tagging: resets eagerly refill every
	// shard with NoStamp and the epoch never moves.  Kept as the
	// equivalence oracle for the O(1) reset (NewShardedExplicit).
	explicit bool
	// mergedOK guards the lazy post-barrier merge (mergeStamps).
	// Stamping stores clear it (the merge's results are copies, not
	// aliases, so a store after a merge would otherwise leave them
	// stale); the flag is atomic only for that rare cross-worker clear —
	// the hot path pays one read of a rarely-written cache line.
	// merged[a][i] is the element layout's cross-shard minimum, only
	// meaningful where mgSeen[a][i] carries the current mgGen — every
	// other location is NoStamp by construction (never written since
	// the reset) and is not stored explicitly.  The packed layout keeps
	// no merged array: it takes each minimum from the shards when asked.
	merged   map[*mem.Array][]int64
	mergedOK atomic.Bool
	// touchedIdx[a] is the deduplicated union of the dirty journals as
	// of the last merge: the exact location set Undo/PartialCommit
	// must visit.  mgSeen/mgGen are its generation-tagged dedup scratch
	// (also the "is merged[a][i] meaningful" gate) in the element
	// layout.
	touchedIdx map[*mem.Array][]int
	mgSeen     map[*mem.Array][]uint32
	mgGen      uint32
	stamped    int // distinct stamped locations, counted at merge
	// writeSet holds WriteSet's result, one buffer per array reused
	// from strip to strip.
	writeSet [][]int
	// cpValid reports that the held checkpoint still mirrors the array
	// state as of the last stamp reset at every location outside the
	// current journals — the invariant Rearm's incremental refresh
	// maintains and any untracked write (sequential fallback) breaks.
	cpValid bool
	// threshold is the statistics-enhanced strip-mining cutoff n'_i of
	// Section 8.1: stores by iterations below it are NOT stamped (they
	// are predicted valid).  Undo below the threshold is impossible.
	threshold int

	// Optional observability hooks (nil-safe).
	obsM   *obs.Metrics
	obsT   obs.Tracer
	counts workerCounts
}

// SetObs attaches observability hooks: m accumulates tracked/stamped
// store counts, checkpoint words, shard merges, undo and restore
// counts; t receives checkpoint/undo/restore events.  Either may be
// nil.  Must be set before the speculative execution begins.  Per-access
// counts reach m at the next merge or stamp reset, at the latest in Release.
func (m *Memory) SetObs(mx *obs.Metrics, t obs.Tracer) {
	m.obsM, m.obsT, m.counts = mx, t, newWorkerCounts(mx, m.procs)
}

// workerCounts holds each worker's tracked stores, batched ranges and
// elements, and sparse first-touch stamps in a slot padded to a cache
// line, so the access paths write no shared line; flush adds them into
// the Metrics after the barrier.  nil (no Metrics) counts nothing.
type workerCounts []struct {
	n [4]int
	_ [32]byte
}

func newWorkerCounts(mx *obs.Metrics, procs int) workerCounts {
	if mx == nil {
		return nil
	}
	return make(workerCounts, procs)
}

func (wc workerCounts) count(k, stores, ranges, elems, stamped int) {
	if wc != nil {
		c := &wc[k].n
		c[0], c[1], c[2], c[3] = c[0]+stores, c[1]+ranges, c[2]+elems, c[3]+stamped
	}
}

// flush adds every worker's counts into mx and clears them.
func (wc workerCounts) flush(mx *obs.Metrics) {
	for k := range wc {
		c := &wc[k].n
		mx.TrackedStoresAdd(c[0])
		mx.BatchedRanges(c[1], c[2])
		mx.StampedStoresAdd(c[3])
		*c = [4]int{}
	}
}

// New creates a single-worker Memory over the given arrays — the shape
// sequential re-execution and tests use.  Parallel executions must use
// NewSharded so every virtual processor owns a stamp shard.  Checkpoint
// must be called before the speculative execution begins.
func New(arrays ...*mem.Array) *Memory { return NewSharded(1, arrays...) }

// NewSharded creates a Memory whose stamps are sharded for procs
// virtual processors: worker k records stamps in its own single-writer
// shard, eliminating atomic contention on shared stamp words.  Stamps
// are epoch-tagged, so the per-strip reset a Checkpoint performs is a
// single generation bump rather than an O(procs x n) sweep, and live in
// the packed block-journal layout (JournalBlock, block.go) so a
// first-touch store stays within one shadow cache line.
// Checkpoint must be called before the speculative execution begins.
func NewSharded(procs int, arrays ...*mem.Array) *Memory {
	return newSharded(procs, false, JournalBlock, arrays...)
}

// NewShardedJournal is NewSharded with an explicit journal layout —
// the constructor the layout-equivalence suites A/B.
func NewShardedJournal(procs int, journal Journal, arrays ...*mem.Array) *Memory {
	return newSharded(procs, false, journal, arrays...)
}

// NewShardedElement is NewSharded with the element-journal layout:
// separate stamp and epoch-tag arrays plus per-element dirty-index
// journals.  Retained as the equivalence oracle for the packed block
// layout.
func NewShardedElement(procs int, arrays ...*mem.Array) *Memory {
	return newSharded(procs, false, JournalElement, arrays...)
}

// NewShardedExplicit is NewSharded with epoch tagging disabled: every
// reset eagerly refills the shards with NoStamp, the pre-epoch scheme
// (which implies the element layout).  It is retained as the
// equivalence oracle for the O(1) epoch reset.
func NewShardedExplicit(procs int, arrays ...*mem.Array) *Memory {
	return newSharded(procs, true, JournalElement, arrays...)
}

// shardView bundles one tracked array's shard slices for the hot store
// path (see the views field).  stamps/epochs/dirty serve the element
// layout; recs (each shard's records, cut to the array's length) and
// shards the packed block layout.
type shardView struct {
	a      *mem.Array
	stamps [][]int64
	epochs [][]uint32
	dirty  [][]int
	recs   [][]rec
	shards []*shard
}

// viewOf resolves a tracked array's shard view by pointer scan, nil if
// the array is untracked (privatized or read-only arrays reach the
// tracker too).
func (m *Memory) viewOf(a *mem.Array) *shardView {
	for i := range m.views {
		if m.views[i].a == a {
			return &m.views[i]
		}
	}
	return nil
}

func newSharded(procs int, explicit bool, journal Journal, arrays ...*mem.Array) *Memory {
	if procs < 1 {
		procs = 1
	}
	m := &Memory{
		procs:    procs,
		explicit: explicit,
		packed:   journal == JournalBlock && !explicit,
	}
	if m.packed {
		m.shards = make(map[*mem.Array][]*shard, len(arrays))
		m.unionBits = make(map[*mem.Array][]uint64, len(arrays))
		m.touchedBlk = make(map[*mem.Array][]int32, len(arrays))
		for _, a := range arrays {
			m.arrays = append(m.arrays, a)
			shs := make([]*shard, procs)
			rss := make([][]rec, procs)
			for k := range shs {
				// A pooled shard's records and block tags are stale
				// under every epoch above the one it carries; bitmaps
				// hide behind the block tags, so their content is
				// immaterial.
				sh := newShard(a.Len())
				if sh.epoch > m.epoch {
					m.epoch = sh.epoch
				}
				shs[k], rss[k] = sh, sh.recs[:a.Len()]
			}
			m.shards[a] = shs
			m.views = append(m.views, shardView{a: a, recs: rss, shards: shs})
			m.unionBits[a] = uint64Pool.Get(numBlocks(a.Len()))
		}
		m.resetStamps()
		return m
	}
	m.merged = make(map[*mem.Array][]int64, len(arrays))
	m.stamps = make(map[*mem.Array][][]int64, len(arrays))
	m.epochs = make(map[*mem.Array][][]uint32, len(arrays))
	m.dirty = make(map[*mem.Array][][]int, len(arrays))
	m.touchedIdx = make(map[*mem.Array][]int, len(arrays))
	m.mgSeen = make(map[*mem.Array][]uint32, len(arrays))
	for _, a := range arrays {
		m.arrays = append(m.arrays, a)
		sh := make([][]int64, procs)
		eps := make([][]uint32, procs)
		dj := make([][]int, procs)
		for k := range sh {
			// Stamp words hide behind the epoch tags (or the explicit
			// NoStamp refill below), so their recycled content is fine;
			// the tags themselves must start all-stale.
			sh[k] = arena.Int64s(a.Len())
			eps[k] = arena.Uint32sZeroed(a.Len())
			dj[k] = arena.Ints(64)
		}
		m.stamps[a] = sh
		m.epochs[a] = eps
		m.dirty[a] = dj
		m.views = append(m.views, shardView{a: a, stamps: sh, epochs: eps, dirty: dj})
		m.mgSeen[a] = arena.Uint32sZeroed(a.Len())
	}
	if explicit {
		// The epoch never moves in explicit mode: pre-mark every tag
		// live once so the store path's tag check always passes and
		// the NoStamp refill below carries the full reset.
		m.epoch = 1
		for _, eps := range m.epochs {
			for _, ep := range eps {
				for i := range ep {
					ep[i] = 1
				}
			}
		}
	}
	m.resetStamps()
	return m
}

// Release returns the Memory's stamp shards, tags, journals, merge
// scratch and checkpoint buffers to the shared arena.  The Memory must
// not be used afterwards; call it when an engine invocation is done.
// The tracked arrays themselves are caller-owned and untouched.
func (m *Memory) Release() {
	m.counts.flush(m.obsM)
	for _, a := range m.arrays {
		for _, s := range m.stamps[a] {
			arena.PutInt64s(s)
		}
		for _, ep := range m.epochs[a] {
			arena.PutUint32s(ep)
		}
		for _, d := range m.dirty[a] {
			arena.PutInts(d)
		}
		for _, sh := range m.shards[a] {
			sh.release(m.epoch)
		}
		uint64Pool.Put(m.unionBits[a])
		int32Pool.Put(m.touchedBlk[a])
		arena.PutInt64s(m.merged[a])
		arena.PutUint32s(m.mgSeen[a])
		arena.PutInts(m.touchedIdx[a])
	}
	for _, cp := range m.checkpoints {
		arena.PutFloat64s(cp.Data)
	}
	for _, ws := range m.writeSet {
		arena.PutInts(ws)
	}
	m.stamps, m.epochs, m.dirty, m.merged, m.mgSeen, m.touchedIdx = nil, nil, nil, nil, nil, nil
	m.shards, m.unionBits, m.touchedBlk, m.writeSet = nil, nil, nil, nil
	m.checkpoints, m.arrays, m.views = nil, nil, nil
	m.cpValid = false
}

// Procs returns the shard count the Memory was sized for.
func (m *Memory) Procs() int { return m.procs }

func (m *Memory) resetStamps() {
	m.counts.flush(m.obsM)
	if m.explicit {
		for _, sh := range m.stamps {
			for _, s := range sh {
				parallelDo(m.procs, len(s), func(lo, hi int) {
					s := s[lo:hi]
					for i := range s {
						s[i] = NoStamp
					}
				})
			}
		}
	} else {
		m.epoch++
		if m.epoch == 0 {
			// uint32 wrap: tags written 2^32 generations ago would read
			// as live again, so pay one full sweep to zero them and
			// restart at 1 (zero is never a live epoch).
			for _, eps := range m.epochs {
				for _, ep := range eps {
					parallelDo(m.procs, len(ep), func(lo, hi int) {
						ep := ep[lo:hi]
						for i := range ep {
							ep[i] = 0
						}
					})
				}
			}
			// The packed shards are pooled with their capacity, so the
			// sweep covers it all: a later, longer user of a shard must
			// not find pre-wrap tags beyond this array's end.
			for _, shs := range m.shards {
				for _, sh := range shs {
					recs := sh.recs[:cap(sh.recs)]
					parallelDo(m.procs, len(recs), func(lo, hi int) {
						rs := recs[lo:hi]
						for i := range rs {
							rs[i].epoch = 0
						}
					})
					for b := range sh.blk {
						sh.blk[b].tag = 0
					}
				}
			}
			m.epoch = 1
		}
		m.obsM.EpochReset()
	}
	for _, dj := range m.dirty {
		for k := range dj {
			dj[k] = dj[k][:0]
		}
	}
	for _, shs := range m.shards {
		for _, sh := range shs {
			sh.blocks = sh.blocks[:0]
		}
	}
	m.mergedOK.Store(false)
	m.stamped = 0
}

// Checkpoint snapshots every tracked array (the overhead Tb of the cost
// model), splitting the copy across the Memory's workers.  Calling it
// again discards the previous snapshot, reusing its buffers — so the
// re-baselining a partial commit performs every recovery round pays
// only the copy, not an allocation.
func (m *Memory) Checkpoint() {
	ts := obs.Start(m.obsT)
	reuse := len(m.checkpoints) == len(m.arrays)
	if !reuse {
		m.checkpoints = m.checkpoints[:0]
	}
	words, maxWorkers := 0, 1
	for ai, a := range m.arrays {
		var cp *mem.Array
		if reuse && m.checkpoints[ai].Len() == a.Len() {
			cp = m.checkpoints[ai]
		} else {
			cp = &mem.Array{Name: a.Name, Data: arena.Float64s(a.Len())}
			if reuse {
				arena.PutFloat64s(m.checkpoints[ai].Data)
				m.checkpoints[ai] = cp
			}
		}
		src := a.Data
		w := parallelDo(m.procs, len(src), func(lo, hi int) {
			copy(cp.Data[lo:hi], src[lo:hi])
		})
		if w > maxWorkers {
			maxWorkers = w
		}
		if !reuse {
			m.checkpoints = append(m.checkpoints, cp)
		}
		words += a.Len()
	}
	m.resetStamps()
	m.cpValid = true
	m.obsM.CheckpointDone(words)
	if maxWorkers > 1 {
		m.obsM.ParallelCopy(maxWorkers)
	}
	if m.obsT != nil {
		obs.Span(m.obsT, ts, "checkpoint", "tsmem", 0, map[string]any{"words": words, "workers": maxWorkers})
	}
}

// WriteSet returns, per tracked array in registration order, the
// deduplicated locations written through the Tracker since the last
// stamp reset.  Call it after the parallel section (it merges the
// shards) and before the next reset.  The returned slices are the
// Memory's, rebuilt in place by the next WriteSet: a caller that needs
// a write-set beyond that copies it.  Together with Rearm it closes the
// incremental checkpoint loop: the write-set of strip k is exactly what
// the next strip's checkpoint must refresh.
func (m *Memory) WriteSet() [][]int {
	m.mergeStamps()
	if m.writeSet == nil {
		m.writeSet = make([][]int, len(m.arrays))
	}
	for ai, a := range m.arrays {
		// Grow through the arena, to the exact size: a buffer that
		// append had grown would go back to a size class the next
		// run's first (shorter) strip never asks for.
		need := len(m.touchedIdx[a])
		if m.packed {
			need = m.packedWriteSetLen(a)
		}
		ws := m.writeSet[ai]
		if cap(ws) < need {
			arena.PutInts(ws)
			ws = arena.Ints(need)
		}
		if m.packed {
			ws = m.appendPackedWriteSet(ws[:0], a)
		} else {
			ws = append(ws[:0], m.touchedIdx[a]...)
		}
		m.writeSet[ai] = ws
	}
	return m.writeSet
}

// Rearm re-arms the Memory for the next strip: where Checkpoint copies
// every tracked word, Rearm refreshes only the pending locations —
// the union of write-sets taken since the checkpoint last mirrored the
// arrays — and then resets the stamps.  pending is indexed like the
// arrays passed at construction (WriteSet's shape).
//
// Correctness: the held checkpoint equals the array state except at
// locations written through the Tracker since it was (re)armed.  An
// engine that hands Rearm exactly those locations maintains the
// invariant; any write that bypassed the Tracker (sequential fallback,
// caller mutation) breaks it, and the engine must call
// InvalidateCheckpoint so the next Rearm degrades to a full
// Checkpoint.  Rearm also degrades on its own whenever the incremental
// premise fails: no valid checkpoint, nil or mis-shaped pending, or a
// stamp threshold (stores below it are neither stamped nor journaled,
// so write-sets are incomplete).
func (m *Memory) Rearm(pending [][]int) {
	if !m.cpValid || pending == nil || len(pending) != len(m.arrays) ||
		m.threshold > 0 || len(m.checkpoints) != len(m.arrays) {
		m.Checkpoint()
		return
	}
	for ai, a := range m.arrays {
		if m.checkpoints[ai].Len() != a.Len() {
			m.Checkpoint()
			return
		}
	}
	ts := obs.Start(m.obsT)
	words := 0
	for ai, a := range m.arrays {
		cp := m.checkpoints[ai].Data
		src := a.Data
		for _, idx := range pending[ai] {
			cp[idx] = src[idx]
		}
		words += len(pending[ai])
	}
	m.resetStamps()
	m.obsM.DeltaCheckpointDone(words)
	if m.obsT != nil {
		obs.Span(m.obsT, ts, "rearm", "tsmem", 0, map[string]any{"words": words})
	}
}

// InvalidateCheckpoint marks the held checkpoint stale: the next Rearm
// performs a full Checkpoint regardless of pending.  Engines call it
// after any write that bypassed the Tracker — a sequential fallback
// re-executing a strip, a caller mutating the arrays between strips —
// because such writes are invisible to the write-set journals.
func (m *Memory) InvalidateCheckpoint() { m.cpValid = false }

// SetStampThreshold enables Section 8.1's statistics-enhanced stamping:
// stores by iterations with index < n are not stamped.  Must be set
// before the parallel execution.  n <= 0 stamps everything.
func (m *Memory) SetStampThreshold(n int) { m.threshold = n }

// Tracker returns the mem.Tracker that the speculative DOALL's
// iterations must use: loads pass through; stores record the writing
// iteration in the executing worker's private stamp shard (keeping the
// per-shard minimum; the cross-shard minimum is taken at the merge) and
// then perform the write.  The tracker also implements
// mem.RangeTracker, so strip-mined bodies pay one interposition per
// contiguous range.  The tracker is a thin shim over the concrete
// StampLoad/StampStore methods, which fused fast paths may call
// directly to skip the interface dispatch.
func (m *Memory) Tracker() mem.Tracker { return stampTracker{m} }

// slot folds a virtual processor number onto a shard index.
func (m *Memory) slot(vpn int) int {
	if vpn >= 0 && vpn < m.procs {
		return vpn
	}
	return ((vpn % m.procs) + m.procs) % m.procs
}

// StampLoad is the concrete load path: loads pass through untracked.
func (m *Memory) StampLoad(a *mem.Array, idx int) float64 { return loadData(&a.Data[idx]) }

// StampStore is the concrete store path (Tracker's Store without the
// interface dispatch): record the writing iteration in the worker's
// private shard — journaling the first touch per reset — then write.
func (m *Memory) StampStore(a *mem.Array, idx int, v float64, iter, vpn int) {
	k := m.slot(vpn)
	m.counts.count(k, 1, 0, 0, 0)
	if iter >= m.threshold {
		if vw := m.viewOf(a); vw != nil {
			if m.mergedOK.Load() {
				m.mergedOK.Store(false)
			}
			if m.packed {
				r, it := &vw.recs[k][idx], int64(iter)
				if r.epoch != m.epoch {
					// First touch of this epoch: one 16-byte record
					// write covers stamp, liveness tag and journaled
					// bit — a single shadow cache line — and the block's
					// journal state is a second.
					r.stamp = it
					r.epoch = m.epoch
					r.flags = recJournaled
					vw.shards[k].journal(m.epoch, idx>>blockShift, 1<<(uint(idx)&blockMask), it)
				} else if it < r.stamp {
					r.stamp = it
				}
				storeData(&a.Data[idx], v)
				return
			}
			s, ep := vw.stamps[k], vw.epochs[k]
			if ep[idx] != m.epoch {
				// Stale generation: whatever stamp is there belongs to
				// an earlier strip.  First touch of this epoch.
				ep[idx] = m.epoch
				s[idx] = int64(iter)
				vw.dirty[k] = append(vw.dirty[k], idx)
			} else if cur := s[idx]; cur == NoStamp {
				// Explicit mode's first touch: tags are pinned live, so
				// the refilled NoStamp word is the staleness signal.
				s[idx] = int64(iter)
				vw.dirty[k] = append(vw.dirty[k], idx)
			} else if int64(iter) < cur {
				s[idx] = int64(iter)
			}
		}
	}
	storeData(&a.Data[idx], v)
}

// StampLoadRange copies [lo, hi) of a into dst for worker vpn: loads
// pass through, one interposition for the whole strip.
func (m *Memory) StampLoadRange(a *mem.Array, lo, hi int, dst []float64, vpn int) {
	m.counts.count(m.slot(vpn), 0, 1, hi-lo, 0)
	loadDataRange(dst, a.Data[lo:hi])
}

// StampStoreRange performs len(src) stamped stores with a single
// interposition: the stamp updates hit the worker's private shard with
// plain writes, then the data is copied in one memmove.
func (m *Memory) StampStoreRange(a *mem.Array, lo int, src []float64, iter, vpn int) {
	n, k := len(src), m.slot(vpn)
	m.counts.count(k, n, 1, n, 0)
	if iter >= m.threshold {
		if vw := m.viewOf(a); vw != nil {
			if m.mergedOK.Load() {
				m.mergedOK.Store(false)
			}
			if m.packed {
				rs := vw.recs[k]
				it64 := int64(iter)
				for i := lo; i < lo+n; i++ {
					r := &rs[i]
					if r.epoch != m.epoch {
						r.stamp = it64
						r.epoch = m.epoch
						r.flags = recJournaled
					} else if it64 < r.stamp {
						r.stamp = it64
					}
				}
				// Journal whole blocks in O(blocks): one epoch-tagged
				// bitmap OR per 64-element block, with partial masks at
				// the range's edges.
				sh := vw.shards[k]
				firstB, lastB := lo>>blockShift, (lo+n-1)>>blockShift
				for b := firstB; b <= lastB; b++ {
					s := 0
					if b == firstB {
						s = lo & blockMask
					}
					e := blockSize
					if b == lastB {
						e = (lo+n-1)&blockMask + 1
					}
					// e-s == 64 wraps 1<<64 to 0, and 0-1 to all-ones:
					// exactly the full-block mask.
					sh.journal(m.epoch, b, ((uint64(1)<<uint(e-s))-1)<<uint(s), it64)
				}
				storeDataRange(a.Data[lo:lo+n], src)
				return
			}
			s, ep := vw.stamps[k], vw.epochs[k]
			djk := vw.dirty[k]
			it64 := int64(iter)
			for i := lo; i < lo+n; i++ {
				if ep[i] != m.epoch {
					ep[i] = m.epoch
					s[i] = it64
					djk = append(djk, i)
				} else if cur := s[i]; cur == NoStamp {
					s[i] = it64
					djk = append(djk, i)
				} else if it64 < cur {
					s[i] = it64
				}
			}
			vw.dirty[k] = djk
		}
	}
	storeDataRange(a.Data[lo:lo+n], src)
}

type stampTracker struct{ m *Memory }

func (t stampTracker) Load(a *mem.Array, idx, _, _ int) float64 { return t.m.StampLoad(a, idx) }

func (t stampTracker) Store(a *mem.Array, idx int, v float64, iter, vpn int) {
	t.m.StampStore(a, idx, v, iter, vpn)
}

// LoadRange copies [lo, hi) of a into dst: loads pass through, one
// interposition for the whole strip.
func (t stampTracker) LoadRange(a *mem.Array, lo, hi int, dst []float64, _, vpn int) {
	t.m.StampLoadRange(a, lo, hi, dst, vpn)
}

// StoreRange performs len(src) stamped stores with a single
// interposition.
func (t stampTracker) StoreRange(a *mem.Array, lo int, src []float64, iter, vpn int) {
	t.m.StampStoreRange(a, lo, src, iter, vpn)
}

// mergeStamps combines the per-worker shards' journals into the
// deduplicated touched set — and, in the element layout, the shards'
// stamps into the authoritative per-location minimum.  It must be
// called only after the parallel section has completed (the DOALL
// barrier orders the shard writes before it); Undo, WriteSet and Stats
// call it lazily.  The merge visits only journaled locations — the
// union of the per-shard dirty lists, deduplicated against a
// generation-tagged scratch — so its cost is O(writes x procs), not
// O(n x procs); large worklists split across the Memory's workers.
// (The packed layout's merge is per journaled block: mergePacked.)
func (m *Memory) mergeStamps() {
	m.counts.flush(m.obsM)
	if m.mergedOK.Load() {
		return
	}
	if m.packed {
		m.mergePacked()
		return
	}
	m.mgGen++
	if m.mgGen == 0 {
		for _, sn := range m.mgSeen {
			for i := range sn {
				sn[i] = 0
			}
		}
		m.mgGen = 1
	}
	words, stamped := 0, 0
	for _, a := range m.arrays {
		sh := m.stamps[a]
		eps := m.epochs[a]
		n := a.Len()
		mg := m.merged[a]
		if len(mg) != n {
			arena.PutInt64s(mg)
			mg = arena.Int64s(n)
			m.merged[a] = mg
		}
		sn := m.mgSeen[a]
		list := m.touchedIdx[a][:0]
		for _, d := range m.dirty[a] {
			for _, idx := range d {
				if sn[idx] != m.mgGen {
					sn[idx] = m.mgGen
					list = append(list, idx)
				}
			}
		}
		m.touchedIdx[a] = list
		words += len(list)
		var mu sync.Mutex
		parallelDo(m.procs, len(list), func(lo, hi int) {
			count := 0
			for _, i := range list[lo:hi] {
				min := NoStamp
				for k := 0; k < m.procs; k++ {
					if eps[k][i] != m.epoch {
						// Stale tag: a stamp from an earlier strip that
						// the O(1) reset never swept.  Not a write.
						continue
					}
					if st := sh[k][i]; st != NoStamp && (min == NoStamp || st < min) {
						min = st
					}
				}
				mg[i] = min
				if min != NoStamp {
					count++
				}
			}
			mu.Lock()
			stamped += count
			mu.Unlock()
		})
	}
	m.stamped = stamped
	m.mergedOK.Store(true)
	m.obsM.StampedStoresAdd(stamped)
	m.obsM.ShardMergeDone(m.procs, words)
}

// Undo restores, from the checkpoint, every location whose stamp exceeds
// lastValid (i.e. written only by overshot iterations), completing the
// "undo iterations that overshot" step.  The scan visits only journaled
// locations and is parallelized across the Memory's workers when large.
// It returns the number of locations restored.  It fails if Checkpoint
// was not called, or if lastValid falls below the stamp threshold — in
// that case the stamps needed to undo were never recorded and the caller
// must restore the full checkpoint (RestoreAll) and re-execute.
func (m *Memory) Undo(lastValid int) (int, error) {
	if len(m.checkpoints) != len(m.arrays) {
		return 0, fmt.Errorf("tsmem: Undo without Checkpoint")
	}
	if lastValid < m.threshold {
		return 0, fmt.Errorf("tsmem: last valid iteration %d below stamp threshold %d; stamps missing", lastValid, m.threshold)
	}
	ts := obs.Start(m.obsT)
	// Stamps are zero-based iteration indices; iterations
	// 0..lastValid-1 are valid, so any stamp >= lastValid is overshoot.
	restored := m.restoreAbove(int64(lastValid))
	m.obsM.UndoneAdd(restored)
	if m.obsT != nil {
		obs.Span(m.obsT, ts, "undo", "tsmem", 0, map[string]any{"restored": restored, "lastValid": lastValid})
	}
	return restored, nil
}

// restoreAbove merges the shards and restores from the checkpoint every
// journaled location whose minimum stamp is >= bound — the rewind Undo
// and PartialCommit share — and returns how many.
func (m *Memory) restoreAbove(bound int64) int {
	m.mergeStamps()
	if m.packed {
		return m.packedRestoreAbove(bound)
	}
	restored := 0
	for ai, a := range m.arrays {
		cp := m.checkpoints[ai]
		mg := m.merged[a]
		list := m.touchedIdx[a]
		var mu sync.Mutex
		parallelDo(m.procs, len(list), func(lo, hi int) {
			count := 0
			for _, i := range list[lo:hi] {
				if st := mg[i]; st != NoStamp && st >= bound {
					a.Data[i] = cp.Data[i]
					count++
				}
			}
			mu.Lock()
			restored += count
			mu.Unlock()
		})
	}
	return restored
}

// PartialCommit keeps the work of iterations below upto and rewinds the
// rest: every location whose (minimum) write stamp is >= upto is
// restored from the checkpoint, and the Memory is then re-baselined —
// the surviving state becomes the new checkpoint and all stamps are
// cleared — so a following re-speculation round undoes only its own
// stores.  It returns the number of locations restored.
//
// Safety: with minimum stamps a location written by both a kept and an
// undone iteration cannot be selectively rewound, so upto must be
// chosen so that no location mixes writers across the boundary.  The PD
// test's Result.FirstViolation bound has exactly that property: every
// writer of every violating element is at or beyond it, and a location
// written on both sides of the boundary by *valid* iterations would
// itself be a violating element (output dependence).  Like Undo, it
// fails when no checkpoint exists or when upto falls below the stamp
// threshold (the stamps needed were never recorded).
func (m *Memory) PartialCommit(upto int) (int, error) {
	if len(m.checkpoints) != len(m.arrays) {
		return 0, fmt.Errorf("tsmem: PartialCommit without Checkpoint")
	}
	if upto < m.threshold {
		return 0, fmt.Errorf("tsmem: partial-commit bound %d below stamp threshold %d; stamps missing", upto, m.threshold)
	}
	ts := obs.Start(m.obsT)
	restored := m.restoreAbove(int64(upto))
	m.obsM.SuffixUndoneAdd(restored)
	if m.obsT != nil {
		obs.Span(m.obsT, ts, "partial-commit", "tsmem", 0, map[string]any{"restored": restored, "upto": upto})
	}
	// Re-baseline: the prefix's effects are now permanent; the next
	// round's rollback target is the state we just produced.  The
	// threshold is spent — the new round's stores must all be stamped.
	m.threshold = 0
	m.Checkpoint()
	return restored, nil
}

// RestoreAll rewinds every tracked array to its checkpoint (used when a
// PD test fails, or when an exception abandons the parallel execution),
// splitting the copy across the Memory's workers.
func (m *Memory) RestoreAll() error {
	if len(m.checkpoints) != len(m.arrays) {
		return fmt.Errorf("tsmem: RestoreAll without Checkpoint")
	}
	ts := obs.Start(m.obsT)
	maxWorkers := 1
	for ai, a := range m.arrays {
		cp := m.checkpoints[ai]
		dst := a.Data
		w := parallelDo(m.procs, len(dst), func(lo, hi int) {
			copy(dst[lo:hi], cp.Data[lo:hi])
		})
		if w > maxWorkers {
			maxWorkers = w
		}
	}
	m.obsM.RestoreDone()
	if maxWorkers > 1 {
		m.obsM.ParallelCopy(maxWorkers)
	}
	if m.obsT != nil {
		obs.Span(m.obsT, ts, "restore-all", "tsmem", 0, map[string]any{"workers": maxWorkers})
	}
	return nil
}

// Commit discards checkpoints and stamps after a fully valid execution.
func (m *Memory) Commit() {
	for _, cp := range m.checkpoints {
		arena.PutFloat64s(cp.Data)
	}
	m.checkpoints = nil
	m.cpValid = false
	m.resetStamps()
}

// Stamp returns the stamp recorded for a location (NoStamp if unwritten
// or below the threshold): the minimum over the per-worker shards, so
// it must only be called after the parallel section completes.
func (m *Memory) Stamp(a *mem.Array, idx int) int64 {
	if m.packed {
		// On demand, from the shards that journaled the location: an
		// unset bit (or a stale block) is a shard that never wrote it.
		b, bit := idx>>blockShift, uint64(1)<<(uint(idx)&blockMask)
		min := NoStamp
		for _, sh := range m.shards[a] {
			if bl := &sh.blk[b]; bl.tag == m.epoch && bl.bits&bit != 0 {
				if st := sh.recs[idx].stamp; min == NoStamp || st < min {
					min = st
				}
			}
		}
		return min
	}
	if _, ok := m.stamps[a]; !ok {
		return NoStamp
	}
	m.mergeStamps()
	if m.mgSeen[a][idx] != m.mgGen {
		// Never journaled since the last reset: unwritten.
		return NoStamp
	}
	return m.merged[a][idx]
}

// Stats reports the scheme's memory footprint in words: live data,
// checkpoint copies, and stamps — the "as much as three times the actual
// memory" of Section 4, where the stamp term is now procs shards wide —
// plus how many distinct locations were stamped.  Call it after the
// parallel section (it merges the shards).
func (m *Memory) Stats() (dataWords, checkpointWords, stampWords, stampedStores int) {
	for _, a := range m.arrays {
		dataWords += a.Len()
		stampWords += a.Len() * m.procs
	}
	for _, c := range m.checkpoints {
		checkpointWords += c.Len()
	}
	m.mergeStamps()
	return dataWords, checkpointWords, stampWords, m.stamped
}

// TrailEntry is one logged write to a live privatized array.
type TrailEntry struct {
	Iter int
	Idx  int
	Val  float64
}

// Trail is the time-stamped log of all writes to a privatized array that
// is live after the loop (Section 5.1).  Each virtual processor appends
// to its own buffer, so recording is contention-free; LastValues merges.
type Trail struct {
	mu   sync.Mutex
	byVP map[int][]TrailEntry
}

// NewTrail returns an empty trail.
func NewTrail() *Trail { return &Trail{byVP: make(map[int][]TrailEntry)} }

// Record logs a write by iteration iter on processor vpn.
func (t *Trail) Record(vpn, iter, idx int, val float64) {
	t.mu.Lock()
	t.byVP[vpn] = append(t.byVP[vpn], TrailEntry{Iter: iter, Idx: idx, Val: val})
	t.mu.Unlock()
}

// Len returns the total number of logged writes.
func (t *Trail) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, es := range t.byVP {
		n += len(es)
	}
	return n
}

// LastValues returns, for every written location, the value carrying the
// largest stamp that does not exceed lastValid-1 — the value the
// sequential loop would have left there.  Locations written only by
// overshot iterations are absent from the result.
func (t *Trail) LastValues(lastValid int) map[int]float64 {
	t.mu.Lock()
	var all []TrailEntry
	for _, es := range t.byVP {
		all = append(all, es...)
	}
	t.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Idx != all[j].Idx {
			return all[i].Idx < all[j].Idx
		}
		return all[i].Iter < all[j].Iter
	})
	out := make(map[int]float64)
	for _, e := range all {
		if e.Iter < lastValid {
			out[e.Idx] = e.Val // sorted ascending by iter: last write wins
		}
	}
	return out
}
