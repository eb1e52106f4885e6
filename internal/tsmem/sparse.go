package tsmem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"whilepar/internal/mem"
	"whilepar/internal/obs"
)

// SparseMemory is the hash-table variant of the undo scheme suggested in
// Section 4 for arrays with sparse access patterns: instead of cloning
// whole arrays and keeping a stamp per element, it saves, on the first
// store to each location, the overwritten value together with the
// writing iteration.  Memory use is proportional to the number of
// *accessed* elements, not the array extent.
//
// Throughput: stamps are sharded per virtual processor — worker k keeps
// its minimum writing iteration per location in a private map with no
// locking, and the per-location minimum is taken only when Undo needs
// it, after the DOALL barrier.  Only the pre-loop value capture crosses
// workers: the first store to a location publishes the overwritten
// value through a lock-free first-touch (sync.Map.LoadOrStore).  That
// capture is correct because every write to a location is preceded (in
// its own goroutine) by a LoadOrStore on that location, so the
// temporally first LoadOrStore — the one that sticks — read the
// location before any tracked write could have modified it.
// Resets are epoch-tagged like the dense Memory's: every captured
// value and stamp carries the generation that recorded it and is live
// only while that generation is current, so the per-strip Reset is a
// single epoch bump instead of reallocating every map.  A stale entry
// is replaced in place on the next touch; the first-touch argument
// still holds because a loser of the replacement CAS performs its data
// write only after its failed CAS, which is after the winner's read.
type SparseMemory struct {
	procs int
	// old maps sparseKey -> sparseOld: the location's value before the
	// current epoch's first write.  First LoadOrStore (or first stale-
	// entry CAS) of the epoch wins.
	old *sync.Map
	// stamps[k] is worker k's private minimum-iteration map.
	stamps []map[sparseKey]sparseStamp
	// touchedKeys[k] journals the locations whose pre-value capture
	// worker k won this epoch — the sparse analogue of the dense
	// layout's first-touch journals.  Exactly one worker wins each
	// location's capture per epoch (the LoadOrStore/CAS winner), so
	// the union of the journals is a duplicate-free list of this
	// epoch's captured set, and rewind can walk it directly instead of
	// ranging over every entry the map has accumulated across all
	// epochs.  Single-writer per slot, truncated on Reset.
	touchedKeys [][]sparseKey
	touched     atomic.Int64 // distinct locations captured this epoch
	// epoch is the current generation; entries tagged with an older
	// one are stale and treated as absent.  uint64, so no wrap
	// handling is needed (unlike the dense tags, sized per element).
	epoch uint64
	// explicit disables epoch tagging: Reset reallocates the maps (the
	// pre-epoch scheme), kept as the equivalence oracle.
	explicit bool

	// Optional observability hooks (nil-safe).
	obsM   *obs.Metrics
	obsT   obs.Tracer
	counts workerCounts
}

// sparseOld is one captured pre-loop value, tagged with its epoch.
type sparseOld struct {
	ep  uint64
	val float64
}

// sparseStamp is one worker's minimum writing iteration, tagged with
// its epoch.
type sparseStamp struct {
	ep   uint64
	iter int64
}

// SetObs attaches observability hooks: m accumulates tracked/stamped
// store counts and undo/restore counts; t receives undo events.
// Per-access counts reach m at the next Undo, RestoreAll or Reset.
func (s *SparseMemory) SetObs(mx *obs.Metrics, t obs.Tracer) {
	s.obsM, s.obsT, s.counts = mx, t, newWorkerCounts(mx, s.procs)
}

type sparseKey struct {
	arr *mem.Array
	idx int
}

// NewSparse returns an empty single-worker sparse undo log; parallel
// executions must size it with NewSparseSharded.
func NewSparse() *SparseMemory { return NewSparseSharded(1) }

// NewSparseSharded returns an empty sparse undo log whose stamp maps
// are sharded for procs virtual processors: worker k records its
// minimum writing iterations in its own single-writer map.
func NewSparseSharded(procs int) *SparseMemory {
	return newSparseSharded(procs, false)
}

// NewSparseShardedExplicit is NewSparseSharded with epoch tagging
// disabled: Reset reallocates every map instead of bumping the
// generation.  Retained as the equivalence oracle for the O(1) reset.
func NewSparseShardedExplicit(procs int) *SparseMemory {
	return newSparseSharded(procs, true)
}

func newSparseSharded(procs int, explicit bool) *SparseMemory {
	if procs < 1 {
		procs = 1
	}
	s := &SparseMemory{procs: procs, explicit: explicit, epoch: 1, old: &sync.Map{}}
	s.stamps = make([]map[sparseKey]sparseStamp, procs)
	for k := range s.stamps {
		s.stamps[k] = make(map[sparseKey]sparseStamp)
	}
	if !explicit {
		s.touchedKeys = make([][]sparseKey, procs)
	}
	return s
}

// slot folds a virtual processor number onto a stamp-map index.
func (s *SparseMemory) slot(vpn int) int {
	if vpn >= 0 && vpn < s.procs {
		return vpn
	}
	return ((vpn % s.procs) + s.procs) % s.procs
}

// Tracker returns the mem.Tracker the speculative DOALL uses: stores
// save the overwritten value on first touch and keep the minimum writing
// iteration in the worker's private map; loads pass through.  The
// tracker also implements mem.RangeTracker for batched strips.
func (s *SparseMemory) Tracker() mem.Tracker { return sparseTracker{s} }

type sparseTracker struct{ s *SparseMemory }

func (t sparseTracker) Load(a *mem.Array, idx, _, _ int) float64 { return loadData(&a.Data[idx]) }

func (t sparseTracker) Store(a *mem.Array, idx int, v float64, iter, vpn int) {
	t.s.store(a, idx, v, iter, vpn)
}

func (s *SparseMemory) store(a *mem.Array, idx int, v float64, iter, vpn int) {
	k := sparseKey{a, idx}
	kslot := s.slot(vpn)
	s.counts.count(kslot, 1, 0, 0, 0)
	// Capture the pre-loop value: the read must precede the LoadOrStore
	// (see the type comment for why the first-touch winner is sound).
	cur := loadData(&a.Data[idx])
	entry := sparseOld{ep: s.epoch, val: cur}
	if prev, loaded := s.old.LoadOrStore(k, entry); !loaded {
		s.captured(kslot, k)
	} else if prev.(sparseOld).ep != s.epoch {
		// Stale capture from an earlier strip: replace it in place.
		// CAS so the temporally first replacer of THIS epoch wins —
		// any loser writes its data only after its CAS fails, i.e.
		// after the winner's pre-value read, so the winner's capture
		// predates every tracked write of the epoch.
		if s.old.CompareAndSwap(k, prev, entry) {
			s.captured(kslot, k)
		}
	}
	st := s.stamps[kslot]
	if prev, ok := st[k]; !ok || prev.ep != s.epoch || int64(iter) < prev.iter {
		st[k] = sparseStamp{ep: s.epoch, iter: int64(iter)}
	}
	storeData(&a.Data[idx], v)
}

// captured records one won pre-value capture: the winning worker
// journals the key (its slot is single-writer, so no locking) and the
// shared touched counter moves.
func (s *SparseMemory) captured(kslot int, k sparseKey) {
	if s.touchedKeys != nil {
		s.touchedKeys[kslot] = append(s.touchedKeys[kslot], k)
	}
	s.touched.Add(1)
	s.counts.count(kslot, 0, 0, 0, 1)
}

// LoadRange copies [lo, hi) of a into dst with one interposition.
func (t sparseTracker) LoadRange(a *mem.Array, lo, hi int, dst []float64, _, vpn int) {
	t.s.counts.count(t.s.slot(vpn), 0, 1, hi-lo, 0)
	loadDataRange(dst, a.Data[lo:hi])
}

// StoreRange performs len(src) tracked stores with one interposition.
func (t sparseTracker) StoreRange(a *mem.Array, lo int, src []float64, iter, vpn int) {
	t.s.counts.count(t.s.slot(vpn), 0, 1, len(src), 0)
	for k, v := range src {
		t.s.store(a, lo+k, v, iter, vpn)
	}
}

// minStamp merges the per-worker maps for one location.  Call only
// after the parallel section's barrier.
func (s *SparseMemory) minStamp(k sparseKey) int64 {
	min := NoStamp
	for _, st := range s.stamps {
		if v, ok := st[k]; ok && v.ep == s.epoch && (min == NoStamp || v.iter < min) {
			min = v.iter
		}
	}
	return min
}

// Undo restores every location first written by an iteration >= valid
// (where iterations 0..valid-1 are the valid ones) and returns how many
// locations it restored.  It merges the per-worker stamp maps, so it
// must only run after the parallel section completes.
func (s *SparseMemory) Undo(valid int) int {
	ts := obs.Start(s.obsT)
	restored := s.rewind(valid)
	s.obsM.UndoneAdd(restored)
	if s.obsT != nil {
		obs.Span(s.obsT, ts, "undo", "tsmem", 0, map[string]any{"restored": restored, "lastValid": valid})
	}
	return restored
}

func (s *SparseMemory) rewind(valid int) int {
	s.counts.flush(s.obsM)
	restored := 0
	if s.touchedKeys != nil {
		// Epoch mode: the capture journals list exactly this epoch's
		// touched set (duplicate-free — one winner per key), so the
		// rewind is O(touched this epoch), not O(all entries the map
		// has accumulated across strips).
		for _, keys := range s.touchedKeys {
			for _, k := range keys {
				val, ok := s.old.Load(k)
				if !ok {
					continue
				}
				po := val.(sparseOld)
				if po.ep != s.epoch {
					continue
				}
				if st := s.minStamp(k); st != NoStamp && st >= int64(valid) {
					k.arr.Data[k.idx] = po.val
					restored++
				}
			}
		}
	} else {
		// Explicit oracle: maps are reallocated per Reset, so every
		// entry is current and a full Range is the touched set.
		s.old.Range(func(key, val any) bool {
			po := val.(sparseOld)
			if po.ep != s.epoch {
				return true // stale capture from a reset-away strip
			}
			k := key.(sparseKey)
			if st := s.minStamp(k); st != NoStamp && st >= int64(valid) {
				k.arr.Data[k.idx] = po.val
				restored++
			}
			return true
		})
	}
	if s.procs > 1 {
		s.obsM.ShardMergeDone(s.procs, int(s.touched.Load()))
	}
	return restored
}

// RestoreAll rewinds every touched location to its pre-loop value (an
// abort's rewind, accounted as a restore rather than an overshoot
// undo).
func (s *SparseMemory) RestoreAll() int {
	ts := obs.Start(s.obsT)
	restored := s.rewind(0)
	s.obsM.RestoreDone()
	if s.obsT != nil {
		obs.Span(s.obsT, ts, "restore-all", "tsmem", 0, map[string]any{"restored": restored})
	}
	return restored
}

// Touched returns how many distinct locations the loop wrote — the
// sparse scheme's memory footprint in entries.
func (s *SparseMemory) Touched() int { return int(s.touched.Load()) }

// Stamp returns the merged minimum stamp recorded for a location, or
// NoStamp if the loop never wrote it.  Call only after the parallel
// section completes.
func (s *SparseMemory) Stamp(a *mem.Array, idx int) int64 {
	return s.minStamp(sparseKey{a, idx})
}

// Reset clears the log for reuse across strips.  Must not run
// concurrently with tracked stores.  With epoch tagging (the default)
// it is a single generation bump: stale entries stay allocated and are
// replaced in place when their location is touched again, so a loop
// that revisits the same sparse working set per strip pays no
// reallocation at all.  In explicit mode it reallocates every map.
func (s *SparseMemory) Reset() {
	s.counts.flush(s.obsM)
	if s.explicit {
		s.old = &sync.Map{}
		for k := range s.stamps {
			s.stamps[k] = make(map[sparseKey]sparseStamp)
		}
		s.touched.Store(0)
		return
	}
	s.epoch++
	for k := range s.touchedKeys {
		s.touchedKeys[k] = s.touchedKeys[k][:0]
	}
	s.touched.Store(0)
	s.obsM.EpochReset()
}

// String summarizes the log for diagnostics.
func (s *SparseMemory) String() string {
	return fmt.Sprintf("SparseMemory(%d touched)", s.Touched())
}
