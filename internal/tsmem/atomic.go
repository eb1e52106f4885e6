package tsmem

import (
	"fmt"
	"sync/atomic"

	"whilepar/internal/mem"
	"whilepar/internal/obs"
)

// AtomicMemory is the per-element CAS variant of the time-stamped
// memory: every stamped store contends on a shared atomic stamp word
// with a compare-and-swap loop keeping the minimum writing iteration.
// It is retained as the comparison baseline for the sharded fast path
// (Memory) — the bit-equivalence stress tests run both implementations
// over identical loops.  New code should use Memory/NewSharded.
type AtomicMemory struct {
	arrays      []*mem.Array
	checkpoints []*mem.Array
	stamps      map[*mem.Array][]atomic.Int64
	// threshold is the statistics-enhanced strip-mining cutoff n'_i of
	// Section 8.1: stores by iterations below it are NOT stamped.
	threshold int
	stamped   atomic.Int64 // stores that recorded a stamp

	// Optional observability hooks (nil-safe).
	obsM *obs.Metrics
	obsT obs.Tracer
}

// SetObs attaches observability hooks; either may be nil.  Must be set
// before the speculative execution begins.
func (m *AtomicMemory) SetObs(mx *obs.Metrics, t obs.Tracer) { m.obsM, m.obsT = mx, t }

// NewAtomic creates an AtomicMemory over the given arrays.  Checkpoint
// must be called before the speculative execution begins.
func NewAtomic(arrays ...*mem.Array) *AtomicMemory {
	m := &AtomicMemory{stamps: make(map[*mem.Array][]atomic.Int64, len(arrays))}
	for _, a := range arrays {
		m.arrays = append(m.arrays, a)
		m.stamps[a] = make([]atomic.Int64, a.Len())
	}
	m.resetStamps()
	return m
}

func (m *AtomicMemory) resetStamps() {
	for _, s := range m.stamps {
		for i := range s {
			s[i].Store(NoStamp)
		}
	}
	m.stamped.Store(0)
}

// Checkpoint snapshots every tracked array.  Calling it again discards
// the previous snapshot.
func (m *AtomicMemory) Checkpoint() {
	ts := obs.Start(m.obsT)
	m.checkpoints = m.checkpoints[:0]
	words := 0
	for _, a := range m.arrays {
		m.checkpoints = append(m.checkpoints, a.Clone())
		words += a.Len()
	}
	m.resetStamps()
	m.obsM.CheckpointDone(words)
	if m.obsT != nil {
		obs.Span(m.obsT, ts, "checkpoint", "tsmem", 0, map[string]any{"words": words})
	}
}

// SetStampThreshold enables Section 8.1's statistics-enhanced stamping:
// stores by iterations with index < n are not stamped.
func (m *AtomicMemory) SetStampThreshold(n int) { m.threshold = n }

// Tracker returns the mem.Tracker whose stores CAS the per-location
// minimum stamp before performing the write.
func (m *AtomicMemory) Tracker() mem.Tracker { return atomicTracker{m} }

type atomicTracker struct{ m *AtomicMemory }

func (t atomicTracker) Load(a *mem.Array, idx, _, _ int) float64 { return a.Data[idx] }

func (t atomicTracker) Store(a *mem.Array, idx int, v float64, iter, _ int) {
	t.m.obsM.TrackedStore()
	if iter >= t.m.threshold {
		if s := t.m.stamps[a]; s != nil {
			for {
				cur := s[idx].Load()
				if cur != NoStamp && cur <= int64(iter) {
					break
				}
				if s[idx].CompareAndSwap(cur, int64(iter)) {
					if cur == NoStamp {
						t.m.stamped.Add(1)
						t.m.obsM.StampedStore()
					}
					break
				}
			}
		}
	}
	a.Data[idx] = v
}

// Undo restores, from the checkpoint, every location whose stamp is at
// or beyond lastValid, returning the number of locations restored.
func (m *AtomicMemory) Undo(lastValid int) (int, error) {
	if len(m.checkpoints) != len(m.arrays) {
		return 0, fmt.Errorf("tsmem: Undo without Checkpoint")
	}
	if lastValid < m.threshold {
		return 0, fmt.Errorf("tsmem: last valid iteration %d below stamp threshold %d; stamps missing", lastValid, m.threshold)
	}
	ts := obs.Start(m.obsT)
	restored := 0
	for ai, a := range m.arrays {
		cp := m.checkpoints[ai]
		s := m.stamps[a]
		for i := range s {
			if st := s[i].Load(); st != NoStamp && st >= int64(lastValid) {
				a.Data[i] = cp.Data[i]
				restored++
			}
		}
	}
	m.obsM.UndoneAdd(restored)
	if m.obsT != nil {
		obs.Span(m.obsT, ts, "undo", "tsmem", 0, map[string]any{"restored": restored, "lastValid": lastValid})
	}
	return restored, nil
}

// RestoreAll rewinds every tracked array to its checkpoint.
func (m *AtomicMemory) RestoreAll() error {
	if len(m.checkpoints) != len(m.arrays) {
		return fmt.Errorf("tsmem: RestoreAll without Checkpoint")
	}
	ts := obs.Start(m.obsT)
	for ai, a := range m.arrays {
		copy(a.Data, m.checkpoints[ai].Data)
	}
	m.obsM.RestoreDone()
	if m.obsT != nil {
		obs.Span(m.obsT, ts, "restore-all", "tsmem", 0, nil)
	}
	return nil
}

// Commit discards checkpoints and stamps after a fully valid execution.
func (m *AtomicMemory) Commit() {
	m.checkpoints = nil
	m.resetStamps()
}

// Stamp returns the stamp recorded for a location (NoStamp if unwritten
// or below the threshold).
func (m *AtomicMemory) Stamp(a *mem.Array, idx int) int64 {
	s, ok := m.stamps[a]
	if !ok {
		return NoStamp
	}
	return s[idx].Load()
}

// Stats reports the scheme's memory footprint in words plus how many
// stores were stamped.
func (m *AtomicMemory) Stats() (dataWords, checkpointWords, stampWords, stampedStores int) {
	for _, a := range m.arrays {
		dataWords += a.Len()
		stampWords += a.Len()
	}
	for _, c := range m.checkpoints {
		checkpointWords += c.Len()
	}
	return dataWords, checkpointWords, stampWords, int(m.stamped.Load())
}
