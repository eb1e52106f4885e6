package tsmem

import (
	"fmt"
	"sync"
	"testing"

	"whilepar/internal/mem"
	"whilepar/internal/obs"
)

// The tracked-store, batched-range and sparse first-touch counts are
// kept per worker and reach the Metrics after the barrier.  Here
// workers make a known mix of element and range accesses — to tracked
// and untracked arrays, below and above a stamp threshold — and the
// Metrics must hold exactly what the test counted once the flush point
// has passed, in every layout and at every worker count.
func TestWorkerCountsFlushExactly(t *testing.T) {
	const span = 300 // locations per worker, disjoint across workers
	type layout struct {
		name string
		// build returns the tracker, the call that ends a round (a
		// flush point), and whether the layout honours thresholds.
		build func(procs int, mx *obs.Metrics, arrays ...*mem.Array) (trk mem.Tracker, endRound, done func())
	}
	dense := func(ctor func(int, ...*mem.Array) *Memory, threshold int) func(int, *obs.Metrics, ...*mem.Array) (mem.Tracker, func(), func()) {
		return func(procs int, mx *obs.Metrics, arrays ...*mem.Array) (mem.Tracker, func(), func()) {
			m := ctor(procs, arrays...)
			m.SetObs(mx, nil)
			m.Checkpoint()
			m.SetStampThreshold(threshold)
			return m.Tracker(), func() { m.Rearm(m.WriteSet()) }, m.Release
		}
	}
	layouts := []layout{
		{"packed", dense(NewSharded, 0)},
		{"packed threshold", dense(NewSharded, span/2)},
		{"element", dense(NewShardedElement, 0)},
		{"element threshold", dense(NewShardedElement, span/2)},
		{"sparse", func(procs int, mx *obs.Metrics, _ ...*mem.Array) (mem.Tracker, func(), func()) {
			s := NewSparseSharded(procs)
			s.SetObs(mx, nil)
			return s.Tracker(), s.Reset, func() { s.Undo(0) }
		}},
	}
	for _, l := range layouts {
		for procs := 1; procs <= 4; procs++ {
			name := fmt.Sprintf("%s/p=%d", l.name, procs)
			tracked := mem.NewArray("tracked", procs*span)
			untracked := mem.NewArray("untracked", procs*span)
			mx := obs.NewMetrics()
			trk, endRound, done := l.build(procs, mx, tracked)
			rtrk := trk.(mem.RangeTracker)

			var want struct{ stores, ranges, elems int64 }
			// Worker k owns [k*span, (k+1)*span) of both arrays: single
			// stores to even offsets of the tracked array and odd ones
			// of the untracked, then a load range and a store range over
			// its block's last quarter.
			perWorker := func(vpn int) {
				lo := vpn * span
				for i := 0; i < span/2; i++ {
					trk.Store(tracked, lo+2*i, 1, i, vpn)
					trk.Store(untracked, lo+2*i+1, 1, i, vpn)
				}
				buf := make([]float64, span/4)
				rtrk.LoadRange(tracked, lo+span-span/4, lo+span, buf, span-1, vpn)
				rtrk.StoreRange(tracked, lo+span-span/4, buf, span-1, vpn)
			}
			want.stores = int64(procs * (span + span/4))
			want.ranges = int64(procs * 2)
			want.elems = int64(procs * 2 * (span / 4))

			for round := int64(1); round <= 2; round++ {
				var wg sync.WaitGroup
				wg.Add(procs)
				for k := 0; k < procs; k++ {
					go func(vpn int) {
						defer wg.Done()
						perWorker(vpn)
					}(k)
				}
				wg.Wait()
				if round == 1 {
					endRound()
				} else {
					done()
				}
				s := mx.Snapshot()
				if s.TrackedStores != round*want.stores || s.BatchedRanges != round*want.ranges ||
					s.BatchedElems != round*want.elems {
					t.Fatalf("%s round %d: stores %d, ranges %d (%d elems); want %d, %d (%d)", name, round,
						s.TrackedStores, s.BatchedRanges, s.BatchedElems,
						round*want.stores, round*want.ranges, round*want.elems)
				}
				if l.name == "sparse" {
					// Every location written this round, tracked or not,
					// takes one first-touch capture.
					if wantStamped := round * int64(procs*(span+span/4-span/8)); s.StampedStores != wantStamped {
						t.Fatalf("%s round %d: StampedStores = %d, want %d", name, round, s.StampedStores, wantStamped)
					}
				}
			}
		}
	}
}

// With no Metrics attached nothing is counted and nothing is kept.
func TestWorkerCountsAbsentWithoutMetrics(t *testing.T) {
	a := mem.NewArray("A", 64)
	m := NewSharded(2, a)
	defer m.Release()
	m.SetObs(nil, nil)
	s := NewSparseSharded(2)
	s.SetObs(nil, nil)
	if m.counts != nil || s.counts != nil {
		t.Fatal("per-worker counts allocated with no Metrics")
	}
	m.Tracker().Store(a, 3, 1, 0, 1)
	s.Tracker().Store(a, 4, 1, 0, 1)
}
