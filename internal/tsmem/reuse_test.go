package tsmem

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"whilepar/internal/mem"
	"whilepar/internal/sched"
)

// A packed shard that comes out of the pool carries the stamps and
// block tags of its last Memory, written under whatever epochs that
// Memory went through, possibly for a longer or shorter array.  None of
// it may show: a Memory on pooled shards must stamp, journal and undo
// exactly as the element-journal oracle (whose tags are zeroed per
// construction) and the per-element CAS baseline do — through a forced
// uint32 epoch wrap too.  Runs under -race in CI.

// jumpNearWrap moves the Memory's epoch to just below the uint32 wrap.
// Only forward: a pooled shard may already hold tags from up there.
func jumpNearWrap(m *Memory) {
	if m.epoch < math.MaxUint32-2 {
		m.epoch = math.MaxUint32 - 2
	}
}

func TestPooledShardsMatchElementAndAtomic(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	rounds := 80
	if testing.Short() {
		rounds = 25
	}
	reused := 0
	for round := 0; round < rounds; round++ {
		// Lengths that share size classes with earlier rounds'.
		n := 65 + rng.Intn(440)
		procs := 1 + rng.Intn(4)
		init := make([]float64, n)
		for i := range init {
			init[i] = rng.Float64()
		}
		aB := mem.FromSlice("A", append([]float64(nil), init...))
		aE := mem.FromSlice("A", append([]float64(nil), init...))
		aA := mem.FromSlice("A", append([]float64(nil), init...))
		blk, elt, at := NewSharded(procs, aB), NewShardedElement(procs, aE), NewAtomic(aA)
		for _, sh := range blk.shards[aB] {
			if sh.epoch > 0 {
				reused++
			}
		}
		if round%3 == 1 {
			jumpNearWrap(blk)
		}
		blk.Checkpoint()
		elt.Checkpoint()
		at.Checkpoint()
		trB, trE, trA := blk.Tracker(), elt.Tracker(), at.Tracker()

		for strip := 0; strip < 4; strip++ {
			// Concurrent phase: iteration i writes the unique location
			// perm[i] on whatever processor the DOALL hands it.
			perm := rng.Perm(n)
			for _, x := range []struct {
				tr mem.Tracker
				a  *mem.Array
			}{{trB, aB}, {trE, aE}, {trA, aA}} {
				x := x
				sched.DOALL(n, sched.Options{Procs: procs}, func(i, vpn int) sched.Control {
					if i%3 != 0 { // leave some locations unwritten
						x.tr.Store(x.a, perm[i], float64(i)+0.5, i, vpn)
					}
					return sched.Continue
				})
			}
			// Collisions: several iterations, on several processors, hit
			// the same locations.
			for k := 0; k < n/2; k++ {
				idx, iter, vpn, v := rng.Intn(n), rng.Intn(n), rng.Intn(procs), rng.Float64()
				trB.Store(aB, idx, v, iter, vpn)
				trE.Store(aE, idx, v, iter, vpn)
				trA.Store(aA, idx, v, iter, vpn)
			}

			for idx := 0; idx < n; idx++ {
				sb, se, sa := blk.Stamp(aB, idx), elt.Stamp(aE, idx), at.Stamp(aA, idx)
				if sb != se || sb != sa {
					t.Fatalf("round %d strip %d (n=%d procs=%d): stamp[%d] pooled block=%d element=%d atomic=%d",
						round, strip, n, procs, idx, sb, se, sa)
				}
			}
			wsB, wsE := append([]int(nil), blk.WriteSet()[0]...), append([]int(nil), elt.WriteSet()[0]...)
			sort.Ints(wsB)
			sort.Ints(wsE)
			if len(wsB) != len(wsE) {
				t.Fatalf("round %d strip %d: write-set sizes pooled block=%d element=%d", round, strip, len(wsB), len(wsE))
			}
			for i := range wsB {
				if wsB[i] != wsE[i] {
					t.Fatalf("round %d strip %d: write-sets differ at %d: %d vs %d", round, strip, i, wsB[i], wsE[i])
				}
			}

			lastValid := rng.Intn(n + 1)
			uB, errB := blk.Undo(lastValid)
			uE, errE := elt.Undo(lastValid)
			uA, errA := at.Undo(lastValid)
			if errB != nil || errE != nil || errA != nil {
				t.Fatalf("round %d strip %d: undo errors %v %v %v", round, strip, errB, errE, errA)
			}
			if uB != uE || uB != uA {
				t.Fatalf("round %d strip %d: undone pooled block=%d element=%d atomic=%d", round, strip, uB, uE, uA)
			}
			if !aB.Equal(aE) || !aB.Equal(aA) {
				t.Fatalf("round %d strip %d: arrays differ after undo to %d", round, strip, lastValid)
			}
			// Re-arm: an epoch bump each (three of them walk a jumped
			// Memory across the wrap).
			blk.Checkpoint()
			elt.Checkpoint()
			at.Checkpoint()
		}
		blk.Release()
		elt.Release()
	}
	if reused == 0 && !testing.Short() {
		t.Fatal("no round ever took a shard out of the pool: the test exercised nothing")
	}
}

// Concurrent Memories share the pool; none may see another's stamps.
func TestConcurrentMemoriesShareThePool(t *testing.T) {
	const goroutines, rounds = 16, 30
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < rounds; round++ {
				n := 70 + rng.Intn(180)
				a := mem.NewArray("A", n)
				m := NewSharded(2, a)
				m.Checkpoint()
				tr := m.Tracker()
				// Iteration i stores to location i, odd ones only.
				for i := 1; i < n; i += 2 {
					tr.Store(a, i, float64(i), i, i%2)
				}
				for i := 0; i < n; i++ {
					want := NoStamp
					if i%2 == 1 {
						want = int64(i)
					}
					if got := m.Stamp(a, i); got != want {
						t.Errorf("goroutine %d round %d: stamp[%d] = %d, want %d", g, round, i, got, want)
						break
					}
				}
				cut := rng.Intn(n)
				undone, err := m.Undo(cut)
				if want := (n - cut + cut%2) / 2; err != nil || undone != want {
					t.Errorf("goroutine %d round %d: undo to %d restored %d (err %v), want %d", g, round, cut, undone, err, want)
				}
				m.Release()
			}
		}(g)
	}
	wg.Wait()
}
