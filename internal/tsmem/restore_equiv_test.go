package tsmem

import (
	"math/rand"
	"testing"

	"whilepar/internal/mem"
)

// The packed layout keeps no merged stamp array: Undo and PartialCommit
// take each location's minimum from the shards as they go, and skip the
// records of a shard whose per-block stamp bound is below the cut.  The
// bound is the largest *first-touch* stamp, so these scripts re-stamp
// locations lower after their first touch — by the same worker and by
// others, around sub-threshold stores and StoreRange edges in the same
// blocks — and demand the element-journal oracle's and the CAS
// baseline's answers at every cut.  Runs under -race in CI.

// trio is the packed layout and its two oracles over equal arrays.
type trio struct {
	blk, elt   *Memory
	at         *AtomicMemory
	aB, aE, aA *mem.Array
}

func newTrio(procs int, init []float64) *trio {
	x := &trio{
		aB: mem.FromSlice("A", append([]float64(nil), init...)),
		aE: mem.FromSlice("A", append([]float64(nil), init...)),
		aA: mem.FromSlice("A", append([]float64(nil), init...)),
	}
	x.blk, x.elt, x.at = NewSharded(procs, x.aB), NewShardedElement(procs, x.aE), NewAtomic(x.aA)
	x.blk.Checkpoint()
	x.elt.Checkpoint()
	x.at.Checkpoint()
	return x
}

func (x *trio) threshold(th int) {
	x.blk.SetStampThreshold(th)
	x.elt.SetStampThreshold(th)
	x.at.SetStampThreshold(th)
}

func (x *trio) store(idx int, v float64, iter, vpn int) {
	x.blk.StampStore(x.aB, idx, v, iter, vpn)
	x.elt.StampStore(x.aE, idx, v, iter, vpn)
	x.at.Tracker().Store(x.aA, idx, v, iter, vpn)
}

func (x *trio) storeRange(lo int, src []float64, iter, vpn int) {
	journalTrioStoreRange(x.blk, x.elt, x.at, x.aB, x.aE, x.aA, lo, src, iter, vpn)
}

// same demands equal stamps, stamped counts and array contents.
func (x *trio) same(t *testing.T, when string) {
	t.Helper()
	for idx := 0; idx < x.aB.Len(); idx++ {
		if sb, se, sa := x.blk.Stamp(x.aB, idx), x.elt.Stamp(x.aE, idx), x.at.Stamp(x.aA, idx); sb != se || sb != sa {
			t.Fatalf("%s: stamp[%d] block=%d element=%d atomic=%d", when, idx, sb, se, sa)
		}
	}
	_, _, _, stB := x.blk.Stats()
	_, _, _, stE := x.elt.Stats()
	_, _, _, stA := x.at.Stats()
	if stB != stE || stB != stA {
		t.Fatalf("%s: stamped block=%d element=%d atomic=%d", when, stB, stE, stA)
	}
	if !x.aB.Equal(x.aE) || !x.aB.Equal(x.aA) {
		t.Fatalf("%s: arrays diverge", when)
	}
}

// undo demands equal Undo results at cut valid.
func (x *trio) undo(t *testing.T, when string, valid int) {
	t.Helper()
	uB, errB := x.blk.Undo(valid)
	uE, errE := x.elt.Undo(valid)
	uA, errA := x.at.Undo(valid)
	if (errB != nil) != (errE != nil) || (errB != nil) != (errA != nil) {
		t.Fatalf("%s: Undo(%d) errors diverge: %v / %v / %v", when, valid, errB, errE, errA)
	}
	if uB != uE || uB != uA {
		t.Fatalf("%s: Undo(%d) restored block=%d element=%d atomic=%d", when, valid, uB, uE, uA)
	}
	x.same(t, when)
}

// script stamps every block of an n-element array the ways that decide
// what the packed restore may skip; iterations run from th (everything
// at or above it is stamped) to n.
func (x *trio) script(rng *rand.Rand, n, procs, th int) {
	above := func() int { return th + rng.Intn(n-th) }
	// First touches, high: the bound of every block starts near n.
	for idx := 0; idx < n; idx++ {
		if rng.Intn(8) != 0 {
			x.store(idx, rng.Float64(), n-1-rng.Intn(1+n/8), rng.Intn(procs))
		}
	}
	// Lower re-stamps: the records drop, the bounds do not.  Whole
	// blocks on one worker (its bound now overstates every record), then
	// scattered ones from any worker, out-of-range vpns included.
	for b := 0; b+64 <= n; b += 64 {
		if rng.Intn(3) == 0 {
			vpn := rng.Intn(procs)
			for idx := b; idx < b+64; idx++ {
				x.store(idx, rng.Float64(), above(), vpn)
			}
		}
	}
	for k := 0; k < n; k++ {
		x.store(rng.Intn(n), rng.Float64(), above(), rng.Intn(2*procs+1)-procs)
	}
	// Sub-threshold stores land in the same blocks, unstamped.
	for k := 0; th > 0 && k < n/4; k++ {
		x.store(rng.Intn(n), rng.Float64(), rng.Intn(th), rng.Intn(procs))
	}
	// Ranges with partial first and last blocks, stamped and not.
	for k := 0; k < 4; k++ {
		lo := rng.Intn(n - 1)
		src := make([]float64, 1+rng.Intn(n-lo))
		for j := range src {
			src[j] = rng.Float64()
		}
		iter := above()
		if th > 0 && k == 0 {
			iter = rng.Intn(th)
		}
		x.storeRange(lo, src, iter, rng.Intn(procs))
	}
}

func TestBlockRestoreMatchesElementAndAtomic(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 20
	}
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < trials; trial++ {
		n := 130 + rng.Intn(300)
		procs := 1 + rng.Intn(4)
		init := make([]float64, n)
		for i := range init {
			init[i] = 100 + rng.Float64()
		}
		x := newTrio(procs, init)
		th := 0
		if trial%2 == 1 {
			th = 1 + rng.Intn(n/4)
			x.threshold(th)
		}
		x.script(rng, n, procs, th)
		x.same(t, "after the stores")

		// Undo is a pure function of the stamps: cuts from the top down
		// restore growing supersets, and a cut below the threshold is
		// refused by all three.
		for _, valid := range []int{n, n - 1, n - n/16, n * 7 / 8, n / 2, th + 1, th, th - 1} {
			if valid >= 0 {
				x.undo(t, "undo sweep", valid)
			}
		}

		// More stores, then a partial commit and a strip on top of it:
		// the packed layout re-baselines and must forget the bounds.
		x.script(rng, n, procs, th)
		upto := th + rng.Intn(n-th+1)
		uB, errB := x.blk.PartialCommit(upto)
		uE, errE := x.elt.PartialCommit(upto)
		uA, errA := x.at.Undo(upto) // the baseline's definition: undo, then re-checkpoint
		if errB != nil || errE != nil || errA != nil {
			t.Fatalf("trial %d: PartialCommit(%d): %v / %v / %v", trial, upto, errB, errE, errA)
		}
		if uB != uE || uB != uA {
			t.Fatalf("trial %d: PartialCommit(%d) restored block=%d element=%d atomic=%d", trial, upto, uB, uE, uA)
		}
		x.at.SetStampThreshold(0)
		x.at.Checkpoint()
		x.same(t, "after the partial commit")
		x.script(rng, n, procs, 0)
		x.same(t, "after the re-baselined stores")
		x.undo(t, "re-baselined undo", rng.Intn(n+1))

		x.blk.Release()
		x.elt.Release()
	}
}
