package pdtest

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"whilepar/internal/mem"
)

// A shadow that comes out of the pool carries whatever its last Test
// marked into it, under whatever epochs that Test went through, possibly
// for a longer or shorter array and another processor count.  None of it
// may show: a Test on pooled shadows must give the verdicts of one on
// freshly allocated shadows and of the eager oracle — through a forced
// uint32 epoch wrap too.  Runs under -race in CI.

// freshTest builds an epoch-mode Test that bypasses the pool.
func freshTest(a *mem.Array, procs int) *Test {
	t := &Test{arr: a, shadows: make([]*shadow, procs), epoch: 1}
	for k := range t.shadows {
		t.shadows[k] = &shadow{recs: make([]pdRec, a.Len()), blk: make([]pdBlk, numBlocks(a.Len())), minExposed: never}
	}
	return t
}

// jumpNearWrap moves the test's epoch to just below the uint32 wrap.
// Only forward: a pooled shadow may already hold tags from up there.
func jumpNearWrap(t *Test) {
	if t.epoch < math.MaxUint32-1 {
		t.epoch = math.MaxUint32 - 1
	}
}

func TestPooledShadowsMatchFreshAndEager(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rounds := 120
	if testing.Short() {
		rounds = 40
	}
	reused := 0
	for round := 0; round < rounds; round++ {
		// Lengths that share size classes with earlier rounds' (64..128,
		// 128..256, 256..512) and processor counts that differ from them.
		n := 65 + rng.Intn(440)
		procs := 1 + rng.Intn(4)
		a := mem.NewArray("A", n)
		pooled, fresh, eager := New(a, procs), freshTest(a, procs), NewEager(a, procs)
		for _, s := range pooled.shadows {
			if s.epoch > 0 {
				reused++
			}
		}
		if round%4 == 1 {
			jumpNearWrap(pooled)
		}
		for strip := 0; strip < 4; strip++ {
			// Each iteration runs on one processor; a processor runs its
			// iterations one after another.
			iters := 1 + rng.Intn(40)
			for it := 0; it < iters; it++ {
				vpn := it % procs
				for k := rng.Intn(6); k >= 0; k-- {
					idx, store := rng.Intn(n), rng.Intn(2) == 0
					for _, x := range []*Test{pooled, fresh, eager} {
						if store {
							x.MarkStore(a, idx, it, vpn)
						} else {
							x.MarkLoad(a, idx, it, vpn)
						}
					}
				}
			}
			for _, valid := range []int{0, iters / 2, iters} {
				want := eager.AnalyzeQuiet(valid)
				if got := pooled.AnalyzeQuiet(valid); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d strip %d valid %d (n=%d procs=%d): pooled %+v, eager %+v", round, strip, valid, n, procs, got, want)
				}
				if got := fresh.AnalyzeQuiet(valid); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d strip %d valid %d (n=%d procs=%d): fresh %+v, eager %+v", round, strip, valid, n, procs, got, want)
				}
			}
			pooled.Reset()
			fresh.Reset()
			eager.Reset()
		}
		pooled.Release()
	}
	if reused == 0 && !testing.Short() {
		t.Fatal("no round ever took a shadow out of the pool: the test exercised nothing")
	}
}

// Concurrent Tests share the pool; none may see another's marks.  Every
// goroutine marks a clean loop into its own Test and a violating one
// into a second, many times over, releasing both each time.
func TestConcurrentTestsShareThePool(t *testing.T) {
	const goroutines, rounds = 16, 30
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < rounds; round++ {
				n := 70 + rng.Intn(180)
				procs := 1 + rng.Intn(3)
				a := mem.NewArray("A", n)
				clean, dirty := New(a, procs), New(a, procs)
				for i := 0; i < n; i++ {
					clean.MarkLoad(a, i, i, i%procs)
					clean.MarkStore(a, i, i, i%procs)
					dirty.MarkLoad(a, (i+1)%n, i, i%procs)
					dirty.MarkStore(a, i, i, i%procs)
				}
				if r := clean.AnalyzeQuiet(n); !r.DOALL || r.FirstViolation != -1 {
					t.Errorf("goroutine %d round %d: clean loop judged %+v", g, round, r)
				}
				if r := dirty.AnalyzeQuiet(n); r.DOALL || !r.FlowAntiDep || r.FirstViolation != 0 {
					t.Errorf("goroutine %d round %d: violating loop judged %+v", g, round, r)
				}
				clean.Release()
				dirty.Release()
			}
		}(g)
	}
	wg.Wait()
}

// Worklists above inlineScan are merged by one worker per processor,
// each over a contiguous share of the block journals laid end to end.
// The shares cut journals anywhere, and a block several processors
// touched sits in several journals: it must be merged exactly once, and
// the reduced verdict must be the eager oracle's.
func TestChunkedScanMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// n is no multiple of procs, so the two iterations that touch an
	// element (it and it+n) run on different processors; every processor
	// journals every block, n/64 x procs entries in all.
	const n, procs, iters = 70001, 4, 105000
	a := mem.NewArray("A", n)
	epochT, eagerT := New(a, procs), NewEager(a, procs)
	defer epochT.Release()
	for strip := 0; strip < 3; strip++ {
		// Iteration it updates element it mod n: a valid DOALL up to n
		// iterations, output- and flow-dependent beyond.  Strips after
		// the first also plant dependences at random.
		for it := 0; it < iters; it++ {
			vpn := it % procs
			idx := it % n
			if strip > 0 && rng.Intn(50) == 0 {
				idx = rng.Intn(n)
			}
			for _, x := range []*Test{epochT, eagerT} {
				x.MarkLoad(a, idx, it, vpn)
				x.MarkStore(a, idx, it, vpn)
			}
		}
		if work := epochT.worklist(); work <= inlineScan {
			t.Fatalf("worklist %d does not reach the chunked scan", work)
		}
		for _, valid := range []int{iters / 3, n, iters} {
			got, want := epochT.AnalyzeQuiet(valid), eagerT.AnalyzeQuiet(valid)
			if got != want {
				t.Fatalf("strip %d valid %d: epoch %+v, eager %+v", strip, valid, got, want)
			}
		}
		epochT.Reset()
		eagerT.Reset()
	}
}
