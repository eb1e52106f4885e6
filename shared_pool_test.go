package whilepar

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// Options.Workers lets many independent Run/RunContext callers share
// one pool instead of spawning workers per call.  This is the embedding
// contract internal/serve is built on, exercised here straight through
// the public facade: 64 concurrent callers, mixed strategies, expiring
// deadlines and a panicking body, all on one NewSharedWorkerPool.

func sharedCountLoop(a *Array, n int, perIter time.Duration) *IntLoop {
	return &IntLoop{
		Class: Class{Dispatcher: MonotonicInduction, Terminator: RV},
		Disp:  IntInduction{C: 1},
		Body: func(it *Iter, d int) bool {
			if perIter > 0 {
				time.Sleep(perIter)
			}
			it.Store(a, d, float64(d)+1)
			return true
		},
		Max: n,
	}
}

func TestSharedWorkerPoolConcurrentCallers(t *testing.T) {
	pool := NewSharedWorkerPool(4)
	defer pool.Close()

	const callers = 64
	const n = 256
	strategies := []Strategy{Auto, StrategySpeculate, StrategyPipeline, StrategyRunTwice}

	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			a := NewArray("A", n)
			opt := Options{
				Procs:    4,
				Workers:  pool,
				Strategy: strategies[c%len(strategies)],
				Shared:   []*Array{a},
				Tested:   []*Array{a},
			}
			if opt.Strategy == StrategyRunTwice {
				// Run-twice forbids run-time-tested accesses — it exists
				// for loops whose dependences are statically known.
				opt.Tested = nil
			}
			switch {
			case c%8 == 5:
				// A loop that cannot finish inside its deadline: ~50ms
				// of sleeping against a 5ms budget.
				opt.Deadline = 5 * time.Millisecond
				opt.Strategy = StrategySpeculate
				_, err := Run(sharedCountLoop(a, 10_000, 200*time.Microsecond), opt)
				if !errors.Is(err, ErrDeadline) {
					errs[c] = err
					return
				}
			case c == 9:
				// One panicking body among the crowd: contained on its
				// worker, typed, and the pool survives.
				opt.Strategy = StrategySpeculate
				loop := sharedCountLoop(a, n, 0)
				inner := loop.Body
				loop.Body = func(it *Iter, d int) bool {
					if d == n/2 {
						panic("injected")
					}
					return inner(it, d)
				}
				_, err := Run(loop, opt)
				if !errors.Is(err, ErrWorkerPanic) {
					errs[c] = err
					return
				}
			default:
				rep, err := RunContext(context.Background(), sharedCountLoop(a, n, 0), opt)
				if err != nil {
					errs[c] = err
					return
				}
				if rep.Valid != n {
					t.Errorf("caller %d (%v): valid = %d, want %d", c, opt.Strategy, rep.Valid, n)
					return
				}
				for i := 0; i < n; i++ {
					if a.Data[i] != float64(i)+1 {
						t.Errorf("caller %d: A[%d] = %v", c, i, a.Data[i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("caller %d: unexpected error %v", c, err)
		}
	}

	// The shared pool is still serviceable after deadline unwinds and
	// the contained panic.
	a := NewArray("A", 64)
	rep, err := Run(sharedCountLoop(a, 64, 0),
		Options{Procs: 4, Workers: pool, Strategy: StrategySpeculate, Shared: []*Array{a}, Tested: []*Array{a}})
	if err != nil || rep.Valid != 64 {
		t.Fatalf("post-storm run: %v (rep %+v)", err, rep)
	}
}

func TestWorkersPoolNotClosedByRun(t *testing.T) {
	pool := NewWorkerPool(2)
	defer pool.Close()

	// An externally owned (non-shared) pool: sequential reuse across
	// runs must work — Run must not close it.
	for i := 0; i < 3; i++ {
		a := NewArray("A", 128)
		rep, err := Run(sharedCountLoop(a, 128, 0),
			Options{Procs: 2, Workers: pool, Strategy: StrategySpeculate, Shared: []*Array{a}, Tested: []*Array{a}})
		if err != nil || rep.Valid != 128 {
			t.Fatalf("run %d on reused pool: %v (rep %+v)", i, err, rep)
		}
	}
}

// Concurrent runs also share the recycled speculation state: PD shadows
// and stamp shards go back to process-wide pools together with the last
// epoch they were used under, and the next run — whichever it is —
// takes them without clearing them.  No run may ever see another's
// marks: of 64 concurrent callers, the ones running a dependence-free
// loop must pass their PD test and keep the parallel result, the ones
// running a loop with a planted flow dependence must have it caught at
// the planted iteration, and every one must end with exactly the
// sequential loop's array, round after round.
func TestConcurrentRunsShareRecycledShadows(t *testing.T) {
	const callers, rounds = 64, 6
	strategies := []Strategy{Auto, StrategySpeculate, StrategyRecover, StrategyPipeline}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Lengths in a handful of size classes, so that callers of
			// different lengths trade buffers.
			n := 300 + 97*(c%7)
			dep := -1 // the iteration that also reads its predecessor's element
			if c%2 == 1 {
				dep = n / 2
			}
			a, want := NewArray("A", n), NewArray("A", n)
			l := func(a *Array) *IntLoop {
				return &IntLoop{
					Class: Class{Dispatcher: MonotonicInduction, Terminator: RV},
					Disp:  IntInduction{C: 1},
					Body: func(it *Iter, d int) bool {
						v := it.Load(a, d)
						if d == dep {
							v += it.Load(a, d-1)
						}
						it.Store(a, d, 2*v+float64(c))
						return true
					},
					Max: n,
				}
			}
			for round := 0; round < rounds; round++ {
				for i := range a.Data {
					a.Data[i], want.Data[i] = float64(i%13), float64(i%13)
				}
				LastValidInt(l(want))
				opt := Options{Procs: 2 + c%3, Strategy: strategies[(c/2)%len(strategies)], Validation: ValidationFull,
					Shared: []*Array{a}, Tested: []*Array{a}, Profiles: NewProfileStore(), Key: "recycled"}
				rep, err := Run(l(a), opt)
				if err != nil || rep.Valid != n {
					t.Errorf("caller %d round %d (%v): valid = %d, err = %v", c, round, opt.Strategy, rep.Valid, err)
					return
				}
				if !a.Equal(want) {
					t.Errorf("caller %d round %d (%v): array differs from the sequential loop's", c, round, opt.Strategy)
					return
				}
				if opt.Strategy != StrategySpeculate {
					continue // the strip engines report no per-array verdicts
				}
				if len(rep.PD) != 1 {
					t.Errorf("caller %d round %d: %d PD verdicts, want 1", c, round, len(rep.PD))
					return
				}
				if pd := rep.PD[0]; dep < 0 && (!pd.DOALL || !rep.UsedParallel) {
					t.Errorf("caller %d round %d: dependence-free loop judged %+v (used parallel: %v)", c, round, pd, rep.UsedParallel)
				} else if dep >= 0 && (pd.DOALL || pd.FirstViolation != dep-1) {
					t.Errorf("caller %d round %d: dependence at %d judged %+v", c, round, dep, pd)
				}
			}
		}(c)
	}
	wg.Wait()
}
