package genrec

import (
	"context"
	"math/rand"
	"testing"

	"whilepar/internal/list"
	"whilepar/internal/loopir"
	"whilepar/internal/sched"
)

// The general methods keep no per-iteration record of what ran: each
// worker folds in a count and the one iteration it abandoned.  This
// checks the Result they derive from those against a log the body keeps
// itself, through RV exits, planted panics and mid-run cancellation,
// with and without a pool, under every method.
func TestAccountingThroughQuitPanicAndCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(0x6e2ec))
	methods := []struct {
		name string
		run  func(context.Context, *list.Node, Body, Config) (Result, error)
	}{{"General-1", General1Ctx}, {"General-2", General2Ctx}, {"General-3", General3Ctx}}
	trials := 600
	if testing.Short() {
		trials = 120
	}
	pool := sched.NewPool(4)
	defer pool.Close()
	for trial := 0; trial < trials; trial++ {
		m := methods[trial%len(methods)]
		n := 1 + rng.Intn(500)
		cfg := Config{Procs: 1 + rng.Intn(6)}
		if trial%4 == 0 {
			cfg.Pool = pool // sometimes narrower than Procs
		}
		if m.name != "General-2" && rng.Intn(4) == 0 {
			cfg.U = 1 + rng.Intn(2*n) // below, at or beyond the list length
		}

		quitAt, panicAt, cancelAt := -1, -1, -1
		if rng.Intn(3) > 0 {
			quitAt = rng.Intn(n)
		}
		switch rng.Intn(4) {
		case 0:
			panicAt = rng.Intn(n)
		case 1:
			cancelAt = rng.Intn(n)
		}

		// Every iteration has one owner, so plain bools do; the reads
		// below come after the join.
		ran := make([]bool, n)
		ctx, cancel := context.WithCancel(context.Background())
		res, err := m.run(ctx, list.Build(n, nil), func(it *loopir.Iter, nd *list.Node) bool {
			i := it.Index
			if i != nd.Key {
				t.Errorf("trial %d (%s): iteration %d handed node %d", trial, m.name, i, nd.Key)
			}
			if i == panicAt {
				panic("planted")
			}
			if i == cancelAt {
				cancel()
			}
			if ran[i] {
				t.Errorf("trial %d (%s): iteration %d ran twice", trial, m.name, i)
			}
			ran[i] = true
			return !(i == quitAt || (quitAt >= 0 && i > quitAt && i%7 == 0))
		}, cfg)
		cancel()

		executed, overshot, prefix := 0, 0, -1
		for i, r := range ran {
			if r {
				executed++
				if i >= res.Valid {
					overshot++
				}
			} else if prefix < 0 {
				prefix = i
			}
		}
		if prefix < 0 {
			prefix = n
		}
		// What the loop's own exits allow: the first RV exit, the bound,
		// the end of the list.
		valid := n
		if cfg.U > 0 && cfg.U < valid {
			valid = cfg.U
		}
		if quitAt >= 0 && quitAt < valid {
			valid = quitAt
		}
		if err != nil && prefix < valid {
			valid = prefix // ended early: only the contiguous prefix stands
		}
		if res.Valid != valid || res.Executed != executed || res.Overshot != overshot {
			t.Fatalf("trial %d (%s, n=%d, p=%d, pool=%v, U=%d, quit=%d, panic=%d, cancel=%d, err=%v): "+
				"Result{Valid: %d, Executed: %d, Overshot: %d}, the log says valid %d, executed %d, overshot %d",
				trial, m.name, n, cfg.Procs, cfg.Pool != nil, cfg.U, quitAt, panicAt, cancelAt, err,
				res.Valid, res.Executed, res.Overshot, valid, executed, overshot)
		}
		if err == nil && (panicAt >= 0 && panicAt < valid) {
			t.Fatalf("trial %d (%s): a panic at %d below valid %d surfaced no error", trial, m.name, panicAt, valid)
		}
	}
}

// A pool narrower than Procs runs fewer workers; General-2's static
// stride has to follow, or whole residue classes are never executed.
func TestGeneral2OnANarrowerPool(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	const n = 101
	ran := make([]bool, n)
	res, err := General2Ctx(context.Background(), list.Build(n, nil), func(it *loopir.Iter, nd *list.Node) bool {
		ran[nd.Key] = true
		return true
	}, Config{Procs: 5, Pool: pool})
	if err != nil || res.Valid != n || res.Executed != n {
		t.Fatalf("Result %+v, err %v; want %d valid and executed", res, err, n)
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("node %d never ran", i)
		}
	}
}
