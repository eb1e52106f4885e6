package sched

import (
	"context"
	"math/rand"
	"testing"
)

// TestAccountingMatchesExecutionLog checks the O(p) post-join
// accounting (doall.account) against a per-iteration execution log the
// body keeps — the bookkeeping the substrate itself no longer does —
// on executions that end every way they can: run to completion, QUIT,
// a contained panic, a cancellation, and QUITs racing either.  Executed,
// Overshot and Prefix must be exact in all of them.
func TestAccountingMatchesExecutionLog(t *testing.T) {
	rng := rand.New(rand.NewSource(0xacc0))
	schedules := []Schedule{Dynamic, Static, Guided, Stealing}
	trials := 400
	if testing.Short() {
		trials = 80
	}
	pool := NewPool(4)
	defer pool.Close()
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(600)
		p := 1 + rng.Intn(6)
		schedule := schedules[trial%len(schedules)]
		opts := Options{Procs: p, Schedule: schedule}
		if trial%3 == 0 {
			opts.Pool = pool
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

		// Every index has one owner, so plain bools do; the reads below
		// come after the join.
		ran := make([]bool, n)
		ctx, cancel := context.WithCancel(context.Background())
		res, err := DOALLCtx(ctx, n, opts, func(i, vpn int) Control {
			if i == panicAt {
				panic("planted")
			}
			if i == cancelAt {
				cancel()
			}
			ran[i] = true
			if i == quitAt || (quitAt >= 0 && i > quitAt && i%7 == 0) {
				return Quit
			}
			return Continue
		})
		cancel()

		executed, overshot, prefix := 0, 0, -1
		for i, r := range ran {
			if r {
				executed++
				if i >= res.QuitIndex {
					overshot++
				}
			} else if prefix < 0 {
				prefix = i
			}
		}
		if prefix < 0 {
			prefix = n
		}
		if res.QuitIndex < prefix {
			prefix = res.QuitIndex
		}
		if res.Executed != executed || res.Overshot != overshot || res.Prefix != prefix {
			t.Fatalf("trial %d (%v, n=%d, p=%d, quit=%d, panic=%d, cancel=%d, err=%v): "+
				"Result{Executed: %d, Overshot: %d, Prefix: %d, QuitIndex: %d}, the log says executed %d, overshot %d, prefix %d",
				trial, schedule, n, p, quitAt, panicAt, cancelAt, err,
				res.Executed, res.Overshot, res.Prefix, res.QuitIndex, executed, overshot, prefix)
		}
		if err == nil && res.Executed != min(res.QuitIndex, n)+res.Overshot {
			t.Fatalf("trial %d: run to completion but Executed %d != min(QuitIndex %d, n %d) + Overshot %d",
				trial, res.Executed, res.QuitIndex, n, res.Overshot)
		}
	}
}
