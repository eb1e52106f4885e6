package doacross

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"whilepar/internal/obs"
	"whilepar/internal/sched"
)

// The pool-backed DOACROSS must be indistinguishable from the
// spawn-per-call path it replaces: same valid prefix, same dependence
// chains, same accounting — the pool only changes where the worker
// goroutines come from.

func TestRunPoolMatchesSpawnRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 25; trial++ {
		n := 100 + rng.Intn(2000)
		procs := 1 + rng.Intn(6)
		dist := 1 + rng.Intn(4)
		quitAt := -1
		if rng.Intn(2) == 0 {
			quitAt = dist + rng.Intn(n-dist)
		}

		run := func(usePool bool) (Result, []int64, obs.Snapshot) {
			vals := make([]int64, n)
			m := obs.NewMetrics()
			var p *sched.Pool
			if usePool {
				p = sched.NewPool(procs)
			}
			res, err := Run(context.Background(), n, Config{Procs: procs, Hooks: obs.Hooks{M: m}, Pool: p}, func(i, vpn int, s *Sync) Control {
				if i >= dist {
					s.Wait(i, i-dist)
					atomic.StoreInt64(&vals[i], atomic.LoadInt64(&vals[i-dist])+1)
				} else {
					atomic.StoreInt64(&vals[i], 1)
				}
				if i == quitAt {
					return Quit
				}
				return Continue
			})
			if err != nil {
				t.Fatalf("trial %d: Run: %v", trial, err)
			}
			if p != nil {
				p.Close()
			}
			return res, vals, m.Snapshot()
		}

		resS, valsS, _ := run(false)
		resP, valsP, s := run(true)
		if resP.QuitIndex != resS.QuitIndex {
			t.Fatalf("trial %d (n=%d procs=%d dist=%d quit=%d): QuitIndex %d (pool) vs %d (spawn)",
				trial, n, procs, dist, quitAt, resP.QuitIndex, resS.QuitIndex)
		}
		// The valid prefix — everything at or below the quit index — is
		// deterministic on both paths; past it, execution is racy
		// overshoot, so only the prefix is compared.
		for i := 0; i <= resS.QuitIndex && i < n; i++ {
			if valsP[i] != valsS[i] {
				t.Fatalf("trial %d: chain[%d] = %d (pool) vs %d (spawn)", trial, i, valsP[i], valsS[i])
			}
		}
		if s.Executed != int64(resP.Executed) {
			t.Fatalf("trial %d: metrics executed %d != result %d", trial, s.Executed, resP.Executed)
		}
		// The counts are flushed per worker: what each worker claimed
		// covers what it ran, and the per-vpn counts add up.
		var busy int64
		for _, b := range s.VPNBusy {
			busy += b
		}
		if s.Issued < s.Executed || busy != s.Executed {
			t.Fatalf("trial %d: issued %d, executed %d, per-vpn sum %d", trial, s.Issued, s.Executed, busy)
		}
		if s.PoolDispatches != 1 {
			t.Fatalf("trial %d: pool dispatches = %d, want 1", trial, s.PoolDispatches)
		}
	}
}

func TestRunPoolClampsToPoolSize(t *testing.T) {
	p := sched.NewPool(2)
	defer p.Close()
	n := 400
	var maxVPN int32 = -1
	res, err := Run(context.Background(), n, Config{Procs: 8, Pool: p}, func(i, vpn int, s *Sync) Control {
		for {
			cur := atomic.LoadInt32(&maxVPN)
			if int32(vpn) <= cur || atomic.CompareAndSwapInt32(&maxVPN, cur, int32(vpn)) {
				break
			}
		}
		return Continue
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Executed != n || res.QuitIndex != n {
		t.Fatalf("result %+v", res)
	}
	if maxVPN >= 2 {
		t.Fatalf("vpn %d escaped the clamped width 2", maxVPN)
	}
}

func TestRunWhilePoolMatchesSpawn(t *testing.T) {
	// One pool reused across many WHILE-DOACROSS calls; each must match
	// the spawn-per-call run of the same recurrence.
	p := sched.NewPool(4)
	defer p.Close()
	rng := rand.New(rand.NewSource(67))
	for round := 0; round < 20; round++ {
		step := 1 + rng.Intn(9)
		limit := 50 + rng.Intn(400)
		max := 200
		next := func(d int) int { return d + step }
		cont := func(d int) bool { return d < limit }

		outS := make([]int64, max)
		resS, errS := RunWhile(context.Background(), 0, next, cont, max, Config{Procs: 4}, func(i, _ int, d int) bool {
			atomic.StoreInt64(&outS[i], int64(d))
			return true
		})
		outP := make([]int64, max)
		resP, errP := RunWhile(context.Background(), 0, next, cont, max, Config{Procs: 4, Pool: p}, func(i, _ int, d int) bool {
			atomic.StoreInt64(&outP[i], int64(d))
			return true
		})
		if errS != nil || errP != nil {
			t.Fatalf("round %d: RunWhile errors: spawn %v pool %v", round, errS, errP)
		}
		if resP.QuitIndex != resS.QuitIndex {
			t.Fatalf("round %d (step=%d limit=%d): QuitIndex %d (pool) vs %d (spawn)",
				round, step, limit, resP.QuitIndex, resS.QuitIndex)
		}
		for i := 0; i < resS.QuitIndex; i++ {
			if outP[i] != outS[i] {
				t.Fatalf("round %d: out[%d] = %d (pool) vs %d (spawn)", round, i, outP[i], outS[i])
			}
		}
	}
}
