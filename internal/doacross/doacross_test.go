package doacross

import (
	"context"
	"sync/atomic"
	"testing"
	"testing/quick"

	"whilepar/internal/simproc"
)

func TestSyncPostWait(t *testing.T) {
	s := NewSync()
	if s.Posted(0) {
		t.Fatal("nothing posted yet")
	}
	s.Post(2)
	s.Post(0)
	if !s.Posted(0) || !s.Posted(2) || s.Posted(1) {
		t.Fatal("post bookkeeping wrong")
	}
	s.Post(1)
	// lowAll compaction: all of 0..2 posted.
	if !s.Posted(0) || !s.Posted(1) || !s.Posted(2) {
		t.Fatal("compaction lost posts")
	}
	// Wait on an out-of-range (negative) iteration returns immediately.
	s.Wait(5, -1)
}

func TestWaitOnFutureIterationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("waiting on the future should panic")
		}
	}()
	NewSync().Wait(3, 3)
}

func TestRunHonoursDistanceOneDependence(t *testing.T) {
	// Each iteration consumes its predecessor's value: a chain that must
	// come out exactly sequential in content despite parallel execution.
	n := 2000
	vals := make([]int64, n)
	res, err := Run(context.Background(), n, Config{Procs: 8}, func(i, vpn int, s *Sync) Control {
		if i > 0 {
			s.Wait(i, i-1)
			atomic.StoreInt64(&vals[i], atomic.LoadInt64(&vals[i-1])+1)
		} else {
			atomic.StoreInt64(&vals[0], 1)
		}
		return Continue
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Executed != n || res.QuitIndex != n || res.Prefix != n {
		t.Fatalf("result %+v", res)
	}
	for i := 0; i < n; i++ {
		if atomic.LoadInt64(&vals[i]) != int64(i+1) {
			t.Fatalf("chain broken at %d: %d", i, vals[i])
		}
	}
}

func TestRunLongerDistances(t *testing.T) {
	// Distance-3 dependence: vals[i] = vals[i-3] + 1.
	n := 999
	vals := make([]int64, n)
	Run(context.Background(), n, Config{Procs: 6}, func(i, vpn int, s *Sync) Control {
		if i >= 3 {
			s.Wait(i, i-3)
			atomic.StoreInt64(&vals[i], atomic.LoadInt64(&vals[i-3])+1)
		} else {
			atomic.StoreInt64(&vals[i], 1)
		}
		return Continue
	})
	for i := 0; i < n; i++ {
		want := int64(i/3 + 1)
		if atomic.LoadInt64(&vals[i]) != want {
			t.Fatalf("vals[%d] = %d, want %d", i, vals[i], want)
		}
	}
}

func TestRunQuitStopsIssueAndDrains(t *testing.T) {
	n := 10_000
	res, _ := Run(context.Background(), n, Config{Procs: 4}, func(i, vpn int, s *Sync) Control {
		if i > 0 {
			s.Wait(i, i-1)
		}
		if i == 50 {
			return Quit
		}
		return Continue
	})
	if res.QuitIndex != 50 {
		t.Fatalf("QuitIndex = %d", res.QuitIndex)
	}
	if res.Executed >= n {
		t.Fatal("quit did not curb execution")
	}
}

func TestRunEmptyAndProcsCoercion(t *testing.T) {
	res, _ := Run(context.Background(), 0, Config{}, func(i, vpn int, s *Sync) Control { return Continue })
	if res.Executed != 0 || res.QuitIndex != 0 {
		t.Fatalf("empty run %+v", res)
	}
	for _, max := range []int{0, -1, -5} {
		res, err := RunWhile(context.Background(), 0, func(d int) int { return d + 1 }, nil, max, Config{Procs: -3},
			func(i, _, _ int) bool { return true })
		if err != nil || res.Executed != 0 || res.QuitIndex != 0 || res.Prefix != 0 {
			t.Fatalf("RunWhile max %d: %+v, err %v", max, res, err)
		}
	}
}

func TestRunWhilePipelinesRecurrence(t *testing.T) {
	// while (d < limit) { out[i] = d; d = next(d) } with a dispatcher
	// only the predecessor can produce.
	limit := 500
	out := make([]int64, 1000)
	res, _ := RunWhile(context.Background(), 0, func(d int) int { return d + 7 }, func(d int) bool { return d < limit },
		1000, Config{Procs: 6}, func(i, _ int, d int) bool {
			atomic.StoreInt64(&out[i], int64(d))
			return true
		})
	wantIters := (limit + 6) / 7 // d = 0,7,14,... < 500
	if res.QuitIndex != wantIters {
		t.Fatalf("QuitIndex = %d, want %d", res.QuitIndex, wantIters)
	}
	for i := 0; i < wantIters; i++ {
		if atomic.LoadInt64(&out[i]) != int64(7*i) {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
	for i := wantIters; i < len(out); i++ {
		if atomic.LoadInt64(&out[i]) != 0 {
			t.Fatalf("iteration %d ran beyond the terminator", i)
		}
	}
}

func TestRunWhileRVExit(t *testing.T) {
	// The body itself terminates at iteration 40.
	res, _ := RunWhile(context.Background(), 0, func(d int) int { return d + 1 }, nil, 200,
		Config{Procs: 4}, func(i, _, d int) bool { return i != 40 })
	if res.QuitIndex != 40 {
		t.Fatalf("QuitIndex = %d", res.QuitIndex)
	}
}

// Property: RunWhile computes exactly the sequential WHILE loop's
// iteration count for random steps, limits and processor counts.
func TestRunWhileMatchesSequentialProperty(t *testing.T) {
	f := func(stepRaw, limitRaw, procsRaw uint8) bool {
		step := int(stepRaw)%9 + 1
		limit := int(limitRaw) + 1
		procs := int(procsRaw)%6 + 1
		max := 300
		// Sequential count.
		want := 0
		for d := 0; d < limit && want < max; d += step {
			want++
		}
		res, _ := RunWhile(context.Background(), 0, func(d int) int { return d + step },
			func(d int) bool { return d < limit }, max, Config{Procs: procs},
			func(int, int, int) bool { return true })
		return res.QuitIndex == want || (want == max && res.QuitIndex == max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSimulatePipelineBounds(t *testing.T) {
	// With chain c and work w, the p-processor pipeline is bounded below
	// by both n*c (the chain) and n*(c+w)/p (the work), and the
	// simulated makespan should sit near the max of the two.
	n := 1000
	c := SimCosts{Chain: 2, Dispatch: 0, Work: func(int) float64 { return 18 }}
	seq := c.SeqTime(n)
	if seq != 1000*20 {
		t.Fatalf("SeqTime = %v", seq)
	}
	for _, p := range []int{1, 2, 4, 8, 16} {
		tr := Simulate(simproc.New(p), n, c)
		lower := 2.0 * float64(n)
		if perProc := seq / float64(p); perProc > lower {
			lower = perProc
		}
		if tr.Makespan < lower-1e-9 {
			t.Fatalf("p=%d: makespan %v below bound %v", p, tr.Makespan, lower)
		}
		if tr.Makespan > 1.3*lower+50 {
			t.Fatalf("p=%d: makespan %v far above bound %v", p, tr.Makespan, lower)
		}
	}
	// Saturation: beyond (c+w)/c = 10 processors the chain dominates
	// and extra processors stop helping.
	t16 := Simulate(simproc.New(16), n, c).Makespan
	t32 := Simulate(simproc.New(32), n, c).Makespan
	if t32 < 0.95*t16 {
		t.Fatalf("pipeline should saturate: t16=%v t32=%v", t16, t32)
	}
}
