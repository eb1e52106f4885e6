package genrec

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"whilepar/internal/list"
	"whilepar/internal/loopir"
	"whilepar/internal/mem"
	"whilepar/internal/simproc"
)

type runner func(*list.Node, Body, Config) Result

var methods = map[string]runner{
	"General-1": General1,
	"General-2": General2,
	"General-3": General3,
}

func TestAllMethodsProcessEveryNodeExactlyOnce(t *testing.T) {
	for name, run := range methods {
		n := 500
		head := list.Build(n, nil)
		counts := make([]atomic.Int32, n)
		res := run(head, func(it *loopir.Iter, nd *list.Node) bool {
			counts[nd.Key].Add(1)
			if nd.Key != it.Index {
				t.Errorf("%s: node %d processed as iteration %d", name, nd.Key, it.Index)
			}
			return true
		}, Config{Procs: 7})
		if res.Valid != n || res.Executed != n || res.Overshot != 0 {
			t.Fatalf("%s: %+v", name, res)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("%s: node %d processed %d times", name, i, c)
			}
		}
	}
}

func TestResultsMatchSequentialLoop(t *testing.T) {
	// The SPICE-like loop: work(pt) writes A[key] = 3*val.
	for name, run := range methods {
		n := 300
		mkList := func() *list.Node {
			return list.Build(n, func(i int) (float64, float64) { return float64(i * 2), 1 })
		}
		seqA := mem.NewArray("A", n)
		for pt := mkList(); pt != nil; pt = pt.Next {
			seqA.Data[pt.Key] = 3 * pt.Val
		}
		parA := mem.NewArray("A", n)
		run(mkList(), func(it *loopir.Iter, nd *list.Node) bool {
			it.Store(parA, nd.Key, 3*nd.Val)
			return true
		}, Config{Procs: 8})
		if !parA.Equal(seqA) {
			t.Fatalf("%s: parallel result diverged", name)
		}
	}
}

func TestEmptyList(t *testing.T) {
	for name, run := range methods {
		res := run(nil, func(*loopir.Iter, *list.Node) bool {
			t.Fatalf("%s: body ran on empty list", name)
			return true
		}, Config{Procs: 4})
		if res.Valid != 0 || res.Executed != 0 {
			t.Fatalf("%s: %+v", name, res)
		}
	}
}

func TestRVExitRecordsMinQuit(t *testing.T) {
	// Iterations 120 and 60 both signal exit; valid must be 60, and
	// every node below 60 must still be processed.
	for name, run := range methods {
		n := 400
		head := list.Build(n, nil)
		counts := make([]atomic.Int32, n)
		res := run(head, func(it *loopir.Iter, nd *list.Node) bool {
			if nd.Key == 120 || nd.Key == 60 {
				return false
			}
			counts[nd.Key].Add(1)
			return true
		}, Config{Procs: 6, U: n})
		if res.Valid != 60 {
			t.Fatalf("%s: Valid = %d, want 60", name, res.Valid)
		}
		for i := 0; i < 60; i++ {
			if counts[i].Load() != 1 {
				t.Fatalf("%s: valid node %d ran %d times", name, i, counts[i].Load())
			}
		}
	}
}

func TestHopCountsCharacterizeMethods(t *testing.T) {
	n, p := 1000, 4
	body := func(*loopir.Iter, *list.Node) bool { return true }
	h1 := General1(list.Build(n, nil), body, Config{Procs: p}).Hops
	h2 := General2(list.Build(n, nil), body, Config{Procs: p}).Hops
	h3 := General3(list.Build(n, nil), body, Config{Procs: p}).Hops
	if h1 != int64(n) {
		t.Fatalf("General-1 traverses once: hops = %d, want %d", h1, n)
	}
	// General-2: every processor traverses the entire list.
	if h2 < int64(n) || h2 > int64(p*n+p*p) {
		t.Fatalf("General-2 hops = %d, want ~p*n = %d", h2, p*n)
	}
	if h2 <= h1 {
		t.Fatal("General-2 must hop more than General-1")
	}
	// General-3: between n (perfect locality — cursors start at the
	// head, which is iteration 0, and one hops onto the nil terminator
	// to find the end) and p*n, every cursor having walked that far.
	if h3 < int64(n) || h3 > int64(p*n) {
		t.Fatalf("General-3 hops = %d out of [n, p*n]", h3)
	}
}

func TestUBoundsIterations(t *testing.T) {
	for name, run := range map[string]runner{"General-1": General1, "General-3": General3} {
		n := 100
		head := list.Build(n, nil)
		res := run(head, func(*loopir.Iter, *list.Node) bool { return true }, Config{Procs: 3, U: 40})
		if res.Valid != 40 || res.Executed != 40 {
			t.Fatalf("%s with U=40: %+v", name, res)
		}
	}
}

func TestProcsCoercion(t *testing.T) {
	head := list.Build(10, nil)
	res := General3(head, func(*loopir.Iter, *list.Node) bool { return true }, Config{Procs: 0})
	if res.Valid != 10 {
		t.Fatalf("procs=0 run: %+v", res)
	}
}

// Property: for random list lengths, processor counts and exit points,
// all three methods agree with the sequential loop on the valid count.
func TestMethodsAgreeOnValidCount(t *testing.T) {
	f := func(nRaw, pRaw, exitRaw uint8) bool {
		n := int(nRaw)%150 + 1
		p := int(pRaw)%6 + 1
		exit := int(exitRaw) % (2 * n) // may exceed list length -> RI end
		body := func(it *loopir.Iter, nd *list.Node) bool { return nd.Key != exit }
		want := n
		if exit < n {
			want = exit
		}
		for _, run := range methods {
			res := run(list.Build(n, nil), body, Config{Procs: p, U: n})
			if res.Valid != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSimGeneral3BeatsGeneral1UnderLockContention(t *testing.T) {
	// The SPICE Loop 40 observation: with little work per node, the
	// serialized next() of General-1 throttles speedup while General-3
	// keeps scaling (2.9x vs 4.9x on 8 processors in the paper).
	n := 4000
	c := SimCosts{Hop: 1, Lock: 8, Dispatch: 1, Work: func(int) float64 { return 18 }}
	seq := c.SeqTime(n)

	tr1 := SimGeneral1(simproc.New(8), n, c)
	tr3 := SimGeneral3(simproc.New(8), n, c)
	sp1 := simproc.Speedup(seq, tr1.Makespan)
	sp3 := simproc.Speedup(seq, tr3.Makespan)
	if sp3 <= sp1 {
		t.Fatalf("General-3 (%.2f) should outperform General-1 (%.2f)", sp3, sp1)
	}
	if sp1 < 1.5 || sp3 < 3 {
		t.Fatalf("speedups implausibly low: %v %v", sp1, sp3)
	}
}

func TestSimSpeedupsMonotoneInProcs(t *testing.T) {
	n := 2000
	c := SimCosts{Hop: 1, Lock: 5, Dispatch: 1, Work: func(int) float64 { return 30 }}
	seq := c.SeqTime(n)
	sims := map[string]func(*simproc.Machine, int, SimCosts) simproc.Trace{
		"g1": SimGeneral1, "g2": SimGeneral2, "g3": SimGeneral3,
	}
	for name, sim := range sims {
		prev := 0.0
		for _, p := range []int{1, 2, 4, 8} {
			tr := sim(simproc.New(p), n, c)
			sp := simproc.Speedup(seq, tr.Makespan)
			if sp < prev-0.2 { // allow tiny non-monotonicity from remainder effects
				t.Fatalf("%s: speedup dropped at p=%d: %v < %v", name, p, sp, prev)
			}
			prev = sp
		}
	}
}

func TestSimGeneral2MatchesHopModel(t *testing.T) {
	// On one processor General-2 degenerates to the sequential loop.
	n := 100
	c := SimCosts{Hop: 2, Work: func(int) float64 { return 5 }}
	tr := SimGeneral2(simproc.New(1), n, c)
	if tr.Makespan != c.SeqTime(n) {
		t.Fatalf("1-proc General-2 = %v, want %v", tr.Makespan, c.SeqTime(n))
	}
}
