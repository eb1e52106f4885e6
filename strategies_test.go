package whilepar

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRunStrippedPublic(t *testing.T) {
	// A speculative loop with an exit at 210, run in strips of 64
	// through the public API.
	n, exit := 512, 210
	a := NewArray("A", n)
	par := func(tr Tracker, lo, hi int) (int, bool, error) {
		for i := lo; i < hi; i++ {
			if i == exit {
				return i - lo, true, nil
			}
			tr.Store(a, i, float64(i), i, 0)
		}
		return hi - lo, false, nil
	}
	seq := func(lo, hi int) (int, bool) {
		for i := lo; i < hi; i++ {
			if i == exit {
				return i - lo, true
			}
			a.Data[i] = float64(i)
		}
		return hi - lo, false
	}
	rep, err := RunStripped(SpecSpec{Procs: 4, Shared: []*Array{a}, Tested: []*Array{a}},
		n, 64, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != exit || !rep.Done {
		t.Fatalf("report %+v", rep)
	}
	for i := 0; i < n; i++ {
		want := 0.0
		if i < exit {
			want = float64(i)
		}
		if a.Data[i] != want {
			t.Fatalf("A[%d] = %v", i, a.Data[i])
		}
	}
}

func TestRunChunkedPublic(t *testing.T) {
	n := 800
	out := NewArray("out", n)
	c := BuildChunkedList(n, 50, func(i int) (float64, float64) { return float64(i), 1 })
	valid := RunChunked(c, func(it *Iter, nd *Node) bool {
		it.Store(out, nd.Key, nd.Val*2)
		return true
	}, 8)
	if valid != n {
		t.Fatalf("valid = %d", valid)
	}
	for i := 0; i < n; i++ {
		if out.Data[i] != float64(2*i) {
			t.Fatalf("out[%d] = %v", i, out.Data[i])
		}
	}
}

func TestSharedArraysHelper(t *testing.T) {
	a, b := NewArray("a", 1), NewArray("b", 1)
	s := SharedArrays(a, b)
	if len(s) != 2 || s[0] != a || s[1] != b {
		t.Fatal("SharedArrays broken")
	}
}

func TestRunWindowedPublic(t *testing.T) {
	n, exit := 600, 444
	a := NewArray("A", n)
	rep, err := RunWindowed(
		SpecSpec{Procs: 4, Shared: []*Array{a}, Tested: []*Array{a}},
		n,
		WindowConfig{Window: 20, WritesPerIter: 1, MemBudget: 20},
		func(tr Tracker, i, vpn int) bool {
			if i == exit {
				return true
			}
			tr.Store(a, i, 1, i, vpn)
			return false
		},
		func() int { t.Fatal("must not fall back"); return 0 },
	)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedParallel || rep.Valid != exit {
		t.Fatalf("report %+v", rep)
	}
	for i := 0; i < n; i++ {
		want := 0.0
		if i < exit {
			want = 1
		}
		if a.Data[i] != want {
			t.Fatalf("A[%d] = %v", i, a.Data[i])
		}
	}
}

// The whole-loop speculative engine's default induction method is
// Induction-2: once an iteration has met the exit, nothing beyond it is
// issued.  A clean RV loop must match the sequential oracle under either
// method and every schedule, and under the default must not run what
// the exit invalidated.
func TestSpeculateDefaultQuitsAtExit(t *testing.T) {
	const n, exit, procs = 1 << 13, 1 << 10, 4
	// maxChunk is the largest claim of the Dynamic and Stealing
	// schedules; a Guided claim can be larger, a Static one is 1.
	const maxChunk = 64
	schedules := []Options{{Schedule: Dynamic}, {Schedule: Static}, {Schedule: Guided}, {Schedule: Stealing}}
	for _, ind1 := range []bool{false, true} {
		for _, opt := range schedules {
			a, want := NewArray("A", n), NewArray("A", n)
			for i := range a.Data {
				a.Data[i] = float64(i%97) + 1
			}
			a.Data[exit] = -1
			copy(want.Data, a.Data)
			for i := 0; i < exit; i++ {
				want.Data[i] = 0.5*want.Data[i] + 1
			}
			// An iteration beyond the exit waits until the exit has been
			// met, so how far the other workers overshoot does not hang
			// on when the scheduler lets the exit's worker run.
			var met atomic.Bool
			l := &IntLoop{
				Class: Class{Dispatcher: MonotonicInduction, Terminator: RV},
				Disp:  IntInduction{C: 1},
				Body: func(it *Iter, i int) bool {
					for i > exit && !met.Load() {
						runtime.Gosched()
					}
					v := it.Load(a, i)
					if v < 0 {
						met.Store(true)
						return false
					}
					it.Store(a, i, 0.5*v+1)
					return true
				},
				Max: n,
			}
			opt.Strategy, opt.Procs = StrategySpeculate, procs
			opt.Shared, opt.Tested = []*Array{a}, []*Array{a}
			name := fmt.Sprintf("default method, schedule %d", opt.Schedule)
			if ind1 {
				opt.InductionMethod, name = Induction1, fmt.Sprintf("Induction-1, schedule %d", opt.Schedule)
			}
			rep, err := Run(l, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rep.Valid != exit || !rep.UsedParallel || !a.Equal(want) {
				t.Errorf("%s: valid %d (want %d), parallel %v, arrays equal %v",
					name, rep.Valid, exit, rep.UsedParallel, a.Equal(want))
			}
			if rep.Executed != rep.Valid+rep.Overshot {
				t.Errorf("%s: executed %d != valid %d + overshot %d", name, rep.Executed, rep.Valid, rep.Overshot)
			}
			if ind1 {
				if rep.Executed != n || rep.Strategy != "Induction-1 + speculation" {
					t.Errorf("%s: executed %d of %d as %q", name, rep.Executed, n, rep.Strategy)
				}
				continue
			}
			if rep.Strategy != "Induction-2 + speculation" {
				t.Errorf("%s: strategy %q", name, rep.Strategy)
			}
			if limit := rep.Valid + procs*maxChunk; rep.Executed > limit {
				t.Errorf("%s: executed %d iterations, more than valid + procs x chunk = %d", name, rep.Executed, limit)
			}
		}
	}
}
