package speculate

import (
	"context"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"whilepar/internal/mem"
	"whilepar/internal/obs"
	"whilepar/internal/sched"
)

// parallelLoop runs a simple DOALL over n iterations with the given
// per-iteration access function and exit index, returning the valid
// count the way an induction-method runner would.
func parallelLoop(n, procs, exit int, access func(tr mem.Tracker, i, vpn int)) ParallelRunner {
	return func(tr mem.Tracker) (int, error) {
		res := sched.DOALL(n, sched.Options{Procs: procs}, func(i, vpn int) sched.Control {
			if i == exit {
				return sched.Quit
			}
			access(tr, i, vpn)
			return sched.Continue
		})
		return res.QuitIndex, nil
	}
}

func TestIndependentLoopPassesAndCommits(t *testing.T) {
	n := 100
	a := mem.NewArray("A", n)
	spec := Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}}
	rep, err := Run(spec,
		parallelLoop(n, 4, -1, func(tr mem.Tracker, i, vpn int) {
			tr.Store(a, i, float64(i), i, vpn)
		}),
		func() int { t.Fatal("sequential fallback must not run"); return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedParallel || rep.Valid != n || rep.Failure != "" {
		t.Fatalf("report %+v", rep)
	}
	if len(rep.PD) != 1 || !rep.PD[0].DOALL {
		t.Fatalf("PD verdicts %+v", rep.PD)
	}
	for i := 0; i < n; i++ {
		if a.Data[i] != float64(i) {
			t.Fatalf("A[%d] = %v", i, a.Data[i])
		}
	}
}

func TestDependentLoopFallsBackSequentially(t *testing.T) {
	// Flow dependence A[i] = A[i-1] + 1: speculation must fail, state
	// must be restored, and the sequential execution must produce the
	// correct prefix sums.
	n := 50
	a := mem.NewArray("A", n)
	spec := Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}}
	rep, err := Run(spec,
		parallelLoop(n, 4, -1, func(tr mem.Tracker, i, vpn int) {
			prev := 0.0
			if i > 0 {
				prev = tr.Load(a, i-1, i, vpn)
			}
			tr.Store(a, i, prev+1, i, vpn)
		}),
		func() int {
			for i := 0; i < n; i++ {
				prev := 0.0
				if i > 0 {
					prev = a.Data[i-1]
				}
				a.Data[i] = prev + 1
			}
			return n
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedParallel {
		t.Fatal("dependent loop must not keep the parallel result")
	}
	if !strings.Contains(rep.Failure, "PD test failed") {
		t.Fatalf("failure = %q", rep.Failure)
	}
	for i := 0; i < n; i++ {
		if a.Data[i] != float64(i+1) {
			t.Fatalf("sequential re-execution wrong: A[%d] = %v", i, a.Data[i])
		}
	}
}

func TestOvershootUndoneOnSuccess(t *testing.T) {
	// RV exit at 30 of 100: iterations beyond 30 wrote speculatively
	// and must be restored; the PD test passes (independent accesses).
	n := 100
	a := mem.NewArray("A", n)
	for i := range a.Data {
		a.Data[i] = -5
	}
	spec := Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}}
	// Induction-1 style runner: the full space executes speculatively
	// (guaranteeing overshoot), the exit found by the post-loop minimum.
	rep, err := Run(spec,
		func(tr mem.Tracker) (int, error) {
			sched.DOALL(n, sched.Options{Procs: 4}, func(i, vpn int) sched.Control {
				if i != 30 {
					tr.Store(a, i, float64(i), i, vpn)
				}
				return sched.Continue
			})
			return 30, nil
		},
		func() int { t.Fatal("must not fall back"); return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedParallel || rep.Valid != 30 {
		t.Fatalf("report %+v", rep)
	}
	for i := 0; i < 30; i++ {
		if a.Data[i] != float64(i) {
			t.Fatalf("valid write lost at %d", i)
		}
	}
	for i := 30; i < n; i++ {
		if a.Data[i] != -5 {
			t.Fatalf("overshoot not undone at %d: %v", i, a.Data[i])
		}
	}
	if rep.Undone == 0 {
		t.Fatal("report should count undone locations")
	}
}

func TestPrivatizationValidatesOutputDeps(t *testing.T) {
	// Every iteration writes tmp[0] then reads it: output dependences
	// only.  Unprivatized this fails; privatized it passes, and the
	// live value copy-out delivers the last valid iteration's write.
	n := 40
	tmp := mem.NewArray("tmp", 1)
	sum := mem.NewArray("sum", n)
	runSpec := func(spec Spec) (Report, bool) {
		fallback := false
		rep, err := Run(spec,
			parallelLoop(n, 4, -1, func(tr mem.Tracker, i, vpn int) {
				tr.Store(tmp, 0, float64(i*2), i, vpn)
				v := tr.Load(tmp, 0, i, vpn)
				tr.Store(sum, i, v, i, vpn)
			}),
			func() int {
				fallback = true
				for i := 0; i < n; i++ {
					tmp.Data[0] = float64(i * 2)
					sum.Data[i] = tmp.Data[0]
				}
				return n
			})
		if err != nil {
			t.Fatal(err)
		}
		return rep, fallback
	}

	// Without privatization: PD fails on tmp.
	rep, fb := runSpec(Spec{Procs: 4, Shared: []*mem.Array{tmp, sum}, Tested: []*mem.Array{tmp, sum}})
	if rep.UsedParallel || !fb {
		t.Fatalf("unprivatized run should fall back: %+v", rep)
	}

	// With tmp privatized and live: parallel run survives.
	tmp2 := mem.NewArray("tmp", 1)
	sum2 := mem.NewArray("sum", n)
	rep2, err := Run(Spec{
		Procs:      4,
		Shared:     []*mem.Array{sum2},
		Tested:     []*mem.Array{tmp2, sum2},
		Privatized: []PrivSpec{{Arr: tmp2, Live: true}},
	},
		parallelLoop(n, 4, -1, func(tr mem.Tracker, i, vpn int) {
			tr.Store(tmp2, 0, float64(i*2), i, vpn)
			v := tr.Load(tmp2, 0, i, vpn)
			tr.Store(sum2, i, v, i, vpn)
		}),
		func() int { t.Fatal("privatized run must not fall back"); return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.UsedParallel {
		t.Fatalf("report %+v", rep2)
	}
	for i := 0; i < n; i++ {
		if sum2.Data[i] != float64(i*2) {
			t.Fatalf("sum[%d] = %v", i, sum2.Data[i])
		}
	}
	// Last-value copy-out: tmp must hold the final iteration's write.
	if tmp2.Data[0] != float64((n-1)*2) {
		t.Fatalf("live copy-out = %v, want %v", tmp2.Data[0], float64((n-1)*2))
	}
	if rep2.CopiedOut != 1 {
		t.Fatalf("CopiedOut = %d", rep2.CopiedOut)
	}
}

func TestExceptionTriggersFallback(t *testing.T) {
	n := 20
	a := mem.NewArray("A", n)
	spec := Spec{Procs: 2, Shared: []*mem.Array{a}}
	seqRan := false
	rep, err := Run(spec,
		func(tr mem.Tracker) (int, error) {
			var ex ExceptionLog
			sched.DOALL(n, sched.Options{Procs: 2}, func(i, vpn int) sched.Control {
				ex.Guard(func() {
					if i == 7 {
						panic("simulated floating-point exception")
					}
					tr.Store(a, i, 1, i, vpn)
				})
				return sched.Continue
			})
			return n, ex.Err()
		},
		func() int {
			seqRan = true
			for i := 0; i < n; i++ {
				if i != 7 {
					a.Data[i] = 1
				}
			}
			return n
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedParallel || !seqRan {
		t.Fatalf("exception did not trigger fallback: %+v", rep)
	}
	if !strings.Contains(rep.Failure, "exception") {
		t.Fatalf("failure = %q", rep.Failure)
	}
}

func TestStampThresholdFallbackWhenPredictionWrong(t *testing.T) {
	// Threshold 50 but the loop exits at 10: stamps below 50 were never
	// made, so undo is impossible and the engine must fall back.
	n := 100
	a := mem.NewArray("A", n)
	spec := Spec{Procs: 2, Shared: []*mem.Array{a}, StampThreshold: 50}
	seqRan := false
	rep, err := Run(spec,
		parallelLoop(n, 2, 10, func(tr mem.Tracker, i, vpn int) {
			tr.Store(a, i, 9, i, vpn)
		}),
		func() int {
			seqRan = true
			for i := 0; i < 10; i++ {
				a.Data[i] = 9
			}
			return 10
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedParallel || !seqRan || rep.Valid != 10 {
		t.Fatalf("report %+v", rep)
	}
	// State must be exactly the sequential outcome.
	for i := 0; i < n; i++ {
		want := 0.0
		if i < 10 {
			want = 9
		}
		if a.Data[i] != want {
			t.Fatalf("A[%d] = %v, want %v", i, a.Data[i], want)
		}
	}
}

func TestRunRejectsMissingRunners(t *testing.T) {
	if _, err := Run(Spec{}, nil, nil); err == nil {
		t.Fatal("nil runners must be rejected")
	}
}

func TestRunTwice(t *testing.T) {
	n := 60
	a := mem.NewArray("A", n)
	exit := 25
	valid, err := RunTwiceCtx(context.Background(), []*mem.Array{a}, 1, obs.Hooks{},
		func() (int, error) {
			// First pass: full speculative space, garbage past exit.
			res := sched.DOALL(n, sched.Options{Procs: 4}, func(i, vpn int) sched.Control {
				if i == exit {
					return sched.Quit
				}
				a.Data[i] = 999 // scratch values; restored afterwards
				return sched.Continue
			})
			return res.QuitIndex, nil
		},
		func(valid int) error {
			sched.DOALL(valid, sched.Options{Procs: 4}, func(i, vpn int) sched.Control {
				a.Data[i] = float64(i)
				return sched.Continue
			})
			return nil
		})
	if err != nil || valid != exit {
		t.Fatalf("valid=%d err=%v", valid, err)
	}
	for i := 0; i < n; i++ {
		want := 0.0
		if i < exit {
			want = float64(i)
		}
		if a.Data[i] != want {
			t.Fatalf("A[%d] = %v, want %v", i, a.Data[i], want)
		}
	}
	// First-run error restores and propagates.
	b := mem.NewArray("B", 4)
	b.Data[0] = 3
	_, err = RunTwiceCtx(context.Background(), []*mem.Array{b}, 1, obs.Hooks{},
		func() (int, error) { b.Data[0] = 77; return 0, errors.New("boom") },
		func(int) error { t.Fatal("second run must not execute"); return nil })
	if err == nil || b.Data[0] != 3 {
		t.Fatalf("err=%v b=%v", err, b.Data[0])
	}
}

func TestExceptionLog(t *testing.T) {
	var e ExceptionLog
	if e.Err() != nil || e.Count() != 0 {
		t.Fatal("fresh log should be clean")
	}
	if ok := e.Guard(func() {}); !ok {
		t.Fatal("clean guard should return true")
	}
	if ok := e.Guard(func() { panic("x") }); ok {
		t.Fatal("panicking guard should return false")
	}
	e.Guard(func() { panic("y") })
	if e.Count() != 2 {
		t.Fatalf("Count = %d", e.Count())
	}
	if err := e.Err(); err == nil || !strings.Contains(err.Error(), "x") {
		t.Fatalf("Err = %v, want first exception preserved", err)
	}
}

// Failure injection: random iterations panic; the engine must always
// fall back and leave exactly the sequential state, never a corrupted
// mixture.
func TestRandomExceptionInjectionNeverCorruptsState(t *testing.T) {
	f := func(seed uint16, procsRaw uint8) bool {
		n := 120
		procs := int(procsRaw)%5 + 1
		panicAt := map[int]bool{
			int(seed) % n:       true,
			(int(seed) * 3) % n: true,
		}
		a := mem.NewArray("A", n)
		for i := range a.Data {
			a.Data[i] = -7
		}
		rep, err := Run(
			Spec{Procs: procs, Shared: []*mem.Array{a}},
			func(tr mem.Tracker) (int, error) {
				var ex ExceptionLog
				sched.DOALL(n, sched.Options{Procs: procs}, func(i, vpn int) sched.Control {
					ex.Guard(func() {
						if panicAt[i] {
							panic("injected")
						}
						tr.Store(a, i, float64(i), i, vpn)
					})
					return sched.Continue
				})
				return n, ex.Err()
			},
			func() int {
				for i := 0; i < n; i++ {
					if !panicAt[i] {
						a.Data[i] = float64(i)
					}
				}
				return n
			},
		)
		if err != nil || rep.UsedParallel {
			return false
		}
		for i := 0; i < n; i++ {
			want := -7.0
			if !panicAt[i] {
				want = float64(i)
			}
			if a.Data[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSparseUndoPath(t *testing.T) {
	// The hash-table undo variant: a big, sparsely written array; the
	// overshoot is undone from first-touch logs without any up-front
	// checkpoint copies.
	n := 100_000
	a := mem.NewArray("A", n)
	for i := 0; i < n; i += 500 {
		a.Data[i] = -3
	}
	exit := 80
	spec := Spec{Procs: 4, Shared: []*mem.Array{a}, SparseUndo: true}
	rep, err := Run(spec,
		func(tr mem.Tracker) (int, error) {
			// Induction-1 style: every candidate runs; writes hit only
			// every 500th element.
			sched.DOALL(200, sched.Options{Procs: 4}, func(i, vpn int) sched.Control {
				if i != exit {
					tr.Store(a, i*500, float64(i), i, vpn)
				}
				return sched.Continue
			})
			return exit, nil
		},
		func() int { t.Fatal("must not fall back"); return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedParallel || rep.Valid != exit {
		t.Fatalf("report %+v", rep)
	}
	if rep.Undone != 200-exit-1 {
		t.Fatalf("undone = %d, want %d", rep.Undone, 200-exit-1)
	}
	for i := 0; i < 200; i++ {
		want := -3.0
		if i%1 == 0 && i < exit && i != exit {
			want = float64(i)
		}
		if i >= exit {
			want = -3.0
		}
		if a.Data[i*500] != want {
			t.Fatalf("A[%d] = %v, want %v", i*500, a.Data[i*500], want)
		}
	}
}

func TestSparseUndoFallbackRestores(t *testing.T) {
	n := 1000
	a := mem.NewArray("A", n)
	a.Data[7] = 42
	spec := Spec{Procs: 2, Shared: []*mem.Array{a}, SparseUndo: true, Tested: []*mem.Array{a}}
	rep, err := Run(spec,
		func(tr mem.Tracker) (int, error) {
			// A flow dependence: every iteration reads then rewrites A[7].
			sched.DOALL(50, sched.Options{Procs: 2}, func(i, vpn int) sched.Control {
				v := tr.Load(a, 7, i, vpn)
				tr.Store(a, 7, v+1, i, vpn)
				return sched.Continue
			})
			return 50, nil
		},
		func() int {
			for i := 0; i < 50; i++ {
				a.Data[7]++
			}
			return 50
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedParallel {
		t.Fatal("dependent loop kept parallel result")
	}
	if a.Data[7] != 92 {
		t.Fatalf("A[7] = %v, want 42 restored + 50 sequential increments", a.Data[7])
	}
}

func TestSparseUndoRejectsThreshold(t *testing.T) {
	spec := Spec{SparseUndo: true, StampThreshold: 5}
	if _, err := Run(spec,
		func(mem.Tracker) (int, error) { return 0, nil },
		func() int { return 0 }); err == nil {
		t.Fatal("SparseUndo + threshold must be rejected")
	}
}
