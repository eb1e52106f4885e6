package induction

import (
	"testing"
	"testing/quick"

	"whilepar/internal/loopir"
	"whilepar/internal/mem"
	"whilepar/internal/sched"
	"whilepar/internal/simproc"
	"whilepar/internal/tsmem"
)

// rvLoop builds the archetypal DO loop with a conditional exit at
// iteration `exit`: valid iterations write A[i] = i+1.
func rvLoop(a *mem.Array, exit, max int) *loopir.Loop[int] {
	return &loopir.Loop[int]{
		Class: loopir.Class{Dispatcher: loopir.MonotonicInduction, Terminator: loopir.RV},
		Disp:  loopir.IntInduction{C: 1, B: 0},
		Body: func(it *loopir.Iter, d int) bool {
			if d == exit {
				return false
			}
			it.Store(a, d, float64(d+1))
			return true
		},
		Max: max,
	}
}

func TestRunRequiresClosedFormAndBound(t *testing.T) {
	l := &loopir.Loop[int]{
		Disp: loopir.Func[int]{StartFn: func() int { return 0 }, NextFn: func(x int) int { return x + 1 }},
		Body: func(*loopir.Iter, int) bool { return true },
		Max:  10,
	}
	if _, err := Run(l, Config{Procs: 2}); err == nil {
		t.Fatal("dispatcher without closed form must be rejected")
	}
	l2 := rvLoop(mem.NewArray("A", 10), 5, 0)
	if _, err := Run(l2, Config{Procs: 2}); err == nil {
		t.Fatal("missing upper bound must be rejected")
	}
	l3 := rvLoop(mem.NewArray("A", 10), 5, 10)
	if _, err := Run(l3, Config{Procs: 2, Schedule: sched.Schedule(9)}); err == nil {
		t.Fatal("invalid schedule must be rejected")
	}
}

func TestBothMethodsFindLastValidIteration(t *testing.T) {
	for _, m := range []Method{Induction1, Induction2} {
		for _, exit := range []int{0, 1, 37, 99} {
			a := mem.NewArray("A", 128)
			l := rvLoop(a, exit, 128)
			res, err := Run(l, Config{Procs: 6, Method: m})
			if err != nil {
				t.Fatal(err)
			}
			if res.Valid != exit {
				t.Fatalf("%v exit=%d: Valid = %d", m, exit, res.Valid)
			}
		}
	}
}

func TestNoExitRunsWholeSpace(t *testing.T) {
	for _, m := range []Method{Induction1, Induction2} {
		a := mem.NewArray("A", 64)
		l := rvLoop(a, -1, 64) // exit never fires
		res, err := Run(l, Config{Procs: 4, Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if res.Valid != 64 || res.Executed != 64 || res.Overshot != 0 {
			t.Fatalf("%v: %+v", m, res)
		}
		for i := 0; i < 64; i++ {
			if a.Data[i] != float64(i+1) {
				t.Fatalf("%v: A[%d] = %v", m, i, a.Data[i])
			}
		}
	}
}

func TestRITerminatorViaCond(t *testing.T) {
	// while (d < 40) work(d): RI condition on the dispatcher value.
	a := mem.NewArray("A", 100)
	l := &loopir.Loop[int]{
		Disp: loopir.IntInduction{C: 2, B: 0}, // d = 0,2,4,...
		Cond: func(d int) bool { return d < 40 },
		Body: func(it *loopir.Iter, d int) bool { it.Store(a, d, 1); return true },
		Max:  100,
	}
	res, err := Run(l, Config{Procs: 4, Method: Induction2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid != 20 { // d=0..38, i=0..19
		t.Fatalf("Valid = %d, want 20", res.Valid)
	}
	if got := loopir.LastValid(l); got != res.Valid {
		t.Fatalf("parallel Valid %d != sequential %d", res.Valid, got)
	}
}

func TestInduction2OvershootsLessUnderSerialExecution(t *testing.T) {
	// With 1 virtual processor, Induction-2 stops immediately at the
	// exit while Induction-1 executes the whole space.
	a := mem.NewArray("A", 1000)
	l1 := rvLoop(a, 10, 1000)
	r1, _ := Run(l1, Config{Procs: 1, Method: Induction1})
	r2, _ := Run(l1, Config{Procs: 1, Method: Induction2})
	if r1.Executed != 1000 {
		t.Fatalf("Induction-1 must execute the full space, got %d", r1.Executed)
	}
	if r2.Executed != 11 {
		t.Fatalf("Induction-2 on one processor should stop right after the exit, got %d", r2.Executed)
	}
	if r2.Overshot > r1.Overshot {
		t.Fatal("Induction-2 should not overshoot more than Induction-1")
	}
}

// Property: speculative execution + undo == sequential execution, for
// random exits, processor counts and both methods.
func TestSpeculationPlusUndoMatchesSequential(t *testing.T) {
	f := func(exitRaw, procsRaw uint8, method bool) bool {
		n := 200
		exit := int(exitRaw) % n
		procs := int(procsRaw)%6 + 1
		meth := Induction1
		if method {
			meth = Induction2
		}

		parA := mem.NewArray("A", n)
		seqA := mem.NewArray("A", n)
		for i := 0; i < n; i++ {
			parA.Data[i] = -1
			seqA.Data[i] = -1
		}

		// One stamp shard per worker: a single-shard Memory is only
		// safe when its stores are not concurrent.
		ts := tsmem.NewSharded(procs, parA)
		ts.Checkpoint()
		lp := rvLoop(parA, exit, n)
		res, err := Run(lp, Config{Procs: procs, Method: meth, Tracker: ts.Tracker()})
		if err != nil {
			return false
		}
		if _, err := ts.Undo(res.Valid); err != nil {
			return false
		}

		loopir.RunSequential(rvLoop(seqA, exit, n))
		return parA.Equal(seqA) && res.Valid == exit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStaticScheduleAlsoCorrect(t *testing.T) {
	a := mem.NewArray("A", 256)
	l := rvLoop(a, 77, 256)
	res, err := Run(l, Config{Procs: 5, Method: Induction2, Schedule: sched.Static})
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid != 77 {
		t.Fatalf("static schedule Valid = %d", res.Valid)
	}
}

func TestMethodString(t *testing.T) {
	if Induction1.String() != "Induction-1" || Induction2.String() != "Induction-2" {
		t.Fatal("method names wrong")
	}
}

func TestSimulateShapes(t *testing.T) {
	spec := SimSpec{
		U:        1000,
		Exit:     800,
		Work:     func(int) float64 { return 50 },
		ExitCost: 5, Dispatch: 1,
		Method:        Induction1,
		WritesPerIter: 2, TSCost: 1, CopyCost: 0.5,
		CheckpointWords: 2000, ReduceStep: 2,
	}
	seq := spec.SeqTime()
	if seq != 800*50+5 {
		t.Fatalf("SeqTime = %v", seq)
	}
	var prev float64 = 0
	for _, p := range []int{1, 2, 4, 8} {
		m := simproc.New(p)
		tr, total := Simulate(m, spec)
		if tr.Executed != 1000 {
			t.Fatalf("p=%d: Induction-1 must run full space, got %d", p, tr.Executed)
		}
		sp := simproc.Speedup(seq, total)
		if p == 1 && sp >= 1 {
			t.Fatalf("1-proc speculative run should be slower than sequential (overheads), got %v", sp)
		}
		if sp < prev {
			t.Fatalf("speedup not monotone at p=%d: %v < %v", p, sp, prev)
		}
		prev = sp
	}
	// Induction-2 beats Induction-1 when the exit is early.
	spec.Exit = 50
	spec.Method = Induction1
	_, t1 := Simulate(simproc.New(8), spec)
	spec.Method = Induction2
	_, t2 := Simulate(simproc.New(8), spec)
	if t2 >= t1 {
		t.Fatalf("QUIT should win on early exits: Induction-2 %v vs Induction-1 %v", t2, t1)
	}
}

func TestIdealSpeedupCappedByIterations(t *testing.T) {
	spec := SimSpec{U: 4, Exit: -1, Work: func(int) float64 { return 1 }}
	if got := spec.IdealSpeedup(16); got != 4 {
		t.Fatalf("ideal speedup = %v, want capped at 4 iterations", got)
	}
	if got := spec.IdealSpeedup(0); got != 1 {
		t.Fatalf("ideal speedup with p=0 coerced: %v", got)
	}
}
