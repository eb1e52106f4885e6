package stripmine

import (
	"testing"

	"whilepar/internal/mem"
	"whilepar/internal/sched"
	"whilepar/internal/simproc"
	"whilepar/internal/tsmem"
)

func TestRunCoversSpaceInOrder(t *testing.T) {
	var strips [][2]int
	valid, err := Run(100, 32, func(lo, hi int) StripResult {
		strips = append(strips, [2]int{lo, hi})
		return StripResult{Valid: hi - lo}
	})
	if err != nil || valid != 100 {
		t.Fatalf("valid=%d err=%v", valid, err)
	}
	want := [][2]int{{0, 32}, {32, 64}, {64, 96}, {96, 100}}
	if len(strips) != len(want) {
		t.Fatalf("strips = %v", strips)
	}
	for i := range want {
		if strips[i] != want[i] {
			t.Fatalf("strip %d = %v, want %v", i, strips[i], want[i])
		}
	}
}

func TestRunStopsAtExit(t *testing.T) {
	calls := 0
	valid, err := Run(1000, 50, func(lo, hi int) StripResult {
		calls++
		if lo <= 120 && 120 < hi {
			return StripResult{Valid: 120 - lo, Done: true}
		}
		return StripResult{Valid: hi - lo}
	})
	if err != nil || valid != 120 {
		t.Fatalf("valid=%d err=%v", valid, err)
	}
	if calls != 3 { // [0,50) [50,100) [100,150)
		t.Fatalf("executor called %d times, want 3", calls)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(10, 0, func(lo, hi int) StripResult { return StripResult{} }); err == nil {
		t.Fatal("zero strip size must be rejected")
	}
	if _, err := Run(10, 4, func(lo, hi int) StripResult { return StripResult{Valid: 99} }); err == nil {
		t.Fatal("over-reporting executor must be rejected")
	}
	valid, err := Run(0, 4, func(lo, hi int) StripResult {
		t.Fatal("executor must not run for empty space")
		return StripResult{}
	})
	if valid != 0 || err != nil {
		t.Fatal("empty space should be a no-op")
	}
}

func TestMemoryBound(t *testing.T) {
	if MemoryBound(100, 3) != 300 {
		t.Fatal("MemoryBound broken")
	}
}

// Strip-mined speculative execution with per-strip time-stamp reuse:
// the stamp memory never exceeds the strip bound, and the result
// matches the sequential loop.
func TestStripMinedSpeculationMatchesSequential(t *testing.T) {
	n, exit, strip := 200, 137, 32
	parA := mem.NewArray("A", n)
	seqA := mem.NewArray("A", n)
	for i := 0; i < exit; i++ {
		seqA.Data[i] = float64(i)
	}

	valid, err := Run(n, strip, func(lo, hi int) StripResult {
		ts := tsmem.NewSharded(4, parA) // fresh stamps per strip: bounded memory
		ts.Checkpoint()
		tr := ts.Tracker()
		res := sched.DOALL(hi-lo, sched.Options{Procs: 4}, func(j, vpn int) sched.Control {
			i := lo + j
			if i == exit {
				return sched.Quit
			}
			tr.Store(parA, i, float64(i), i, vpn)
			return sched.Continue
		})
		if res.QuitIndex < hi-lo {
			if _, err := ts.Undo(lo + res.QuitIndex); err != nil {
				t.Fatal(err)
			}
			return StripResult{Valid: res.QuitIndex, Done: true}
		}
		return StripResult{Valid: hi - lo}
	})
	if err != nil || valid != exit {
		t.Fatalf("valid=%d err=%v, want %d", valid, err, exit)
	}
	if !parA.Equal(seqA) {
		t.Fatal("strip-mined speculation diverged from sequential")
	}
}

func TestSimulateBarrierCostGrowsWithStripCount(t *testing.T) {
	work := func(int) float64 { return 10 }
	base := SimSpec{Total: 1024, Exit: -1, Work: work, Dispatch: 0.5, Barrier: 50}
	fine := base
	fine.Strip = 16
	coarse := base
	coarse.Strip = 256
	tFine := Simulate(simproc.New(8), fine)
	tCoarse := Simulate(simproc.New(8), coarse)
	if tFine <= tCoarse {
		t.Fatalf("more strips should cost more barriers: fine=%v coarse=%v", tFine, tCoarse)
	}
}

func TestSimulateStopsAfterExitStrip(t *testing.T) {
	work := func(int) float64 { return 1 }
	s := SimSpec{Total: 10000, Strip: 100, Exit: 150, Work: work, Barrier: 1}
	tExit := Simulate(simproc.New(4), s)
	s2 := s
	s2.Exit = -1
	tFull := Simulate(simproc.New(4), s2)
	if tExit >= tFull/10 {
		t.Fatalf("early exit should cut simulated time sharply: %v vs %v", tExit, tFull)
	}
	// Degenerate strip coerces to 1.
	s3 := SimSpec{Total: 10, Strip: 0, Exit: -1, Work: work}
	if got := Simulate(simproc.New(2), s3); got <= 0 {
		t.Fatalf("degenerate strip simulate = %v", got)
	}
}
