package speculate

import (
	"context"
	"testing"

	"whilepar/internal/mem"
)

// fakeController drives RunTunedCtx from a test script: a fixed strip
// size plus optional one-way switches after a given number of
// observations.
type fakeController struct {
	strip      int
	observed   int
	pipeAfter  int // observations before SwitchPipeline reports true (0 = never)
	seqAfter   int // observations before SwitchSequential reports true (0 = never)
	committed  int
	violations int
}

func (f *fakeController) NextStrip(done, total int) int { return f.strip }

func (f *fakeController) Observe(lo, valid, hi int, committed bool, ns int64) {
	f.observed++
	if committed {
		f.committed++
	} else {
		f.violations++
	}
}

func (f *fakeController) SwitchPipeline() bool {
	return f.pipeAfter > 0 && f.observed >= f.pipeAfter
}

func (f *fakeController) SwitchSequential() bool {
	return f.seqAfter > 0 && f.observed >= f.seqAfter
}

func TestRunTunedCleanLoop(t *testing.T) {
	n := 400
	a := mem.NewArray("A", n)
	par, seq := stripLoop(a, -1, 0, 0)
	ctl := &fakeController{strip: 64}
	rep, err := RunTunedCtx(context.Background(), Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}},
		0, n, ctl, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != n || rep.SeqStrips != 0 {
		t.Fatalf("report %+v", rep)
	}
	if ctl.observed != rep.Strips || ctl.violations != 0 {
		t.Fatalf("controller saw %d strips (%d violations), engine ran %d", ctl.observed, ctl.violations, rep.Strips)
	}
	expectState(t, a, n)
}

func TestRunTunedStartOffset(t *testing.T) {
	// The engine must honour a committed prefix: iterations below start
	// were already run directly (the orchestrator's probe), the strips
	// use global indices, and Valid counts from start.
	n, start := 300, 37
	a := mem.NewArray("A", n)
	for i := 0; i < start; i++ {
		a.Data[i] = float64(i + 1) // the probe's direct writes
	}
	par, seq := stripLoop(a, -1, 0, 0)
	ctl := &fakeController{strip: 48}
	rep, err := RunTunedCtx(context.Background(), Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}},
		start, n, ctl, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != n-start {
		t.Fatalf("Valid = %d, want %d (report %+v)", rep.Valid, n-start, rep)
	}
	expectState(t, a, n)
}

func TestRunTunedViolationFallsBackPerStrip(t *testing.T) {
	// A planted dependence inside one strip: that strip aborts, re-runs
	// sequentially, and the rest stays speculative. Final state is the
	// sequential oracle's.
	n := 320
	a := mem.NewArray("A", n)
	par, seq := stripLoop(a, -1, 70, 90)
	ctl := &fakeController{strip: 64}
	rep, err := RunTunedCtx(context.Background(), Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}},
		0, n, ctl, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != n || rep.SeqStrips == 0 {
		t.Fatalf("report %+v", rep)
	}
	if ctl.violations == 0 {
		t.Fatal("controller never observed the violation")
	}
	expectState(t, a, n)
}

func TestRunTunedSequentialDemotion(t *testing.T) {
	// After the controller demotes, the engine hands the remainder
	// back: the committed prefix stands, nothing beyond it has run, and
	// the caller's sequential pass from there completes the loop.
	n := 500
	a := mem.NewArray("A", n)
	par, seq := stripLoop(a, -1, 0, 0)
	ctl := &fakeController{strip: 50, seqAfter: 2}
	rep, err := RunTunedCtx(context.Background(), Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}},
		0, n, ctl, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Demoted || rep.Done || rep.Valid != 100 || rep.Strips != 2 || rep.SeqStrips != 0 {
		t.Fatalf("want 2 speculative strips and the remainder handed back, got %+v", rep)
	}
	expectState(t, a, 100)
	if v, done := seq(rep.Valid, n); v != n-rep.Valid || done {
		t.Fatalf("sequential tail ran %d iterations (done %v), want %d", v, done, n-rep.Valid)
	}
	expectState(t, a, n)
}

func TestRunTunedPipelinePromotion(t *testing.T) {
	// After the controller promotes, the remainder runs under the
	// pipelined engine — same committed state, overlap accounted.
	n := 1000
	a := mem.NewArray("A", n)
	par, seq := stripLoop(a, -1, 0, 0)
	ctl := &fakeController{strip: 100, pipeAfter: 2}
	rep, err := RunTunedCtx(context.Background(), Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}},
		0, n, ctl, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != n {
		t.Fatalf("report %+v", rep)
	}
	if rep.Strips <= 2 {
		t.Fatalf("pipelined remainder should add strips: %+v", rep)
	}
	expectState(t, a, n)
}

func TestRunStrippedPipelinedFromOffset(t *testing.T) {
	n, start := 600, 41
	a := mem.NewArray("A", n)
	for i := 0; i < start; i++ {
		a.Data[i] = float64(i + 1)
	}
	par, seq := stripLoop(a, -1, 0, 0)
	rep, err := RunStrippedPipelinedFromCtx(context.Background(),
		Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}},
		start, n, 64, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != n-start {
		t.Fatalf("Valid = %d, want %d (report %+v)", rep.Valid, n-start, rep)
	}
	expectState(t, a, n)
}

func TestRunStrippedPipelinedFromOffsetWithExit(t *testing.T) {
	n, start, exit := 600, 41, 333
	a := mem.NewArray("A", n)
	for i := 0; i < start; i++ {
		a.Data[i] = float64(i + 1)
	}
	par, seq := stripLoop(a, exit, 0, 0)
	rep, err := RunStrippedPipelinedFromCtx(context.Background(),
		Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}},
		start, n, 64, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != exit-start || !rep.Done {
		t.Fatalf("Valid = %d, want %d (report %+v)", rep.Valid, exit-start, rep)
	}
	expectState(t, a, exit)
}

func TestRunTunedRejectsNilController(t *testing.T) {
	par, seq := stripLoop(mem.NewArray("A", 8), -1, 0, 0)
	if _, err := RunTunedCtx(context.Background(), Spec{Procs: 2}, 0, 8, nil, par, seq); err == nil {
		t.Fatal("nil controller accepted")
	}
}
