package speculate

import (
	"math/rand"
	"testing"

	"whilepar/internal/mem"
	"whilepar/internal/obs"
	"whilepar/internal/sched"
	"whilepar/internal/window"
)

// depLoop is the canonical recovery workload: iteration i writes its
// own element A[i] = 100+i, except iteration r, which exposed-reads
// A[w] first (w < r) and writes A[r] = 1000 + A[w] — one cross-
// iteration flow dependence whose earliest participant is w.  exit < 0
// disables the termination condition; otherwise iteration exit quits
// before storing.
type depLoop struct {
	a       *mem.Array
	n       int
	w, r    int
	exit    int
	initial []float64
}

func newDepLoop(n, w, r, exit int) *depLoop {
	a := mem.NewArray("A", n)
	init := make([]float64, n)
	for i := range init {
		init[i] = float64(-i) // nonzero pre-loop state catches restore bugs
		a.Data[i] = init[i]
	}
	return &depLoop{a: a, n: n, w: w, r: r, exit: exit, initial: init}
}

// access performs iteration i's body through the tracker.
func (d *depLoop) access(tr mem.Tracker, i, vpn int) {
	if i == d.r {
		v := tr.Load(d.a, d.w, i, vpn)
		tr.Store(d.a, i, 1000+v, i, vpn)
		return
	}
	tr.Store(d.a, i, float64(100+i), i, vpn)
}

// seqRange executes [lo, hi) sequentially against the live array and
// returns (valid-in-range, done).
func (d *depLoop) seqRange(lo, hi int) (int, bool) {
	for i := lo; i < hi; i++ {
		if i == d.exit {
			return i - lo, true
		}
		if i == d.r {
			d.a.Data[i] = 1000 + d.a.Data[d.w]
		} else {
			d.a.Data[i] = float64(100 + i)
		}
	}
	return hi - lo, false
}

// oracle returns (final array state, valid count) of the purely
// sequential execution, computed on a private copy.
func (d *depLoop) oracle() ([]float64, int) {
	out := append([]float64(nil), d.initial...)
	valid := d.n
	for i := 0; i < d.n; i++ {
		if i == d.exit {
			valid = i
			break
		}
		if i == d.r {
			out[i] = 1000 + out[d.w]
		} else {
			out[i] = float64(100 + i)
		}
	}
	return out, valid
}

func (d *depLoop) par(procs int) ParallelRunner {
	return func(tr mem.Tracker) (int, error) {
		res := sched.DOALL(d.n, sched.Options{Procs: procs}, func(i, vpn int) sched.Control {
			if i == d.exit {
				return sched.Quit
			}
			d.access(tr, i, vpn)
			return sched.Continue
		})
		return res.QuitIndex, nil
	}
}

func (d *depLoop) stripPar(procs int) StripPar {
	return func(tr mem.Tracker, lo, hi int) (int, bool, error) {
		res := sched.DOALL(hi-lo, sched.Options{Procs: procs}, func(k, vpn int) sched.Control {
			i := lo + k
			if i == d.exit {
				return sched.Quit
			}
			d.access(tr, i, vpn)
			return sched.Continue
		})
		return res.QuitIndex, res.QuitIndex < hi-lo, nil
	}
}

func (d *depLoop) reset() {
	copy(d.a.Data, d.initial)
}

func (d *depLoop) checkState(t *testing.T, label string, want []float64) {
	t.Helper()
	for i, v := range d.a.Data {
		if v != want[i] {
			t.Fatalf("%s: A[%d] = %v, want %v", label, i, v, want[i])
		}
	}
}

// TestRunPartialRecoveryEquivalence checks the tentpole equivalence on
// randomized violation positions: partial recovery, the retained
// full-restore baseline, and the sequential oracle must produce
// bit-identical state and the same valid count.  procs is kept at 1 so
// the dependent accesses cannot physically race; the recovery logic
// (marks, stamps, violation index, partial commit) is identical at any
// width.
func TestRunPartialRecoveryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(150) + 20
		w := rng.Intn(n - 1)
		r := w + 1 + rng.Intn(n-w-1)
		exit := -1
		if rng.Intn(3) == 0 {
			exit = rng.Intn(n)
		}
		d := newDepLoop(n, w, r, exit)
		wantState, wantValid := d.oracle()

		seqFull := func() int {
			v, _ := d.seqRange(0, d.n)
			return v
		}
		mkSpec := func(recover bool) Spec {
			s := Spec{Procs: 1, Shared: []*mem.Array{d.a}, Tested: []*mem.Array{d.a}, Metrics: obs.NewMetrics()}
			if recover {
				s.Recovery = Recovery{
					Enabled: true,
					SeqFrom: func(from int) int {
						v, _ := d.seqRange(from, d.n)
						return from + v
					},
				}
			}
			return s
		}

		// Baseline: full restore + sequential re-execution.
		d.reset()
		repBase, err := Run(mkSpec(false), d.par(1), seqFull)
		if err != nil {
			t.Fatal(err)
		}
		d.checkState(t, "baseline", wantState)
		if repBase.Valid != wantValid {
			t.Fatalf("baseline valid = %d, want %d (n=%d w=%d r=%d exit=%d)", repBase.Valid, wantValid, n, w, r, exit)
		}

		// Partial recovery.
		d.reset()
		repRec, err := Run(mkSpec(true), d.par(1), seqFull)
		if err != nil {
			t.Fatal(err)
		}
		d.checkState(t, "recovery", wantState)
		if repRec.Valid != wantValid {
			t.Fatalf("recovery valid = %d, want %d (n=%d w=%d r=%d exit=%d)", repRec.Valid, wantValid, n, w, r, exit)
		}

		// When the violation is live (both participants below the valid
		// bound and w > 0), recovery must have salvaged exactly [0, w).
		violLive := w > 0 && (exit < 0 || (w < exit && r < exit))
		if violLive {
			if repRec.PrefixCommitted != w {
				t.Fatalf("PrefixCommitted = %d, want %d (n=%d r=%d exit=%d)", repRec.PrefixCommitted, w, n, r, exit)
			}
			if repRec.UsedParallel != true || repRec.Failure == "" {
				t.Fatalf("recovery report should keep the parallel prefix and record the failure: %+v", repRec)
			}
			if repBase.UsedParallel {
				t.Fatalf("baseline must not report parallel use after a violation: %+v", repBase)
			}
		}
	}
}

// TestRunStrippedPartialRecovery checks the strip engine commits the
// valid prefix of a failed strip and re-executes only its tail.
func TestRunStrippedPartialRecovery(t *testing.T) {
	// Violation inside the second strip: writer 70, reader 76.
	d := newDepLoop(200, 70, 76, -1)
	wantState, wantValid := d.oracle()
	mx := obs.NewMetrics()
	spec := Spec{
		Procs: 1, Shared: []*mem.Array{d.a}, Tested: []*mem.Array{d.a},
		Metrics:  mx,
		Recovery: Recovery{Enabled: true},
	}
	rep, err := RunStripped(spec, d.n, 50, d.stripPar(1), d.seqRange)
	if err != nil {
		t.Fatal(err)
	}
	d.checkState(t, "stripped-recovery", wantState)
	if rep.Valid != wantValid {
		t.Fatalf("valid = %d, want %d", rep.Valid, wantValid)
	}
	// The failed strip [50,100) salvages [50,70): 20 iterations.
	if rep.PrefixCommitted != 20 {
		t.Fatalf("PrefixCommitted = %d, want 20", rep.PrefixCommitted)
	}
	if rep.SeqStrips != 1 {
		t.Fatalf("SeqStrips = %d, want 1", rep.SeqStrips)
	}
	s := mx.Snapshot()
	if s.PrefixCommitted != 20 || s.RespecRounds != 1 {
		t.Fatalf("metrics prefix=%d rounds=%d, want 20/1", s.PrefixCommitted, s.RespecRounds)
	}

	// With recovery off the same strip falls back whole — identical
	// final state, no salvage.
	d.reset()
	spec.Recovery = Recovery{}
	rep2, err := RunStripped(spec, d.n, 50, d.stripPar(1), d.seqRange)
	if err != nil {
		t.Fatal(err)
	}
	d.checkState(t, "stripped-baseline", wantState)
	if rep2.PrefixCommitted != 0 || rep2.Valid != wantValid {
		t.Fatalf("baseline strip report %+v", rep2)
	}
}

// TestRunStrippedRecoveryEquivalenceRandomized sweeps random violation
// positions, strip sizes and exits through the strip engine's
// partial-commit path: wherever the dependence pair falls relative to
// the strip boundaries (same strip, straddling, writer at a strip's
// first iteration, beyond the exit), final state and valid count must
// equal the sequential oracle's.
func TestRunStrippedRecoveryEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	salvaged := 0
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(200) + 30
		w := rng.Intn(n - 1)
		r := w + 1 + rng.Intn(n-w-1)
		exit := -1
		if rng.Intn(3) == 0 {
			exit = rng.Intn(n)
		}
		strip := 8 + rng.Intn(n-7)
		d := newDepLoop(n, w, r, exit)
		wantState, wantValid := d.oracle()
		// MaxRounds must not matter here: a strip recovers with one
		// partial commit and a sequential tail, never a renewed round.
		spec := Spec{
			Procs: 1, Shared: []*mem.Array{d.a}, Tested: []*mem.Array{d.a},
			Recovery: Recovery{Enabled: true, MaxRounds: rng.Intn(4) + 1},
		}
		rep, err := RunStripped(spec, d.n, strip, d.stripPar(1), d.seqRange)
		if err != nil {
			t.Fatal(err)
		}
		d.checkState(t, "stripped-recovery-rand", wantState)
		if rep.Valid != wantValid {
			t.Fatalf("valid = %d, want %d (n=%d w=%d r=%d exit=%d strip=%d)", rep.Valid, wantValid, n, w, r, exit, strip)
		}
		if rep.PrefixCommitted > 0 {
			salvaged++
		}
	}
	if salvaged == 0 {
		t.Fatal("no trial took the partial-commit path: the generator went vacuous")
	}
}

// TestRunWindowedRecoveryRandomizedViolations is the windowed
// PD-failure path under the race detector: randomized violation
// positions with the dependence pair separated by more than any window
// in effect, so the sliding-window invariant itself orders the
// conflicting accesses (iteration r cannot issue until w completed) —
// the PD test still flags the dependence and recovery must reproduce
// the sequential oracle, with Undone/Valid accounting to match.
func TestRunWindowedRecoveryRandomizedViolations(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		win := 8 + rng.Intn(8) // max window in effect (policy only shrinks before success)
		n := 120 + rng.Intn(120)
		w := rng.Intn(n - win - 2)
		r := w + win + 1 + rng.Intn(n-w-win-1)
		exit := -1
		if rng.Intn(3) == 0 {
			exit = rng.Intn(n)
		}
		procs := 1 + rng.Intn(3)
		d := newDepLoop(n, w, r, exit)
		wantState, wantValid := d.oracle()

		mx := obs.NewMetrics()
		spec := Spec{
			Procs: procs, Shared: []*mem.Array{d.a}, Tested: []*mem.Array{d.a},
			Metrics: mx,
			Recovery: Recovery{
				Enabled: true,
				SeqFrom: func(from int) int {
					v, _ := d.seqRange(from, d.n)
					return from + v
				},
			},
		}
		body := func(tr mem.Tracker, i, vpn int) bool {
			if i == d.exit {
				return true
			}
			d.access(tr, i, vpn)
			return false
		}
		seqFull := func() int {
			v, _ := d.seqRange(0, d.n)
			return v
		}
		rep, err := RunWindowed(spec, n, window.Config{Window: win}, body, seqFull)
		if err != nil {
			t.Fatal(err)
		}
		d.checkState(t, "windowed-recovery", wantState)
		if rep.Valid != wantValid {
			t.Fatalf("valid = %d, want %d (n=%d w=%d r=%d exit=%d win=%d procs=%d)",
				rep.Valid, wantValid, n, w, r, exit, win, procs)
		}

		// Accounting against the element-wise structure: when the
		// violation is live, the first partial commit resumes exactly at
		// w, and the suffix undo covers at least the stores of [w,
		// valid) minus the quitting iteration.
		violLive := w > 0 && (exit < 0 || (w < exit && r < exit))
		if violLive {
			if rep.PrefixCommitted != w {
				t.Fatalf("PrefixCommitted = %d, want %d (n=%d r=%d exit=%d)", rep.PrefixCommitted, w, n, r, exit)
			}
			if rep.RespecRounds < 1 {
				t.Fatalf("RespecRounds = %d, want >= 1", rep.RespecRounds)
			}
			if !rep.UsedParallel {
				t.Fatalf("recovery kept a parallel prefix; report %+v", rep)
			}
			firstRoundValid := wantValid
			if minUndone := firstRoundValid - w - 1; rep.Undone < minUndone {
				t.Fatalf("Undone = %d, want >= %d (suffix stores)", rep.Undone, minUndone)
			}
			s := mx.Snapshot()
			if s.PrefixCommitted != int64(w) || s.SuffixUndone == 0 {
				t.Fatalf("metrics prefix=%d suffix-undone=%d, want %d/>0", s.PrefixCommitted, s.SuffixUndone, w)
			}
		} else if w == 0 && (exit < 0 || (w < exit && r < exit)) {
			// Violation at iteration 0: nothing to salvage; the engine
			// must still converge to the oracle (checked above).
			_ = rep
		}
	}
}

// TestRunWindowedBaselineUnchanged pins the recovery-off windowed path
// to the old all-or-nothing behaviour.
func TestRunWindowedBaselineUnchanged(t *testing.T) {
	d := newDepLoop(150, 40, 60, -1)
	wantState, wantValid := d.oracle()
	spec := Spec{Procs: 2, Shared: []*mem.Array{d.a}, Tested: []*mem.Array{d.a}}
	body := func(tr mem.Tracker, i, vpn int) bool {
		d.access(tr, i, vpn)
		return false
	}
	rep, err := RunWindowed(spec, d.n, window.Config{Window: 16}, body, func() int {
		v, _ := d.seqRange(0, d.n)
		return v
	})
	if err != nil {
		t.Fatal(err)
	}
	d.checkState(t, "windowed-baseline", wantState)
	if rep.UsedParallel || rep.Valid != wantValid || rep.RespecRounds != 0 || rep.PrefixCommitted != 0 {
		t.Fatalf("baseline windowed report %+v", rep)
	}
}
