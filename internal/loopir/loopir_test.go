package loopir

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"whilepar/internal/mem"
)

func TestTaxonomyMatchesTable1(t *testing.T) {
	// The expected cells, transcribed from Table 1 of the paper.
	// Row order: RI then RV; column order: monotonic induction,
	// non-monotonic induction, associative recurrence, general
	// recurrence.
	type cell struct {
		overshoot bool
		par       Parallelism
	}
	want := []cell{
		{false, FullyParallel},  // RI / monotonic induction (threshold)
		{true, FullyParallel},   // RI / non-monotonic induction
		{false, ParallelPrefix}, // RI / associative
		{false, Sequential},     // RI / general
		{true, FullyParallel},   // RV / monotonic induction
		{true, FullyParallel},   // RV / non-monotonic induction
		{true, ParallelPrefix},  // RV / associative
		{true, Sequential},      // RV / general
	}
	rows := TaxonomyTable()
	if len(rows) != len(want) {
		t.Fatalf("taxonomy has %d cells, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Overshoot != want[i].overshoot {
			t.Errorf("cell %d (%v): overshoot = %v, want %v", i, r.Class, r.Overshoot, want[i].overshoot)
		}
		if r.Parallelism != want[i].par {
			t.Errorf("cell %d (%v): parallelism = %v, want %v", i, r.Class, r.Parallelism, want[i].par)
		}
	}
}

func TestMonotonicThresholdException(t *testing.T) {
	// d(i) = i^2 with tc = d(i) < V: monotonic threshold, no overshoot.
	c := Class{Dispatcher: MonotonicInduction, Terminator: RI, ThresholdOnMonotonic: true}
	if c.CanOvershoot() {
		t.Error("monotonic threshold RI loop must not overshoot")
	}
	// The same dispatcher with a non-threshold RI exit can overshoot.
	c.ThresholdOnMonotonic = false
	if !c.CanOvershoot() {
		t.Error("non-threshold RI induction loop can overshoot")
	}
}

func TestRVAlwaysOvershoots(t *testing.T) {
	for _, d := range []DispatcherKind{MonotonicInduction, NonMonotonicInduction, AssociativeRecurrence, GeneralRecurrence} {
		c := Class{Dispatcher: d, Terminator: RV, ThresholdOnMonotonic: true}
		if !c.CanOvershoot() {
			t.Errorf("%v: RV terminator must allow overshoot", c)
		}
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[string]string{
		MonotonicInduction.String():    "monotonic induction",
		NonMonotonicInduction.String(): "non-monotonic induction",
		AssociativeRecurrence.String(): "associative recurrence",
		GeneralRecurrence.String():     "general recurrence",
		RI.String():                    "RI",
		RV.String():                    "RV",
		Sequential.String():            "NO",
		ParallelPrefix.String():        "YES-PP",
		FullyParallel.String():         "YES",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestIntInductionClosedForm(t *testing.T) {
	d := IntInduction{C: 3, B: 7}
	x := d.Start()
	for i := 0; i < 100; i++ {
		if got := d.At(i); got != x {
			t.Fatalf("At(%d) = %d, iterated value %d", i, got, x)
		}
		x = d.Next(x)
	}
	if !d.Monotonic() {
		t.Error("C=3 induction should be monotonic")
	}
	if (IntInduction{C: 0, B: 1}).Monotonic() {
		t.Error("C=0 induction should not be monotonic")
	}
}

func TestAffineComposeAssociative(t *testing.T) {
	f := func(a1, b1, a2, b2, a3, b3, x float64) bool {
		// Keep magnitudes tame to avoid float blowup masking logic bugs.
		clamp := func(v float64) float64 { return math.Mod(v, 8) }
		m1 := AffineMap{clamp(a1), clamp(b1)}
		m2 := AffineMap{clamp(a2), clamp(b2)}
		m3 := AffineMap{clamp(a3), clamp(b3)}
		l := Compose(Compose(m1, m2), m3)
		r := Compose(m1, Compose(m2, m3))
		xl, xr := l.Apply(clamp(x)), r.Apply(clamp(x))
		return math.Abs(xl-xr) <= 1e-6*(1+math.Abs(xl))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAffineComposeMatchesSequentialApplication(t *testing.T) {
	m1 := AffineMap{2, 3}
	m2 := AffineMap{-1, 5}
	x := 7.0
	seq := m2.Apply(m1.Apply(x))
	if got := Compose(m1, m2).Apply(x); got != seq {
		t.Errorf("Compose(m1,m2)(x) = %v, want m2(m1(x)) = %v", got, seq)
	}
	if got := Compose(IdentityMap, m1).Apply(x); got != m1.Apply(x) {
		t.Errorf("identity left compose broken: %v", got)
	}
	if got := Compose(m1, IdentityMap).Apply(x); got != m1.Apply(x) {
		t.Errorf("identity right compose broken: %v", got)
	}
}

func TestRunSequentialRIExit(t *testing.T) {
	// while (d < 10) { A[d] = d; d++ }
	a := mem.NewArray("A", 16)
	l := &Loop[int]{
		Class: Class{Dispatcher: MonotonicInduction, Terminator: RI, ThresholdOnMonotonic: true},
		Disp:  IntInduction{C: 1, B: 0},
		Cond:  func(d int) bool { return d < 10 },
		Body: func(it *Iter, d int) bool {
			it.Store(a, d, float64(d))
			return true
		},
		Max: 1000,
	}
	res := RunSequential(l)
	if res.Iterations != 10 || res.ExitRV {
		t.Fatalf("got %+v, want 10 iterations, RI exit", res)
	}
	for i := 0; i < 10; i++ {
		if a.Data[i] != float64(i) {
			t.Errorf("A[%d] = %v, want %v", i, a.Data[i], float64(i))
		}
	}
	if a.Data[10] != 0 {
		t.Errorf("A[10] = %v, want untouched 0", a.Data[10])
	}
}

func TestRunSequentialRVExit(t *testing.T) {
	// do i=0..; if i == 7 exit; A[i] = 1
	a := mem.NewArray("A", 16)
	l := &Loop[int]{
		Class: Class{Dispatcher: MonotonicInduction, Terminator: RV},
		Disp:  IntInduction{C: 1, B: 0},
		Body: func(it *Iter, d int) bool {
			if d == 7 {
				return false
			}
			it.Store(a, d, 1)
			return true
		},
		Max: 100,
	}
	res := RunSequential(l)
	if res.Iterations != 7 || !res.ExitRV {
		t.Fatalf("got %+v, want 7 iterations with RV exit", res)
	}
	if LastValid(l) != 7 {
		t.Errorf("LastValid = %d, want 7", LastValid(l))
	}
}

func TestRunSequentialMaxBound(t *testing.T) {
	n := 0
	l := &Loop[int]{
		Disp: IntInduction{C: 1},
		Body: func(it *Iter, d int) bool { n++; return true },
		Max:  25,
	}
	res := RunSequential(l)
	if res.Iterations != 25 || n != 25 {
		t.Fatalf("Max bound not respected: res=%+v n=%d", res, n)
	}
}

func TestRunSequentialChargesWork(t *testing.T) {
	l := &Loop[int]{
		Disp: IntInduction{C: 1},
		Body: func(it *Iter, d int) bool { it.Charge(2.5); return true },
		Max:  4,
	}
	res := RunSequential(l)
	if res.Work != 10 {
		t.Fatalf("Work = %v, want 10", res.Work)
	}
	if res.DispatcherWork != 4 {
		t.Fatalf("DispatcherWork = %v, want 4", res.DispatcherWork)
	}
}

func TestFuncDispatcher(t *testing.T) {
	d := Func[int]{StartFn: func() int { return 5 }, NextFn: func(x int) int { return x * 2 }}
	if d.Start() != 5 || d.Next(5) != 10 {
		t.Error("Func dispatcher does not delegate")
	}
}

func TestAffineDispatcherWalk(t *testing.T) {
	d := Affine{A: 2, B: 1, X0: 1}
	// x: 1, 3, 7, 15, 31 (2^n - 1 pattern)
	x := d.Start()
	want := []float64{1, 3, 7, 15, 31}
	for i, w := range want {
		if x != w {
			t.Fatalf("term %d = %v, want %v", i, x, w)
		}
		x = d.Next(x)
	}
}

func TestIterSlotsRearmEveryField(t *testing.T) {
	slots := NewIterSlots(3)
	tr := mem.Chain{}
	it := slots.At(1, 7, tr)
	if it.Index != 7 || it.VPN != 1 || it.Tracker == nil {
		t.Fatalf("At(1, 7, tr) = %+v", *it)
	}
	it.Charge(2.5)
	// The same worker's next iteration gets the same slot, re-armed: a
	// body that had retained the pointer now reads iteration 8.
	next := slots.At(1, 8, nil)
	if next != it || it.Index != 8 || it.Tracker != nil || it.Work != 0 {
		t.Fatalf("re-armed slot = %+v (same slot: %v)", *it, next == it)
	}
	// Neighbouring workers' slots are at least a cache line apart.
	a, b := slots.At(0, 0, nil), slots.At(1, 0, nil)
	if d := uintptr(unsafe.Pointer(b)) - uintptr(unsafe.Pointer(a)); d < 64+unsafe.Sizeof(Iter{}) {
		t.Fatalf("slots %d bytes apart", d)
	}
	if got := len(NewIterSlots(0)); got != 1 {
		t.Fatalf("NewIterSlots(0) has %d slots, want 1", got)
	}
}

func TestRunSequentialSumsWorkPerIteration(t *testing.T) {
	l := &Loop[int]{Disp: IntInduction{C: 1}, Max: 10,
		Body: func(it *Iter, d int) bool { it.Charge(1.5); return d < 6 }}
	if r := RunSequential(l); r.Iterations != 6 || r.Work != 9 || !r.ExitRV {
		t.Fatalf("RunSequential = %+v, want 6 iterations of 1.5 work and an RV exit", r)
	}
}
