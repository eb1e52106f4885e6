package pdtest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"whilepar/internal/mem"
)

// Analyze judges element-wise only the elements a block journal flags —
// suspect on some processor, or touched by two — and takes every other
// touched element for clean.  These suites hold that shortcut to the
// trace Oracle and the eager full scan, verdict for verdict, on the
// cases that decide whether an element gets flagged.  Run under -race
// in CI.

// step is one mark of a script: a single access, or a range when hi > 0.
type step struct {
	iter, vpn, elem, hi int
	write               bool
}

// mark applies a script to a Test; trace is the same script as the
// Oracle reads it.
func mark(t *Test, script []step) {
	for _, s := range script {
		switch {
		case s.hi > 0 && s.write:
			t.MarkStoreRange(t.arr, s.elem, s.hi, s.iter, s.vpn)
		case s.hi > 0:
			t.MarkLoadRange(t.arr, s.elem, s.hi, s.iter, s.vpn)
		case s.write:
			t.MarkStore(t.arr, s.elem, s.iter, s.vpn)
		default:
			t.MarkLoad(t.arr, s.elem, s.iter, s.vpn)
		}
	}
}

func trace(script []step) []Access {
	var out []Access
	for _, s := range script {
		hi := s.hi
		if hi == 0 {
			hi = s.elem + 1
		}
		for e := s.elem; e < hi; e++ {
			out = append(out, Access{Iter: s.iter, Elem: e, Write: s.write})
		}
	}
	return out
}

// agree marks script into a journaled and an eager Test over n elements
// and demands, at every cut point up to maxValid, the Oracle's verdict
// from both.  It returns the journaled Test, still marked.
func agree(t *testing.T, name string, n, procs int, script []step, maxValid int) *Test {
	t.Helper()
	a := mem.NewArray("A", n)
	pd, eager := New(a, procs), NewEager(a, procs)
	mark(pd, script)
	mark(eager, script)
	tr := trace(script)
	for valid := 0; valid <= maxValid; valid++ {
		want := Oracle(tr, valid)
		if got := pd.AnalyzeQuiet(valid); got != want {
			t.Fatalf("%s, valid %d: journaled %+v, oracle %+v", name, valid, got, want)
		}
		if got := eager.AnalyzeQuiet(valid); got != want {
			t.Fatalf("%s, valid %d: eager %+v, oracle %+v", name, valid, got, want)
		}
	}
	return pd
}

// suspects returns the elements flagged suspect on any processor.
func suspects(t *Test) []int {
	var out []int
	for e := 0; e < t.arr.Len(); e++ {
		for _, s := range t.shadows {
			if bl := s.blk[e>>blockShift]; bl.tag == t.epoch && bl.suspect>>(uint(e)&blockMask)&1 != 0 {
				out = append(out, e)
				break
			}
		}
	}
	return out
}

// Two iterations on one processor, one element: each flagging rule on
// its own, and the one-iteration sequences that must stay unflagged.
func TestSuspectRulesMatchOracle(t *testing.T) {
	const e = 70 // second block, not its first bit
	ld := func(iter int) step { return step{iter: iter, elem: e} }
	st := func(iter int) step { return step{iter: iter, elem: e, write: true} }
	for _, c := range []struct {
		name    string
		script  []step
		suspect bool
	}{
		{"store when w1 is set", []step{st(2), st(5)}, true},
		{"store after another iteration's exposed read", []step{ld(2), st(5)}, true},
		{"exposed load when w1 is set", []step{st(2), ld(5)}, true},
		// The second reader makes the first's later store a dependence.
		{"store by the first of two exposed readers", []step{ld(2), ld(5), st(2)}, true},
		{"read then write in one iteration", []step{ld(3), st(3)}, false},
		{"write then covered read in one iteration", []step{st(3), ld(3), st(3)}, false},
		{"reads only, two iterations", []step{ld(2), ld(5)}, false},
	} {
		for _, rng := range []bool{false, true} {
			script := c.script
			if rng {
				// The same marks through the range path, one element wide.
				script = nil
				for _, s := range c.script {
					s.hi = s.elem + 1
					script = append(script, s)
				}
			}
			pd := agree(t, fmt.Sprintf("%s (range=%v)", c.name, rng), 200, 2, script, 7)
			if got := suspects(pd); (len(got) == 1 && got[0] == e) != c.suspect || len(got) > 1 {
				t.Errorf("%s (range=%v): suspect elements %v, want flagged=%v", c.name, rng, got, c.suspect)
			}
			pd.Release()
		}
	}
}

// Two processors in one 64-element block: on different elements the
// block is shared but no element is, and nothing is merged element-wise;
// on the same element the element must be, whatever its suspect bit
// says.  A conflict whose partner iteration is beyond the cut is none.
func TestBlockScanSharedBlocks(t *testing.T) {
	rw := func(iter, vpn, elem int) []step {
		return []step{{iter: iter, vpn: vpn, elem: elem}, {iter: iter, vpn: vpn, elem: elem, write: true}}
	}
	// Iteration i updates element 64+i, alternating processors.
	var disjoint []step
	for i := 0; i < 40; i++ {
		disjoint = append(disjoint, rw(i, i%2, 64+i)...)
	}
	pd := agree(t, "disjoint elements", 256, 2, disjoint, 41)
	if got := suspects(pd); len(got) != 0 {
		t.Errorf("disjoint elements: suspect %v, want none", got)
	}
	pd.Release()

	// Iteration 30, on the other processor, also reads what 7 wrote —
	// and iteration 35 rewrites what 8 wrote.
	shared := append(append([]step(nil), disjoint...),
		step{iter: 30, vpn: 0, elem: 64 + 7},
		step{iter: 35, vpn: 1, elem: 64 + 8, write: true})
	pd = agree(t, "shared elements", 256, 2, shared, 41)
	if got := suspects(pd); len(got) != 0 {
		t.Errorf("shared elements: suspect %v, want none (the conflicts are across processors)", got)
	}
	if r := pd.AnalyzeQuiet(30); !r.DOALL {
		t.Errorf("valid 30 cuts both partners off, yet %+v", r)
	}
	if r := pd.AnalyzeQuiet(31); r.DOALL || !r.FlowAntiDep || r.OutputDep || r.FirstViolation != 7 {
		t.Errorf("valid 31 admits the reader of element 71: %+v", r)
	}
	if r := pd.AnalyzeQuiet(36); !r.OutputDep || r.FirstViolation != 7 {
		t.Errorf("valid 36 admits the second writer of element 72: %+v", r)
	}
	pd.Release()
}

// A block tag written under epoch 1 must not read as live when the
// uint32 epoch wraps back to 1: the block would keep its old bitmaps and
// stay out of the journal, and Analyze would never look at it.
func TestBlockScanSurvivesEpochWrap(t *testing.T) {
	a := mem.NewArray("A", 256)
	pd := freshTest(a, 2) // epoch 1, no pooled history
	pd.MarkStore(a, 130, 0, 0)
	pd.MarkStore(a, 131, 1, 1)
	pd.epoch = math.MaxUint32
	pd.Reset()
	if pd.epoch != 1 {
		t.Fatalf("epoch %d after the wrap, want 1", pd.epoch)
	}
	script := []step{{iter: 3, vpn: 0, elem: 140, write: true}, {iter: 4, vpn: 0, elem: 140}}
	mark(pd, script)
	if got, want := pd.AnalyzeQuiet(5), Oracle(trace(script), 5); got != want || got.DOALL {
		t.Fatalf("after the wrap: journaled %+v, oracle %+v", got, want)
	}
	if n := pd.worklist(); n != 1 {
		t.Fatalf("%d blocks journaled after the wrap, want 1 (pre-wrap bitmaps must not show)", n)
	}
}

// Randomised executions — each iteration on one processor, a processor's
// iterations one after another, element and range marks mixed — on
// shadows that come out of the pool stale from a longer, densely marked
// array, through Resets and a forced uint32 epoch wrap.
func TestBlockScanMatchesOracleAndEager(t *testing.T) {
	rounds := 150
	if testing.Short() {
		rounds = 50
	}
	rng := rand.New(rand.NewSource(53))
	reused := 0
	for round := 0; round < rounds; round++ {
		procs := 1 + rng.Intn(4)
		// Fill the pool with shadows from an array at the top of the size
		// class the test's array is in, every bit set in about half of
		// their blocks; the other half keep whatever tags and bitmaps
		// earlier rounds left, from before and after a wrap.
		long := mem.NewArray("L", 512)
		stale := New(long, procs)
		for vpn := 0; vpn < procs; vpn++ {
			for b := 0; b < 512; b += 64 {
				if rng.Intn(2) == 0 {
					stale.MarkStoreRange(long, b, b+64, vpn, vpn)
					stale.MarkLoadRange(long, b, b+64, vpn+procs, vpn)
				}
			}
		}
		stale.Release()

		n := 257 + rng.Intn(200)
		a := mem.NewArray("A", n)
		pd, eager := New(a, procs), NewEager(a, procs)
		for _, s := range pd.shadows {
			if s.epoch > 0 {
				reused++
			}
		}
		if round%3 == 1 {
			jumpNearWrap(pd)
		}
		for strip := 0; strip < 4; strip++ {
			iters := 1 + rng.Intn(60)
			// hot elements draw the conflicts; the rest of the accesses
			// spread over the array and mostly stay private.
			hot := rng.Intn(n)
			var script []step
			for it := 0; it < iters; it++ {
				vpn := rng.Intn(procs)
				for k := rng.Intn(5); k >= 0; k-- {
					s := step{iter: it, vpn: vpn, elem: rng.Intn(n), write: rng.Intn(2) == 0}
					switch rng.Intn(6) {
					case 0:
						s.elem = hot
					case 1:
						s.hi = s.elem + 1 + rng.Intn(n-s.elem)
						if s.hi > s.elem+90 {
							s.hi = s.elem + 90
						}
					}
					script = append(script, s)
				}
			}
			mark(pd, script)
			mark(eager, script)
			tr := trace(script)
			for _, valid := range []int{0, 1, iters / 3, iters / 2, iters - 1, iters} {
				want := Oracle(tr, valid)
				if got := pd.AnalyzeQuiet(valid); got != want {
					t.Fatalf("round %d strip %d valid %d (n=%d procs=%d): journaled %+v, oracle %+v", round, strip, valid, n, procs, got, want)
				}
				if got := eager.AnalyzeQuiet(valid); got != want {
					t.Fatalf("round %d strip %d valid %d (n=%d procs=%d): eager %+v, oracle %+v", round, strip, valid, n, procs, got, want)
				}
			}
			pd.Reset()
			eager.Reset()
		}
		pd.Release()
	}
	if reused == 0 {
		t.Fatal("no round ever took a shadow out of the pool: the stale bitmaps were never in play")
	}
}
