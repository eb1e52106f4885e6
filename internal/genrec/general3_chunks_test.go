package genrec_test

// General-3 claims its iterations in geometrically growing chunks and
// discovers the list's length on the way instead of walking it first.
// These suites hold it to the sequential traversal at the lengths and
// exits where chunking can go wrong: lists shorter than one chunk per
// worker, exits inside a chunk and on its boundaries, the last node,
// cancellation and panics part-way through a chunk.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"whilepar/internal/cancel"
	"whilepar/internal/core"
	"whilepar/internal/genrec"
	"whilepar/internal/list"
	"whilepar/internal/loopir"
	"whilepar/internal/mem"
	"whilepar/internal/obs"
	"whilepar/internal/tsmem"
)

// never is an exit index no iteration reaches.
const never = -1

// walkBody writes out[i] = 2i+1 and takes its RV exit at iteration
// exitAt, before any store (the package convention).
func walkBody(out *mem.Array, exitAt int) genrec.Body {
	return func(it *loopir.Iter, nd *list.Node) bool {
		if nd.Key != it.Index {
			panic(fmt.Sprintf("iteration %d handed node %d", it.Index, nd.Key))
		}
		if nd.Key == exitAt {
			return false
		}
		it.Store(out, nd.Key, float64(2*nd.Key+1))
		return true
	}
}

// sequentialWalk is the reference: the valid count, the bodies run and
// the memory the sequential traversal leaves.
func sequentialWalk(n, exitAt int) (valid, executed int, want []float64) {
	want = make([]float64, n)
	valid, executed = n, n
	if exitAt >= 0 && exitAt < n {
		valid, executed = exitAt, exitAt+1
	}
	for i := 0; i < valid; i++ {
		want[i] = float64(2*i + 1)
	}
	return valid, executed, want
}

// checkWalk runs General-3 over an n-node list with the exit at exitAt
// and checks it against the sequential reference.  With tracked set the
// stores go through a stamped memory, whose Undo must leave memory
// exactly as the sequential loop does; without it only the valid
// prefix is compared (overshot iterations wrote where they ran).
func checkWalk(t *testing.T, n, procs, exitAt, u int, tracked bool) {
	t.Helper()
	name := fmt.Sprintf("n=%d p=%d exit=%d U=%d tracked=%v", n, procs, exitAt, u, tracked)
	out := mem.NewArray("out", n)
	m := obs.NewMetrics()
	cfg := genrec.Config{Procs: procs, U: u, Metrics: m}
	var ts *tsmem.Memory
	if tracked {
		ts = tsmem.NewSharded(procs, out)
		defer ts.Release()
		ts.Checkpoint()
		cfg.Tracker = ts.Tracker()
	}
	res, err := genrec.General3Ctx(context.Background(), list.Build(n, nil), walkBody(out, exitAt), cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	valid, executed, want := sequentialWalk(n, exitAt)
	if u > 0 && u < n && (exitAt < 0 || exitAt >= u) {
		valid, executed = u, u
		for i := u; i < n; i++ {
			want[i] = 0
		}
	}
	if res.Valid != valid {
		t.Fatalf("%s: Valid = %d, want %d", name, res.Valid, valid)
	}
	if res.Executed != valid+res.Overshot {
		t.Fatalf("%s: Executed %d != Valid %d + Overshot %d", name, res.Executed, res.Valid, res.Overshot)
	}
	// Without an RV exit nothing overshoots; on one worker the exit
	// stops the next iteration before it starts.
	if (procs == 1 || executed == valid) && res.Executed != executed {
		t.Fatalf("%s: Executed = %d, want %d", name, res.Executed, executed)
	}
	if res.Executed < executed {
		t.Fatalf("%s: Executed = %d, below the sequential %d", name, res.Executed, executed)
	}
	if tracked {
		if _, err := ts.Undo(res.Valid); err != nil {
			t.Fatalf("%s: Undo: %v", name, err)
		}
	}
	for i, w := range want {
		if i >= res.Valid && !tracked {
			break
		}
		if out.Data[i] != w {
			t.Fatalf("%s: out[%d] = %v, want %v", name, i, out.Data[i], w)
		}
	}
	s := m.Snapshot()
	if s.Executed != int64(res.Executed) || s.Overshot != int64(res.Overshot) || s.Issued < s.Executed {
		t.Fatalf("%s: metrics issued %d executed %d overshot %d, Result %+v", name, s.Issued, s.Executed, s.Overshot, res)
	}
}

func TestGeneral3ChunksMatchSequential(t *testing.T) {
	for procs := 1; procs <= 4; procs++ {
		for _, n := range []int{0, 1, procs - 1, 8*procs - 1, 8 * procs, 1000, 20000} {
			// At 0, inside a chunk ([1,3) and [3,7) are the single
			// worker's second and third), on the boundaries after those
			// and after the chunk size reaches its cap of 64 (7 and
			// 127), at the last node, and never.
			for _, exitAt := range []int{0, 2, 5, 7, 127, n - 1, never} {
				if exitAt >= n {
					continue
				}
				for _, tracked := range []bool{false, true} {
					checkWalk(t, n, procs, exitAt, 0, tracked)
				}
			}
		}
	}
}

func TestGeneral3ChunksRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9e3c))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		n := rng.Intn(3000)
		exitAt := never
		if n > 0 && rng.Intn(3) > 0 {
			exitAt = rng.Intn(n)
		}
		u := 0
		if rng.Intn(3) == 0 {
			u = 1 + rng.Intn(2*n+1) // below, at or beyond the length
		}
		checkWalk(t, n, 1+rng.Intn(4), exitAt, u, rng.Intn(2) == 0)
	}
}

// With no bound given, the cursors find the end themselves: someone
// hops onto the nil terminator, and no cursor walks further than that.
func TestGeneral3ChunksHops(t *testing.T) {
	for procs := 1; procs <= 4; procs++ {
		for _, n := range []int{1, 8*procs - 1, 1000, 20000} {
			res := genrec.General3(list.Build(n, nil), func(*loopir.Iter, *list.Node) bool { return true },
				genrec.Config{Procs: procs})
			if res.Valid != n || res.Hops < int64(n) || res.Hops > int64(n*procs) {
				t.Fatalf("n=%d p=%d: Valid %d, Hops %d; want %d valid and hops in [n, n*p]",
					n, procs, res.Valid, res.Hops, n)
			}
		}
	}
}

// A cancel from inside the body stops the traversal with ErrCanceled.
// The canceling iteration itself completes, and siblings finish what
// they were running, so Valid is the contiguous executed prefix — and
// every iteration below it ran exactly once.
func TestGeneral3ChunksCancelInsideBody(t *testing.T) {
	const n = 20000
	for procs := 1; procs <= 4; procs++ {
		for _, k := range []int{0, 5, 127, 1000} {
			ran := make([]int, n)
			ctx, stop := context.WithCancel(context.Background())
			res, err := genrec.General3Ctx(ctx, list.Build(n, nil), func(it *loopir.Iter, nd *list.Node) bool {
				if nd.Key == k {
					stop()
				}
				ran[nd.Key]++
				return true
			}, genrec.Config{Procs: procs})
			stop()
			if !errors.Is(err, cancel.ErrCanceled) {
				t.Fatalf("p=%d k=%d: err = %v, want ErrCanceled", procs, k, err)
			}
			prefix := 0
			for prefix < n && ran[prefix] > 0 {
				prefix++
			}
			if res.Valid != prefix {
				t.Fatalf("p=%d k=%d: Valid = %d, contiguous executed prefix %d", procs, k, res.Valid, prefix)
			}
			executed := 0
			for i, c := range ran {
				if c > 1 {
					t.Fatalf("p=%d k=%d: iteration %d ran %d times", procs, k, i, c)
				}
				executed += c
			}
			if res.Executed != executed || res.Executed != res.Valid+res.Overshot {
				t.Fatalf("p=%d k=%d: Result %+v, %d bodies ran", procs, k, res, executed)
			}
		}
	}
}

// A panic part-way through a chunk surfaces as a PanicError naming the
// iteration, and the valid count stops below it.
func TestGeneral3ChunksPanicInsideChunk(t *testing.T) {
	const n = 5000
	for procs := 1; procs <= 4; procs++ {
		// 5 is inside the single worker's third chunk [3,7); 200 is
		// inside a capped chunk.
		for _, k := range []int{0, 5, 200} {
			ran := make([]int, n)
			res, err := genrec.General3Ctx(context.Background(), list.Build(n, nil), func(it *loopir.Iter, nd *list.Node) bool {
				if nd.Key == k {
					panic("planted")
				}
				ran[nd.Key]++
				return true
			}, genrec.Config{Procs: procs})
			var pe *cancel.PanicError
			if !errors.As(err, &pe) || pe.Iter != k {
				t.Fatalf("p=%d k=%d: err = %v, want a PanicError at %d", procs, k, err, k)
			}
			if res.Valid > k {
				t.Fatalf("p=%d k=%d: Valid = %d beyond the panic", procs, k, res.Valid)
			}
			for i := 0; i < res.Valid; i++ {
				if ran[i] != 1 {
					t.Fatalf("p=%d k=%d: iteration %d below Valid ran %d times", procs, k, i, ran[i])
				}
			}
		}
	}
}

// Through the orchestrator with a Tested array, General-3's run is the
// speculative section: the PD test and the undo must leave what the
// sequential traversal leaves, whether the array's accesses are
// independent (commit) or carry a dependence (fallback).
func TestGeneral3ChunksRunListTested(t *testing.T) {
	for _, dependent := range []bool{false, true} {
		for procs := 1; procs <= 4; procs++ {
			for _, n := range []int{1, 8*procs - 1, 8 * procs, 1000} {
				for _, exitAt := range []int{0, 5, n - 1, never} {
					if exitAt >= n {
						continue
					}
					run := func(opt core.Options) ([]float64, core.Report, error) {
						a := mem.NewArray("a", n)
						for i := range a.Data {
							a.Data[i] = float64(i)
						}
						opt.Shared, opt.Tested = []*mem.Array{a}, []*mem.Array{a}
						rep, err := core.RunListCtx(context.Background(), list.Build(n, nil),
							func(it *loopir.Iter, nd *list.Node) bool {
								if nd.Key == exitAt {
									return false
								}
								src := nd.Key
								if dependent && src > 0 {
									src--
								}
								it.Store(a, nd.Key, it.Load(a, src)+1)
								return true
							},
							loopir.Class{Dispatcher: loopir.GeneralRecurrence, Terminator: loopir.RV}, opt)
						return a.Data, rep, err
					}
					want, seq, err := run(core.Options{Strategy: core.StrategySequential})
					if err != nil {
						t.Fatal(err)
					}
					got, rep, err := run(core.Options{Procs: procs, Strategy: core.StrategySpeculate,
						ListMethod: core.General3, Metrics: obs.NewMetrics()})
					name := fmt.Sprintf("dependent=%v n=%d p=%d exit=%d", dependent, n, procs, exitAt)
					if err != nil || rep.Valid != seq.Valid {
						t.Fatalf("%s: Valid %d, err %v; sequential %d", name, rep.Valid, err, seq.Valid)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: a[%d] = %v, sequential %v", name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
