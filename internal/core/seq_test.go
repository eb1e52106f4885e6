package core

// The sequential rows of the cancel, deadline and panic suites: every
// path that runs a loop on the calling goroutine — the explicit
// StrategySequential request on each of the four entry points, a cost-
// model rejection, and the auto path's probe and sequential remainder —
// goes through seqRun, and so must stop when its context does, honour
// Options.Deadline, and contain a panicking body, with the committed
// prefix in the Report.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"whilepar/internal/autotune"
	"whilepar/internal/cancel"
	"whilepar/internal/costmodel"
	"whilepar/internal/list"
	"whilepar/internal/loopir"
	"whilepar/internal/mem"
	"whilepar/internal/speculate"
)

// seqCase runs one loop of n iterations sequentially through one entry
// point; every iteration calls each(i) and then stores i+1 to out[i].
type seqCase struct {
	name string
	// strategy is the Report.Strategy a run that got past its first
	// iterations carries: the proof it took the path it is named for.
	strategy string
	run      func(ctx context.Context, n int, out *mem.Array, each func(i int), opt Options) (Report, error)
}

func seqCases() []seqCase {
	ri := loopir.Class{Dispatcher: loopir.MonotonicInduction, Terminator: loopir.RI, ThresholdOnMonotonic: true}
	intLoop := func(n int, out *mem.Array, each func(int)) *loopir.Loop[int] {
		return &loopir.Loop[int]{Class: ri, Disp: loopir.IntInduction{C: 1}, Max: n,
			Body: func(it *loopir.Iter, d int) bool {
				each(it.Index)
				it.Store(out, d, float64(d)+1)
				return true
			}}
	}
	floatLoop := func(disp loopir.Dispatcher[float64], n int, out *mem.Array, each func(int)) *loopir.Loop[float64] {
		return &loopir.Loop[float64]{Class: loopir.Class{Dispatcher: loopir.AssociativeRecurrence, Terminator: loopir.RI},
			Disp: disp, Max: n,
			Body: func(it *loopir.Iter, x float64) bool {
				each(it.Index)
				it.Store(out, it.Index, float64(it.Index)+1)
				return true
			}}
	}
	explicit := func(opt Options) Options { opt.Strategy = StrategySequential; return opt }
	return []seqCase{
		{"induction explicit", seqExplicit, func(ctx context.Context, n int, out *mem.Array, each func(int), opt Options) (Report, error) {
			return RunInductionCtx(ctx, intLoop(n, out, each), explicit(opt))
		}},
		{"induction cost model", seqCostModel, func(ctx context.Context, n int, out *mem.Array, each func(int), opt Options) (Report, error) {
			// A dispatcher-dominated estimate the Section 7 model rejects.
			opt.Strategy, opt.Times = StrategySpeculate, costmodel.LoopTimes{Trem: 1, Trec: 0, Accesses: 1000}
			return RunInductionCtx(ctx, intLoop(n, out, each), opt)
		}},
		{"induction auto", "auto: probe + sequential", func(ctx context.Context, n int, out *mem.Array, each func(int), opt Options) (Report, error) {
			// A table under which nothing parallel pays: probe, verdict,
			// sequential remainder.
			opt.Procs, opt.Profiles = 2, autotune.NewProfileStore()
			opt.Profiles.SetTable(prohibitive())
			return RunInductionCtx(ctx, intLoop(n, out, each), opt)
		}},
		{"associative explicit", seqExplicit, func(ctx context.Context, n int, out *mem.Array, each func(int), opt Options) (Report, error) {
			return RunAssociativeCtx(ctx, floatLoop(loopir.Affine{A: 1, B: 1}, n, out, each), explicit(opt))
		}},
		{"numeric explicit", seqExplicit, func(ctx context.Context, n int, out *mem.Array, each func(int), opt Options) (Report, error) {
			disp := loopir.Func[float64]{StartFn: func() float64 { return 0 }, NextFn: func(x float64) float64 { return x*x + 1 }}
			return RunGeneralNumericCtx(ctx, floatLoop(disp, n, out, each), explicit(opt))
		}},
		{"list explicit", seqExplicit, func(ctx context.Context, n int, out *mem.Array, each func(int), opt Options) (Report, error) {
			return RunListCtx(ctx, list.Build(n, nil), func(it *loopir.Iter, nd *list.Node) bool {
				each(it.Index)
				it.Store(out, nd.Key, float64(nd.Key)+1)
				return true
			}, loopir.Class{Dispatcher: loopir.GeneralRecurrence, Terminator: loopir.RI}, explicit(opt))
		}},
	}
}

// prohibitive prices every tracked access and every dispatch far above
// any loop body a test runs.
func prohibitive() *autotune.Table {
	row := costmodel.UnitCosts{Dispatch: 1e6, Load: 1e6, Store: 1e6, Elem: 1e6, CheckpointWord: 1e6, UndoWord: 1e6, Barrier: 1e9}
	return &autotune.Table{Tiers: [3]costmodel.UnitCosts{row, row, row}, DOALL: row}
}

// expectPrefix fails unless out holds exactly the first valid
// iterations' stores.
func expectPrefix(t *testing.T, out *mem.Array, valid int) {
	t.Helper()
	for i, v := range out.Data {
		want := 0.0
		if i < valid {
			want = float64(i) + 1
		}
		if v != want {
			t.Fatalf("out[%d] = %v with Valid = %d, want %v", i, v, valid, want)
		}
	}
}

func TestSequentialPathsObserveCancel(t *testing.T) {
	const n, at = 4000, 1500
	for _, c := range seqCases() {
		t.Run(c.name, func(t *testing.T) {
			out := mem.NewArray("out", n)
			ctx, stop := context.WithCancel(context.Background())
			defer stop()
			var after atomic.Int64
			rep, err := c.run(ctx, n, out, func(i int) {
				if i == at {
					stop()
				}
				if i > at {
					after.Add(1)
					time.Sleep(10 * time.Microsecond) // give the AfterFunc its goroutine
				}
			}, Options{})
			if !errors.Is(err, cancel.ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want ErrCanceled (report %+v)", err, rep)
			}
			if rep.Valid <= at || rep.Valid >= n {
				t.Fatalf("Valid = %d, want past the cancel at %d and short of %d", rep.Valid, at, n)
			}
			if rep.Strategy != c.strategy {
				t.Fatalf("Strategy = %q, want %q", rep.Strategy, c.strategy)
			}
			expectPrefix(t, out, rep.Valid)

			// Canceled before it starts: nothing runs.
			out = mem.NewArray("out", n)
			rep, err = c.run(ctx, n, out, func(int) {}, Options{})
			if !errors.Is(err, cancel.ErrCanceled) || rep.Valid != 0 {
				t.Fatalf("pre-canceled: Valid = %d, err = %v", rep.Valid, err)
			}
			expectPrefix(t, out, 0)
		})
	}
}

func TestSequentialPathsObserveDeadline(t *testing.T) {
	const n = 100000
	for _, c := range seqCases() {
		t.Run(c.name, func(t *testing.T) {
			out := mem.NewArray("out", n)
			rep, err := c.run(context.Background(), n, out, func(int) { time.Sleep(50 * time.Microsecond) },
				Options{Deadline: 5 * time.Millisecond})
			if !errors.Is(err, cancel.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want ErrDeadline (report %+v)", err, rep)
			}
			if rep.Valid == 0 || rep.Valid >= n {
				t.Fatalf("Valid = %d of %d", rep.Valid, n)
			}
			expectPrefix(t, out, rep.Valid)
		})
	}
}

func TestSequentialPathsContainPanics(t *testing.T) {
	const n = 4000
	// In the probe's first chunk, in its extension, and in the remainder.
	for _, at := range []int{5, 300, 2500} {
		for _, c := range seqCases() {
			t.Run(c.name, func(t *testing.T) {
				out := mem.NewArray("out", n)
				rep, err := c.run(context.Background(), n, out, func(i int) {
					if i == at {
						panic("body exploded")
					}
				}, Options{})
				pe, ok := cancel.AsPanic(err)
				if !errors.Is(err, cancel.ErrWorkerPanic) || !ok || pe.Iter != at || pe.Value != "body exploded" {
					t.Fatalf("panic at %d: err = %v (detail %+v)", at, err, pe)
				}
				if rep.Valid != at {
					t.Fatalf("panic at %d: Valid = %d", at, rep.Valid)
				}
				expectPrefix(t, out, at)
			})
		}
	}
}

// The planner prices the trusted tier at one audited strip in
// autotune.AuditEvery; the engine audits one in DefaultAuditEvery.
func TestPlannerAuditPeriodMirrorsTheEngine(t *testing.T) {
	if autotune.AuditEvery != speculate.DefaultAuditEvery {
		t.Fatalf("autotune.AuditEvery = %d, speculate.DefaultAuditEvery = %d", autotune.AuditEvery, speculate.DefaultAuditEvery)
	}
}
