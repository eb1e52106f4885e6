package sched

// Cancellation, panic containment and pool-drain behaviour of the
// context-aware DOALL substrate: canceled executions must stop within a
// chunk, report the committed contiguous prefix honestly, and never
// leak workers or wedge the pool barrier.

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"whilepar/internal/cancel"
	"whilepar/internal/obs"
)

func TestDOALLCtxPreCanceled(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	stop()
	m := &obs.Metrics{}
	res, err := DOALLCtx(ctx, 100, Options{Procs: 4, Metrics: m}, func(i, vpn int) Control {
		t.Error("no iteration may run")
		return Continue
	})
	if !errors.Is(err, cancel.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res.Executed != 0 {
		t.Fatalf("result %+v", res)
	}
	if m.Snapshot().CtxCancels != 1 {
		t.Fatalf("snapshot %+v", m.Snapshot())
	}
}

func TestDOALLCtxStopsWithinChunks(t *testing.T) {
	// Cancel after iteration 10 runs: every worker polls the context
	// itself after every cancel.PollEvery iterations, so at most that
	// many per worker run after the cancel, with no yield for the
	// context's watcher, and the Prefix must be an honestly committed
	// prefix.
	for _, s := range []Schedule{Dynamic, Static, Guided, Stealing} {
		const n, procs = 1 << 16, 4
		ctx, stop := context.WithCancel(context.Background())
		var executed atomic.Int64
		var canceled atomic.Bool
		ran := make([]atomic.Bool, n)
		res, err := DOALLCtx(ctx, n, Options{Procs: procs, Schedule: s}, func(i, vpn int) Control {
			// Iterations above 10 wait for the cancel: otherwise the
			// workers that do not hold iteration 10 (Static's other
			// residue classes, later chunks) legitimately run ahead for
			// as long as its worker waits for a processor.
			for i > 10 && !canceled.Load() {
				runtime.Gosched()
			}
			executed.Add(1)
			ran[i].Store(true)
			if i == 10 {
				stop()
				canceled.Store(true)
			}
			return Continue
		})
		if !errors.Is(err, cancel.ErrCanceled) {
			t.Fatalf("schedule %v: err = %v", s, err)
		}
		if got := int(executed.Load()); res.Executed != got {
			t.Fatalf("schedule %v: Executed = %d, body ran %d times", s, res.Executed, got)
		}
		if bound := 11 + cancel.PollEvery*procs; res.Executed > bound {
			t.Fatalf("schedule %v: cancellation did not stop issue (executed %d, bound %d)", s, res.Executed, bound)
		}
		for i := 0; i < res.Prefix; i++ {
			if !ran[i].Load() {
				t.Fatalf("schedule %v: Prefix = %d but iteration %d never ran", s, res.Prefix, i)
			}
		}
	}
}

func TestDOALLCtxDeadline(t *testing.T) {
	ctx, stop := context.WithTimeout(context.Background(), 0)
	defer stop()
	<-ctx.Done()
	_, err := DOALLCtx(ctx, 8, Options{Procs: 2}, func(i, vpn int) Control { return Continue })
	if !errors.Is(err, cancel.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestDOALLCtxPanicContained(t *testing.T) {
	n := 1 << 14
	m := &obs.Metrics{}
	res, err := DOALLCtx(context.Background(), n, Options{Procs: 4, Metrics: m},
		func(i, vpn int) Control {
			if i == 37 {
				panic("body blew up")
			}
			return Continue
		})
	if !errors.Is(err, cancel.ErrWorkerPanic) {
		t.Fatalf("err = %v", err)
	}
	pe, ok := cancel.AsPanic(err)
	if !ok || pe.Iter != 37 || pe.Value != "body blew up" || len(pe.Stack) == 0 {
		t.Fatalf("panic detail %+v", pe)
	}
	if res.Executed == n {
		t.Fatalf("panic did not stop siblings (executed all %d)", n)
	}
	if m.Snapshot().WorkerPanics != 1 {
		t.Fatalf("snapshot %+v", m.Snapshot())
	}
}

func TestDOALLCtxPanicDoesNotWedgePool(t *testing.T) {
	// A contained panic must release the pool barrier: subsequent
	// dispatches on the same pool run normally.
	pool := NewPool(4)
	defer pool.Close()
	_, err := DOALLCtx(context.Background(), 64, Options{Procs: 4, Pool: pool},
		func(i, vpn int) Control {
			if i == 5 {
				panic("boom")
			}
			return Continue
		})
	if !errors.Is(err, cancel.ErrWorkerPanic) {
		t.Fatalf("err = %v", err)
	}
	var count atomic.Int64
	res, err := DOALLCtx(context.Background(), 64, Options{Procs: 4, Pool: pool},
		func(i, vpn int) Control {
			count.Add(1)
			return Continue
		})
	if err != nil || res.Executed != 64 || count.Load() != 64 {
		t.Fatalf("pool wedged after panic: res %+v err %v count %d", res, err, count.Load())
	}
}

func TestDOALLCtxCancelDoesNotWedgePool(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	ctx, stop := context.WithCancel(context.Background())
	_, err := DOALLCtx(ctx, 1<<14, Options{Procs: 2, Pool: pool},
		func(i, vpn int) Control {
			if i == 3 {
				stop()
			}
			return Continue
		})
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	res, err := DOALLCtx(context.Background(), 32, Options{Procs: 2, Pool: pool},
		func(i, vpn int) Control { return Continue })
	if err != nil || res.Executed != 32 {
		t.Fatalf("pool wedged after cancel: res %+v err %v", res, err)
	}
}

func TestDOALLPrefixUnderPanic(t *testing.T) {
	// With one processor iterations run in order, so a panic at k leaves
	// exactly the prefix [0, k) committed.
	res, err := DOALLCtx(context.Background(), 100, Options{Procs: 1},
		func(i, vpn int) Control {
			if i == 42 {
				panic("stop here")
			}
			return Continue
		})
	if !errors.Is(err, cancel.ErrWorkerPanic) {
		t.Fatalf("err = %v", err)
	}
	if res.Prefix != 42 || res.Executed != 42 {
		t.Fatalf("result %+v", res)
	}
}

func TestForEachProcCtxPreCanceled(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	stop()
	err := ForEachProc(ctx, 4, ProcConfig{}, func(vpn int) {
		t.Error("no worker may start")
	})
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestForEachProcPanicContained(t *testing.T) {
	var ran atomic.Int64
	err := ForEachProc(context.Background(), 4, ProcConfig{}, func(vpn int) {
		ran.Add(1)
		if vpn == 2 {
			panic("worker 2 down")
		}
	})
	if !errors.Is(err, cancel.ErrWorkerPanic) {
		t.Fatalf("err = %v", err)
	}
	pe, _ := cancel.AsPanic(err)
	if pe.VPN != 2 || pe.Iter != -1 {
		t.Fatalf("panic detail %+v", pe)
	}
	if ran.Load() != 4 {
		t.Fatalf("siblings must complete their single activation: ran %d", ran.Load())
	}
}

func TestForEachProcPanicDoesNotWedgePool(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	err := ForEachProc(context.Background(), 3, ProcConfig{Pool: pool}, func(vpn int) {
		panic("all down")
	})
	if !errors.Is(err, cancel.ErrWorkerPanic) {
		t.Fatalf("err = %v", err)
	}
	var ran atomic.Int64
	if err := ForEachProc(context.Background(), 3, ProcConfig{Pool: pool}, func(vpn int) {
		ran.Add(1)
	}); err != nil || ran.Load() != 3 {
		t.Fatalf("pool wedged after panic: err %v ran %d", err, ran.Load())
	}
}
