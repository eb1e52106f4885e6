package speculate

// Cancellation and panic-containment behaviour of the context-aware
// engine entry points: cancellation must return the committed prefix
// with a typed error and restored state — never the sequential
// fallback — and contained panics must surface as ErrWorkerPanic
// unless Spec.PanicFallback routes them through the exception path.

import (
	"context"
	"errors"
	"runtime/debug"
	"testing"

	"whilepar/internal/cancel"
	"whilepar/internal/mem"
	"whilepar/internal/obs"
	"whilepar/internal/window"
)

func TestRunCtxPreCanceled(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	stop()
	a := mem.NewArray("A", 8)
	m := &obs.Metrics{}
	par := func(tr mem.Tracker) (int, error) { t.Fatal("runner must not start"); return 0, nil }
	seq := func() int { t.Fatal("no sequential fallback on cancel"); return 0 }
	_, err := RunCtx(ctx, Spec{Procs: 2, Shared: []*mem.Array{a}, Metrics: m}, par, seq)
	if !errors.Is(err, cancel.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if m.Snapshot().CtxCancels != 1 {
		t.Fatalf("snapshot %+v", m.Snapshot())
	}
}

func TestRunCtxRunnerCancelRestores(t *testing.T) {
	// The runner writes half the array, then surfaces a cancellation:
	// the engine must rewind those writes and return the typed error
	// without ever invoking the sequential fallback.
	n := 16
	a := mem.NewArray("A", n)
	ctx, stop := context.WithCancel(context.Background())
	par := func(tr mem.Tracker) (int, error) {
		for i := 0; i < n/2; i++ {
			tr.Store(a, i, float64(i+1), i, 0)
		}
		stop()
		return 0, cancel.Wrap(ctx.Err())
	}
	seq := func() int { t.Fatal("no sequential fallback on cancel"); return 0 }
	rep, err := RunCtx(ctx, Spec{Procs: 2, Shared: []*mem.Array{a}}, par, seq)
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	if rep.Valid != 0 || rep.UsedParallel {
		t.Fatalf("report %+v", rep)
	}
	expectState(t, a, 0) // every speculative write rewound
}

func TestRunCtxPanicSurfacesByDefault(t *testing.T) {
	a := mem.NewArray("A", 8)
	pe := &cancel.PanicError{Iter: 3, VPN: 1, Value: "boom", Stack: debug.Stack()}
	par := func(tr mem.Tracker) (int, error) {
		tr.Store(a, 0, 1, 0, 0)
		return 0, pe
	}
	seq := func() int { t.Fatal("PanicFallback is off"); return 0 }
	_, err := RunCtx(context.Background(), Spec{Procs: 2, Shared: []*mem.Array{a}}, par, seq)
	if !errors.Is(err, cancel.ErrWorkerPanic) {
		t.Fatalf("err = %v", err)
	}
	got, ok := cancel.AsPanic(err)
	if !ok || got.Iter != 3 {
		t.Fatalf("panic detail lost: %v", err)
	}
	expectState(t, a, 0)
}

func TestRunCtxPanicFallbackRunsSequential(t *testing.T) {
	n := 10
	a := mem.NewArray("A", n)
	par := func(tr mem.Tracker) (int, error) {
		tr.Store(a, 0, 99, 0, 0)
		return 0, &cancel.PanicError{Iter: 0, Value: "boom"}
	}
	seq := func() int {
		for i := 0; i < n; i++ {
			a.Data[i] = float64(i + 1)
		}
		return n
	}
	rep, err := RunCtx(context.Background(), Spec{Procs: 2, Shared: []*mem.Array{a}, PanicFallback: true}, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != n || rep.UsedParallel || rep.Failure == "" {
		t.Fatalf("report %+v", rep)
	}
	expectState(t, a, n)
}

func TestRunStrippedCtxCancelKeepsCommittedPrefix(t *testing.T) {
	// Cancel once the second strip starts: strip one's 40 iterations
	// are committed and kept; the partially-run second strip is
	// rewound.
	n, strip := 160, 40
	a := mem.NewArray("A", n)
	ctx, stop := context.WithCancel(context.Background())
	m := &obs.Metrics{}
	par := func(tr mem.Tracker, lo, hi int) (int, bool, error) {
		if lo >= strip {
			// Write part of the strip, then notice the cancellation.
			tr.Store(a, lo, -1, lo, 0)
			stop()
			return 0, false, cancel.Wrap(ctx.Err())
		}
		for i := lo; i < hi; i++ {
			tr.Store(a, i, float64(i+1), i, 0)
		}
		return hi - lo, false, nil
	}
	seq := func(lo, hi int) (int, bool) { t.Fatal("no sequential fallback on cancel"); return 0, false }
	rep, err := RunStrippedCtx(ctx, Spec{Procs: 2, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}, Metrics: m},
		n, strip, par, seq)
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	if rep.Valid != strip {
		t.Fatalf("committed prefix = %d, want %d (%+v)", rep.Valid, strip, rep)
	}
	expectState(t, a, strip)
}

func TestRunStrippedCtxStopsAtBoundary(t *testing.T) {
	// A runner that never observes ctx itself: the engine's own
	// boundary check must still stop issuing strips.
	n, strip := 120, 30
	a := mem.NewArray("A", n)
	ctx, stop := context.WithCancel(context.Background())
	m := &obs.Metrics{}
	par, seq := stripLoop(a, -1, 0, 0)
	wrapped := func(tr mem.Tracker, lo, hi int) (int, bool, error) {
		if lo == strip {
			stop() // fires mid-run; this strip still completes
		}
		return par(tr, lo, hi)
	}
	rep, err := RunStrippedCtx(ctx, Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}, Metrics: m},
		n, strip, wrapped, seq)
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	if rep.Valid != 2*strip || rep.Strips != 2 {
		t.Fatalf("report %+v", rep)
	}
	if m.Snapshot().CtxCancels != 1 {
		t.Fatalf("snapshot %+v", m.Snapshot())
	}
	expectState(t, a, 2*strip)
}

func TestRunStrippedCtxPanicFallbackStaysLocal(t *testing.T) {
	// With PanicFallback set a panicking strip re-executes
	// sequentially, strip-locally, like any exception.
	n, strip := 80, 20
	a := mem.NewArray("A", n)
	par0, seq := stripLoop(a, -1, 0, 0)
	par := func(tr mem.Tracker, lo, hi int) (int, bool, error) {
		if lo == 2*strip {
			tr.Store(a, lo, -5, lo, 0)
			return 0, false, &cancel.PanicError{Iter: lo, Value: "boom"}
		}
		return par0(tr, lo, hi)
	}
	rep, err := RunStrippedCtx(context.Background(),
		Spec{Procs: 4, Shared: []*mem.Array{a}, PanicFallback: true}, n, strip, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != n || rep.SeqStrips != 1 {
		t.Fatalf("report %+v", rep)
	}
	expectState(t, a, n)
}

func TestRunWindowedCtxCancelAtBoundary(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	stop()
	n := 50
	a := mem.NewArray("A", n)
	m := &obs.Metrics{}
	body := func(tr mem.Tracker, i, vpn int) bool { t.Fatal("no round may start"); return true }
	seq := func() int { t.Fatal("no sequential fallback on cancel"); return 0 }
	rep, err := RunWindowedCtx(ctx, Spec{Procs: 2, Shared: []*mem.Array{a}, Metrics: m},
		n, window.Config{Window: 8}, body, seq)
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	if rep.Valid != 0 || rep.UsedParallel {
		t.Fatalf("report %+v", rep)
	}
	if m.Snapshot().CtxCancels != 1 {
		t.Fatalf("snapshot %+v", m.Snapshot())
	}
}

func TestRunStrippedPipelinedCtxCancelSquashesOverlap(t *testing.T) {
	// Strip one runs clean, so strip two is launched as overlap; strip
	// two surfaces a cancellation mid-flight.  The engine must keep
	// strip one's committed values, squash strip two, and unwind.
	n, strip := 120, 40
	a := mem.NewArray("A", n)
	ctx, stop := context.WithCancel(context.Background())
	m := &obs.Metrics{}
	par := func(tr mem.Tracker, lo, hi int) (int, bool, error) {
		if lo >= strip {
			tr.Store(a, lo, -3, lo, 0)
			stop()
			return 0, false, cancel.Wrap(ctx.Err())
		}
		for i := lo; i < hi; i++ {
			tr.Store(a, i, float64(i+1), i, 0)
		}
		return hi - lo, false, nil
	}
	seq := func(lo, hi int) (int, bool) { t.Fatal("no sequential fallback on cancel"); return 0, false }
	rep, err := RunStrippedPipelinedCtx(ctx,
		Spec{Procs: 2, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}, Metrics: m},
		n, strip, par, seq)
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	if rep.Valid != strip || rep.Squashed != 1 {
		t.Fatalf("report %+v", rep)
	}
	if m.Snapshot().PipelineSquashes != 1 {
		t.Fatalf("snapshot %+v", m.Snapshot())
	}
	expectState(t, a, strip)
}

func TestRunTwiceCtxCancelBetweenRuns(t *testing.T) {
	n := 12
	a := mem.NewArray("A", n)
	ctx, stop := context.WithCancel(context.Background())
	first := func() (int, error) {
		for i := 0; i < n; i++ {
			a.Data[i] = float64(i + 1) // direct writes; checkpoint covers them
		}
		stop()
		return n, nil
	}
	second := func(valid int) error { t.Fatal("second run must not start"); return nil }
	_, err := RunTwiceCtx(ctx, []*mem.Array{a}, 1, obs.Hooks{}, first, second)
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	expectState(t, a, 0) // discovery writes rewound, re-execution skipped
}
