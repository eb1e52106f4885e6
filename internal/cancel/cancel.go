// Package cancel defines the cross-engine cancellation and panic-
// containment vocabulary of the runtime: the typed sentinel errors every
// engine (sched, doacross, genrec, speculate, core) returns when a
// context.Context is canceled or a loop body panics on a worker, plus
// the one stop signal every self-scheduled engine observes a context
// through (Stop).
//
// The production motivation (ROADMAP north star) is a serving system:
// callers must be able to abandon a loop — request timeout, client
// disconnect — and survive a panicking body without leaking goroutines
// or corrupting shared/shadow state.  The paper's protocol already knows
// how to rewind a speculative attempt (checkpoint + restore, Section 4);
// this package supplies the signal that triggers that machinery early
// and the typed errors that report what happened.
package cancel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Typed sentinels; callers branch with errors.Is.  The facade re-exports
// them (whilepar.ErrCanceled, ...), and the wrapped errors also match
// the context package's own sentinels (context.Canceled,
// context.DeadlineExceeded), so either vocabulary works.
var (
	// ErrCanceled: the execution was abandoned because its context was
	// canceled.  The accompanying Report carries the committed prefix.
	ErrCanceled = errors.New("whilepar: execution canceled")
	// ErrDeadline: the execution was abandoned because its context's
	// deadline (or Options.Deadline) expired.
	ErrDeadline = errors.New("whilepar: deadline exceeded")
	// ErrWorkerPanic: a loop body panicked on a virtual processor; the
	// concrete error is a *PanicError carrying the iteration and VP.
	ErrWorkerPanic = errors.New("whilepar: worker panic")
)

// PanicError reports a loop-body panic contained by a worker: the
// iteration and virtual processor it happened on, the recovered value,
// and the worker's stack at recovery time.  It matches ErrWorkerPanic
// under errors.Is.
type PanicError struct {
	// Iter is the iteration index whose body panicked (-1 if the panic
	// happened outside any iteration, e.g. in a per-processor prologue).
	Iter int
	// VPN is the virtual processor the panic happened on.
	VPN int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("whilepar: worker panic at iteration %d on vp %d: %v", p.Iter, p.VPN, p.Value)
}

// Is matches the ErrWorkerPanic sentinel.
func (p *PanicError) Is(target error) bool { return target == ErrWorkerPanic }

// Wrap converts a context error into the runtime's typed sentinel:
// context.DeadlineExceeded becomes ErrDeadline, anything else (including
// context.Canceled and context.Cause values) becomes ErrCanceled.  Both
// sentinels and the original error remain visible to errors.Is.  A nil
// err returns nil.
func Wrap(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrDeadline, err)
	}
	return fmt.Errorf("%w: %w", ErrCanceled, err)
}

// Err polls ctx without blocking and returns the wrapped typed error if
// it is done, nil otherwise.  Safe on a nil context.  It receives from
// ctx.Done() rather than calling ctx.Err() (no mutex), and when the
// channel is still open but ctx carries a deadline it compares the clock
// with it: an expired deadline reports ErrDeadline (matching
// context.DeadlineExceeded) even before the context's timer has fired.
func Err(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return Wrap(ctx.Err())
	default:
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return Wrap(context.DeadlineExceeded)
	}
	return nil
}

// PollEvery is how many iterations a worker runs between two polls of
// its Stop's context.  It is also the cap of sched.Geometric's chunks,
// so a claimed chunk never outlasts one poll interval.
const PollEvery = 64

// Stop is the one stop signal of an execution: a flag its workers load
// before every iteration.  Three things set it:
//
//   - the context's watcher, an AfterFunc: prompt whenever a processor
//     is free to run it, which is what stops blocking or heavy bodies;
//   - a worker's own Poll, made before its first iteration and after
//     every PollEvery iterations it runs: when no processor is free,
//     each worker still begins at most PollEvery iterations once the
//     context is done or its deadline has passed;
//   - Set, on a contained panic.
//
// A context that can never be done (nil, or Done() == nil) arms neither
// the watcher nor the polls: the per-iteration cost is the one load.
type Stop struct {
	stopped atomic.Bool
	ctx     context.Context
}

// Watch arms s for ctx and returns the function that disarms it, to be
// called once the execution is over.
func (s *Stop) Watch(ctx context.Context) (release func() bool) {
	if ctx == nil || ctx.Done() == nil {
		return func() bool { return false }
	}
	s.ctx = ctx
	return context.AfterFunc(ctx, s.Set)
}

// Err is Err of the context s watches.
func (s *Stop) Err() error { return Err(s.ctx) }

// Set stops the execution.
func (s *Stop) Set() { s.stopped.Store(true) }

// Stopped reports whether the execution was stopped.
func (s *Stop) Stopped() bool { return s.stopped.Load() }

// Poll polls the context with Err, stopping the execution if it is
// done, and returns how many iterations the worker may begin before it
// polls again: PollEvery, or, with no context to poll, a count no
// execution exhausts.  A worker's countdown starts at zero, so it polls
// before its first iteration.
func (s *Stop) Poll() int {
	if s.ctx == nil {
		return math.MaxInt
	}
	if Err(s.ctx) != nil {
		s.Set()
	}
	return PollEvery
}

// IsCancel reports whether err is a cancellation or deadline error (the
// two outcomes callers usually treat identically: stop, keep the
// committed prefix, do not fall back to sequential completion).
func IsCancel(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadline)
}

// IsPanic reports whether err carries a contained worker panic.
func IsPanic(err error) bool { return errors.Is(err, ErrWorkerPanic) }

// AsPanic extracts the *PanicError from err, if any.
func AsPanic(err error) (*PanicError, bool) {
	var pe *PanicError
	ok := errors.As(err, &pe)
	return pe, ok
}
