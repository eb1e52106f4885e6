package core

import (
	"context"
	"math"
	"runtime/debug"

	"whilepar/internal/cancel"
	"whilepar/internal/genrec"
	"whilepar/internal/list"
	"whilepar/internal/loopir"
	"whilepar/internal/mem"
	"whilepar/internal/obs"
)

// seqRun is the orchestrator's one sequential executor: the explicit
// StrategySequential request, a cost-model rejection, the auto path's
// timed probe and its sequential remainder all run through it, on the
// calling goroutine, so that all of them stop when the context does and
// contain a panicking body.
//
// Cancellation is observed through the stop signal (cancel.Stop): one
// atomic load per iteration of a flag the context's watcher sets when a
// processor is free to run it, and that the runner sets itself from its
// own poll of the context before the first iteration and after every
// cancel.PollEvery iterations — so a done context, or an expired
// deadline, stops it within that many iterations.  A panic is caught by
// one recover per advance, not one per iteration; the panicking
// iteration's index is read back from the Iter the body was handed.
type seqRun[D any] struct {
	l *loopir.Loop[D]
	m *obs.Metrics
	// it is re-armed for every iteration (the seqRun is on the heap, so
	// handing its address to the body allocates nothing).
	it loopir.Iter
	// i is the next iteration to run — everything below it is committed
	// — and d its dispatcher value.
	i int
	d D
	// done reports that the loop terminated: the RI condition or the
	// body said stop, or Max was reached.
	done bool

	stop    cancel.Stop
	release func() bool
}

// newSeqRun positions a sequential execution of l at iteration from,
// whose dispatcher value is d.  A context that is already done is
// reported here, before any iteration runs; close must be called when
// the execution is over.
func newSeqRun[D any](ctx context.Context, l *loopir.Loop[D], from int, d D, m *obs.Metrics) (*seqRun[D], error) {
	if err := cancel.Err(ctx); err != nil {
		m.CtxCancel()
		return nil, err
	}
	s := &seqRun[D]{l: l, m: m, i: from, d: d}
	s.release = s.stop.Watch(ctx)
	return s, nil
}

func (s *seqRun[D]) close() { s.release() }

// advance runs iterations from s.i up to limit (exclusive; limit <= 0
// means to the loop's own end) under trk, nil for direct access.  It
// returns early, with s.done set, when the loop terminates; with the
// typed context error when the context is done; and with a
// *cancel.PanicError when the body panics.  In every case s.i is the
// committed prefix: iterations below it ran to completion, iteration
// s.i did not store (see loopir.Body for the exit convention).
func (s *seqRun[D]) advance(limit int, trk mem.Tracker) (err error) {
	l := s.l
	if l.Max > 0 && (limit <= 0 || limit > l.Max) {
		limit = l.Max
	}
	if limit <= 0 {
		limit = math.MaxInt
	}
	defer func() {
		if r := recover(); r != nil {
			s.m.WorkerPanic()
			s.i = s.it.Index
			err = &cancel.PanicError{Iter: s.i, VPN: 0, Value: r, Stack: debug.Stack()}
		}
	}()
	i, d, it, left := s.i, s.d, &s.it, 0
	for i < limit {
		// The run of iterations up to the next poll of the context: the
		// per-iteration check is the stop flag alone.
		if left == 0 {
			left = s.stop.Poll()
		}
		end := limit
		if limit-i > left {
			end = i + left
		}
		left -= end - i
		for ; i < end; i++ {
			if s.stop.Stopped() {
				s.i, s.d = i, d
				s.m.CtxCancel()
				return s.stop.Err()
			}
			*it = loopir.Iter{Index: i, Tracker: trk}
			if (l.Cond != nil && !l.Cond(d)) || !l.Body(it, d) {
				s.i, s.d, s.done = i, d, true
				return nil
			}
			d = l.Disp.Next(d)
		}
	}
	s.i, s.d = i, d
	s.done = l.Max > 0 && i >= l.Max
	return nil
}

// runSequential executes the whole loop through seqRun and completes
// rep, which names the strategy (and carries the verdict that led here).
func runSequential[D any](ctx context.Context, l *loopir.Loop[D], rep Report, opt Options) (Report, error) {
	s, err := newSeqRun(ctx, l, 0, l.Disp.Start(), opt.Metrics)
	if err != nil {
		return finish(rep, opt), err
	}
	defer s.close()
	err = s.advance(0, nil)
	rep.Valid = s.i
	if err != nil {
		return finish(rep, opt), err
	}
	recordStats(opt, rep.Valid)
	return finish(rep, opt), nil
}

// listLoop presents a list traversal as the loop it is — the pointer is
// the dispatcher, `pt != nil` the RI condition — so the sequential
// executor serves it like any other.
func listLoop(head *list.Node, body genrec.Body, class loopir.Class) *loopir.Loop[*list.Node] {
	return &loopir.Loop[*list.Node]{
		Class: class,
		Disp:  listDisp{head},
		Cond:  func(pt *list.Node) bool { return pt != nil },
		Body:  loopir.Body[*list.Node](body),
	}
}

// listDisp is the pointer chase as a dispatcher.
type listDisp struct{ head *list.Node }

func (d listDisp) Start() *list.Node           { return d.head }
func (listDisp) Next(pt *list.Node) *list.Node { return pt.Next }
