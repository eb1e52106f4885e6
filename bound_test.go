package whilepar

// The stop bounds every self-scheduled engine keeps.  Once a context is
// done, each worker begins at most cancel.PollEvery more iterations —
// it polls the context itself, so the bound holds whether or not a
// processor is free to run the context's watcher; an expired deadline
// is seen by the same polls before the context's own timer has fired;
// and a blocking body, which polls seldom, is stopped by the watcher.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"whilepar/internal/cancel"
	"whilepar/internal/core"
	"whilepar/internal/doacross"
	"whilepar/internal/list"
	"whilepar/internal/loopir"
	"whilepar/internal/sched"
)

// boundEngine runs body(i) for the iterations [0, n) of one engine on
// procs workers and returns what the engine reports: the iterations it
// executed and its committed contiguous prefix.
type boundEngine struct {
	name string
	run  func(ctx context.Context, n, procs int, body func(i int)) (executed, prefix int, err error)
	// handoff: Executed also counts the iterations that found their
	// predecessor's dispatcher value missing and ended the pipeline
	// without running the body — at most one per worker.
	handoff bool
}

func boundEngines(t *testing.T) []boundEngine {
	lists := map[int]*list.Node{}
	doall := func(s sched.Schedule) func(context.Context, int, int, func(int)) (int, int, error) {
		return func(ctx context.Context, n, procs int, body func(int)) (int, int, error) {
			res, err := sched.DOALLCtx(ctx, n, sched.Options{Procs: procs, Schedule: s}, func(i, _ int) sched.Control {
				body(i)
				return sched.Continue
			})
			return res.Executed, res.Prefix, err
		}
	}
	walk := func(m core.ListMethod, s core.Strategy) func(context.Context, int, int, func(int)) (int, int, error) {
		return func(ctx context.Context, n, procs int, body func(int)) (int, int, error) {
			if lists[n] == nil {
				lists[n] = list.Build(n, nil)
			}
			rep, err := core.RunListCtx(ctx, lists[n], func(it *loopir.Iter, _ *list.Node) bool {
				body(it.Index)
				return true
			}, loopir.Class{Dispatcher: loopir.GeneralRecurrence, Terminator: loopir.RI},
				core.Options{Procs: procs, Strategy: s, ListMethod: m})
			if !strings.Contains(rep.Strategy, strings.Split(m.String(), " ")[0]) && s != core.StrategySequential {
				t.Fatalf("%v ran as %q", m, rep.Strategy)
			}
			if s == core.StrategySequential {
				rep.Executed = rep.Valid // one runner, in order: what ran is the prefix
			}
			return rep.Executed, rep.Valid, err
		}
	}
	return []boundEngine{
		{"DOALL Dynamic", doall(sched.Dynamic), false},
		{"DOALL Static", doall(sched.Static), false},
		{"DOALL Guided", doall(sched.Guided), false},
		{"DOALL Stealing", doall(sched.Stealing), false},
		{"General-1", walk(core.General1, core.Auto), false},
		{"General-2", walk(core.General2, core.Auto), false},
		{"General-3", walk(core.General3, core.Auto), false},
		{"DOACROSS", func(ctx context.Context, n, procs int, body func(int)) (int, int, error) {
			res, err := doacross.Run(ctx, n, doacross.Config{Procs: procs}, func(i, _ int, _ *doacross.Sync) doacross.Control {
				body(i)
				return doacross.Continue
			})
			return res.Executed, res.Prefix, err
		}, false},
		{"WHILE-DOACROSS", func(ctx context.Context, n, procs int, body func(int)) (int, int, error) {
			res, err := doacross.RunWhile(ctx, 0, func(d int) int { return d + 1 }, nil, n, doacross.Config{Procs: procs},
				func(i, _, _ int) bool {
					body(i)
					return true
				})
			return res.Executed, res.Prefix, err
		}, true},
		{"sequential", walk(core.General3, core.StrategySequential), false},
	}
}

// TestCancelBound cancels from inside the body at iteration k and holds
// every engine to the bound: each worker begins at most PollEvery
// iterations after the cancel returned, so on one worker — where the
// iterations run in order — at most k+1+PollEvery run in all.  (With
// more workers, iterations above k that begin before the cancel, on a
// worker that started first, are legitimately executed, so there the
// bound is on the iterations begun after it.)  The reported prefix must
// be the contiguous executed one, and no iteration may run twice.
func TestCancelBound(t *testing.T) {
	const n = 20000
	runs := 50
	if testing.Short() {
		runs = 10
	}
	maxProcs := max(2, runtime.GOMAXPROCS(0))
	// Every index has one owner, so plain counters do (a second owner
	// would be a race the detector reports); the reads come after the
	// join.
	ran := make([]int32, n)
	for _, e := range boundEngines(t) {
		t.Run(e.name, func(t *testing.T) {
			for procs := 1; procs <= maxProcs; procs++ {
				for _, k := range []int{0, 5, 127, 1000} {
					for run := 0; run < runs; run++ {
						clear(ran)
						var canceled atomic.Bool
						var late atomic.Int64
						ctx, stop := context.WithCancel(context.Background())
						executed, prefix, err := e.run(ctx, n, procs, func(i int) {
							if canceled.Load() {
								late.Add(1)
							}
							ran[i]++
							if i == k {
								stop()
								canceled.Store(true)
							}
						})
						stop()
						name := fmt.Sprintf("procs %d, k %d, run %d", procs, k, run)
						if !errors.Is(err, cancel.ErrCanceled) {
							t.Fatalf("%s: err = %v, want ErrCanceled", name, err)
						}
						bodies, contiguous := 0, -1
						for i := range ran {
							c := int(ran[i])
							if c > 1 {
								t.Fatalf("%s: iteration %d ran %d times", name, i, c)
							}
							if c == 0 && contiguous < 0 {
								contiguous = i
							}
							bodies += c
						}
						if contiguous < 0 {
							contiguous = n
						}
						if executed != bodies && !(e.handoff && executed > bodies && executed <= bodies+procs) {
							t.Fatalf("%s: Executed = %d, the bodies ran %d times", name, executed, bodies)
						}
						if prefix != contiguous {
							t.Fatalf("%s: prefix = %d, contiguous executed prefix %d", name, prefix, contiguous)
						}
						if l := int(late.Load()); l > cancel.PollEvery*procs {
							t.Fatalf("%s: %d iterations began after the cancel, bound %d", name, l, cancel.PollEvery*procs)
						}
						if procs == 1 && executed > k+1+cancel.PollEvery {
							t.Fatalf("%s: Executed = %d, bound %d", name, executed, k+1+cancel.PollEvery)
						}
					}
				}
			}
		})
	}
}

// TestDeadlineBound runs a short body under a 5 ms deadline: the
// workers' own polls see the deadline, so the call returns within 1 ms
// of it in the median run and within 4 ms in nine runs of ten.  (The
// slowest tenth is spared: on a small host shared with other test
// binaries the operating system can deschedule a worker thread mid-body
// for a few milliseconds, and the call cannot return before that body
// does.)
func TestDeadlineBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the bodies past the bound's budget")
	}
	const n, runs = 1 << 18, 20
	dl := 5 * time.Millisecond
	procs := runtime.GOMAXPROCS(0)
	for _, e := range boundEngines(t) {
		t.Run(e.name, func(t *testing.T) {
			overruns := make([]time.Duration, runs)
			for run := range overruns {
				ctx, stop := context.WithTimeout(context.Background(), dl)
				deadline, _ := ctx.Deadline()
				_, _, err := e.run(ctx, n, procs, func(int) { spin(300) })
				overruns[run] = time.Since(deadline)
				stop()
				if !errors.Is(err, cancel.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("run %d: err = %v, want ErrDeadline", run, err)
				}
			}
			sort.Slice(overruns, func(a, b int) bool { return overruns[a] < overruns[b] })
			t.Logf("overrun median %v, max %v", overruns[runs/2], overruns[runs-1])
			if overruns[runs/2] > time.Millisecond || overruns[runs*9/10-1] > 4*time.Millisecond {
				t.Fatalf("overruns %v: want median <= 1ms, 90th percentile <= 4ms", overruns)
			}
		})
	}
}

// TestDeadlineBoundSleepingBody runs a body that blocks for 1 ms under a
// 10 ms deadline on 2 workers: the workers poll only every PollEvery
// bodies — 64 ms here — so it is the context's watcher that must stop
// them, within 5 ms of the deadline in the median of three runs (one run
// can lose a few milliseconds to the operating system, as above).
func TestDeadlineBoundSleepingBody(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector stretches the sleeps and timers past the bound's budget")
	}
	const n, runs = 1 << 12, 3
	for _, e := range boundEngines(t) {
		t.Run(e.name, func(t *testing.T) {
			overruns := make([]time.Duration, runs)
			for run := range overruns {
				ctx, stop := context.WithTimeout(context.Background(), 10*time.Millisecond)
				deadline, _ := ctx.Deadline()
				_, _, err := e.run(ctx, n, 2, func(int) { time.Sleep(time.Millisecond) })
				overruns[run] = time.Since(deadline)
				stop()
				if !errors.Is(err, cancel.ErrDeadline) {
					t.Fatalf("run %d: err = %v, want ErrDeadline", run, err)
				}
			}
			sort.Slice(overruns, func(a, b int) bool { return overruns[a] < overruns[b] })
			if overruns[runs/2] > 5*time.Millisecond {
				t.Fatalf("overruns %v: want the median <= 5ms", overruns)
			}
		})
	}
}

// spinSink keeps spin's loop from being optimised away.
var spinSink atomic.Int64

// spin burns about k simple steps of CPU.
func spin(k int) {
	x := int64(1)
	for j := 0; j < k; j++ {
		x = x*31 + int64(j)
	}
	if x == 0 {
		spinSink.Add(1)
	}
}
