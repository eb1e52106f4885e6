package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"whilepar/internal/autotune"
	"whilepar/internal/cancel"
	"whilepar/internal/core"
	"whilepar/internal/loopir"
	"whilepar/internal/mem"
)

// countLoop is the canonical native body: a monotonic induction loop
// over a fresh array, run through the core orchestrator so the shared
// pool, metrics and ctx plumbing all engage.  perIter > 0 inserts a
// sleep per iteration so deadline/cancel tests have time to fire.
func countLoop(n int, perIter time.Duration) NativeFunc {
	return func(ctx context.Context, opt core.Options, args map[string]float64) (core.Report, error) {
		a := mem.NewArray("A", n)
		opt.Shared = []*mem.Array{a}
		opt.Tested = []*mem.Array{a}
		return core.RunInductionCtx(ctx, &loopir.Loop[int]{
			Class: loopir.Class{Dispatcher: loopir.MonotonicInduction, Terminator: loopir.RV},
			Disp:  loopir.IntInduction{C: 1},
			Body: func(it *loopir.Iter, d int) bool {
				if perIter > 0 {
					time.Sleep(perIter)
				}
				it.Store(a, d, float64(d)+1)
				return true
			},
			Max: n,
		}, opt)
	}
}

// panicLoop panics mid-loop on one virtual processor.
func panicLoop(n int) NativeFunc {
	return func(ctx context.Context, opt core.Options, args map[string]float64) (core.Report, error) {
		a := mem.NewArray("A", n)
		opt.Shared = []*mem.Array{a}
		opt.Tested = []*mem.Array{a}
		return core.RunInductionCtx(ctx, &loopir.Loop[int]{
			Class: loopir.Class{Dispatcher: loopir.MonotonicInduction, Terminator: loopir.RV},
			Disp:  loopir.IntInduction{C: 1},
			Body: func(it *loopir.Iter, d int) bool {
				if d == n/2 {
					panic("injected body panic")
				}
				it.Store(a, d, 1)
				return true
			},
			Max: n,
		}, opt)
	}
}

const testProgram = `
	while (i < n) {
		b[i] = 2*a[i] + 1
		i = i + 1
	}`

func newTestScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s := NewScheduler(cfg)
	t.Cleanup(s.Close)
	return s
}

func waitDone(t *testing.T, s *Scheduler, id string) Status {
	t.Helper()
	ctx, cancelFn := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelFn()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return st
}

func TestSubmitValidation(t *testing.T) {
	s := newTestScheduler(t, Config{Procs: 2, MaxInFlight: 1})
	cases := []JobSpec{
		{Kind: "bogus"},
		{Kind: "while"},                            // empty program
		{Kind: "while", Program: "garbage ("},      // parse error
		{Kind: "native", Native: "no-such-native"}, // unregistered
		{Kind: "while", Program: testProgram, Strategy: "warp-speed"}, // unknown strategy
	}
	for i, spec := range cases {
		if _, err := s.Submit(spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d: err = %v, want ErrBadSpec", i, err)
		}
	}
	st := s.Stats()
	if st.Submitted != 0 {
		t.Fatalf("bad specs counted as submissions: %+v", st)
	}
}

func TestWhileJobRuns(t *testing.T) {
	s := newTestScheduler(t, Config{Procs: 4, MaxInFlight: 2})
	id, err := s.Submit(JobSpec{Kind: "while", Program: testProgram, MaxIter: 256})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, s, id)
	if st.State != "done" || st.Report == nil || st.Report.Valid != 256 {
		t.Fatalf("status %+v (report %+v)", st, st.Report)
	}
	if st.Metrics == nil || st.Metrics.Issued == 0 {
		t.Fatalf("job metrics not recorded: %+v", st.Metrics)
	}
}

func TestRateLimitRejects(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	RegisterNative("rl-count", countLoop(64, 0))
	s := newTestScheduler(t, Config{Procs: 2, MaxInFlight: 1, Rate: 1, Burst: 2, Now: clock})

	spec := JobSpec{Kind: "native", Native: "rl-count"}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(spec); err != nil {
			t.Fatalf("submit %d within burst: %v", i, err)
		}
	}
	if _, err := s.Submit(spec); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-burst submit: err = %v, want ErrRateLimited", err)
	}
	mu.Lock()
	now = now.Add(time.Second) // refill one token
	mu.Unlock()
	if _, err := s.Submit(spec); err != nil {
		t.Fatalf("submit after refill: %v", err)
	}
	if st := s.Stats(); st.RejectedRate != 1 {
		t.Fatalf("stats %+v, want RejectedRate 1", st)
	}
}

func TestQueueFullRejects(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	RegisterNative("qf-block", func(ctx context.Context, opt core.Options, args map[string]float64) (core.Report, error) {
		started <- struct{}{}
		<-gate
		return core.Report{}, nil
	})
	s := newTestScheduler(t, Config{Procs: 2, MaxInFlight: 1, QueueDepth: 2})

	first, err := s.Submit(JobSpec{Kind: "native", Native: "qf-block"})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the single dispatch slot is now occupied
	var queued []string
	for i := 0; i < 2; i++ {
		id, err := s.Submit(JobSpec{Kind: "native", Native: "qf-block"})
		if err != nil {
			t.Fatalf("fill queue %d: %v", i, err)
		}
		queued = append(queued, id)
	}
	if _, err := s.Submit(JobSpec{Kind: "native", Native: "qf-block"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-depth submit: err = %v, want ErrQueueFull", err)
	}
	close(gate)
	for range queued {
		<-started // drain the start signals as the queue unblocks
	}
	for _, id := range append([]string{first}, queued...) {
		if st := waitDone(t, s, id); st.State != "done" {
			t.Fatalf("job %s: %+v", id, st)
		}
	}
	if st := s.Stats(); st.RejectedQueue != 1 || st.Completed != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPriorityDispatchOrder(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	RegisterNative("prio-block", func(ctx context.Context, opt core.Options, args map[string]float64) (core.Report, error) {
		started <- struct{}{}
		<-gate
		return core.Report{}, nil
	})
	var mu sync.Mutex
	var order []float64
	RegisterNative("prio-mark", func(ctx context.Context, opt core.Options, args map[string]float64) (core.Report, error) {
		mu.Lock()
		order = append(order, args["tag"])
		mu.Unlock()
		return core.Report{}, nil
	})
	s := newTestScheduler(t, Config{Procs: 2, MaxInFlight: 1, QueueDepth: 16})

	blocker, err := s.Submit(JobSpec{Kind: "native", Native: "prio-block"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var ids []string
	for i, prio := range []int{0, 5, 0, 5} {
		id, err := s.Submit(JobSpec{
			Kind: "native", Native: "prio-mark",
			Priority: prio,
			Args:     map[string]float64{"tag": float64(10*prio + i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	close(gate)
	waitDone(t, s, blocker)
	for _, id := range ids {
		waitDone(t, s, id)
	}
	want := []float64{51, 53, 0, 2} // priority 5 first, FIFO within a priority
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	RegisterNative("cx-block", func(ctx context.Context, opt core.Options, args map[string]float64) (core.Report, error) {
		started <- struct{}{}
		select {
		case <-gate:
			return core.Report{}, nil
		case <-ctx.Done():
			return core.Report{}, cancel.Wrap(ctx.Err())
		}
	})
	s := newTestScheduler(t, Config{Procs: 2, MaxInFlight: 1, QueueDepth: 8})

	runningID, err := s.Submit(JobSpec{Kind: "native", Native: "cx-block"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queuedID, err := s.Submit(JobSpec{Kind: "native", Native: "cx-block"})
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Cancel(queuedID); err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, s, queuedID); st.State != "canceled" {
		t.Fatalf("queued cancel: %+v", st)
	}
	if err := s.Cancel(runningID); err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, s, runningID)
	if st.State != "canceled" || st.ErrorKind != "canceled" {
		t.Fatalf("running cancel: %+v", st)
	}
	if err := s.Cancel(runningID); err != nil { // idempotent on terminal
		t.Fatal(err)
	}
	if err := s.Cancel("j999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: %v", err)
	}
	close(gate)
}

// TestMixedConcurrentJobs is the acceptance scenario: 64 jobs — .while
// programs and native bodies, several strategies, some with deadlines
// guaranteed to expire, one panicking — all multiplexed onto one shared
// pool.  Every job must reach the right terminal state and the
// scheduler must stay serviceable afterwards.
func TestMixedConcurrentJobs(t *testing.T) {
	RegisterNative("mx-count", countLoop(256, 0))
	RegisterNative("mx-slow", countLoop(100_000, 200*time.Microsecond))
	RegisterNative("mx-panic", panicLoop(128))
	s := newTestScheduler(t, Config{Procs: 4, MaxInFlight: 8, QueueDepth: 128})

	type expect struct {
		id    string
		state string
		kind  string
	}
	strategies := []string{"auto", "speculate", "pipeline", "sequential"}
	var jobs []expect
	for i := 0; i < 64; i++ {
		var (
			spec JobSpec
			want expect
		)
		switch i % 4 {
		case 0:
			spec = JobSpec{Kind: "while", Program: testProgram, MaxIter: 256,
				Strategy: strategies[(i/4)%len(strategies)]}
			want = expect{state: "done"}
		case 1:
			spec = JobSpec{Kind: "native", Native: "mx-count", Priority: i % 3}
			want = expect{state: "done"}
		case 2:
			// 100k iterations at 200µs each can't finish in 25ms,
			// whether the time is spent queued or running.
			spec = JobSpec{Kind: "native", Native: "mx-slow", DeadlineMs: 25}
			want = expect{state: "failed", kind: "deadline"}
		default:
			if i == 3 {
				spec = JobSpec{Kind: "native", Native: "mx-panic"}
				want = expect{state: "failed", kind: "panic"}
			} else {
				spec = JobSpec{Kind: "native", Native: "mx-count"}
				want = expect{state: "done"}
			}
		}
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		want.id = id
		jobs = append(jobs, want)
	}

	for i, want := range jobs {
		st := waitDone(t, s, want.id)
		if st.State != want.state {
			t.Errorf("job %d (%s): state %q (errkind %q, err %q), want %q",
				i, want.id, st.State, st.ErrorKind, st.Error, want.state)
		}
		if want.kind != "" && st.ErrorKind != want.kind {
			t.Errorf("job %d (%s): error kind %q (err %q), want %q",
				i, want.id, st.ErrorKind, st.Error, want.kind)
		}
		if want.state == "done" && (st.Report == nil || st.Report.Valid != 256) {
			t.Errorf("job %d (%s): report %+v, want Valid 256", i, want.id, st.Report)
		}
	}

	// The pool must have survived deadline unwinds and the panic.
	id, err := s.Submit(JobSpec{Kind: "while", Program: testProgram, MaxIter: 64})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, s, id); st.State != "done" || st.Report.Valid != 64 {
		t.Fatalf("post-storm job: %+v", st)
	}

	stats := s.Stats()
	if stats.Submitted != 65 || stats.Running != 0 || stats.Queued != 0 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.Completed+stats.Failed != 65 {
		t.Fatalf("stats %+v: completed+failed != 65", stats)
	}
	agg := s.MetricsSnapshot()
	if agg.Issued == 0 || agg.WorkerPanics == 0 {
		t.Fatalf("aggregate metrics %+v: want issued > 0 and worker panics > 0", agg)
	}
}

func TestRetainDoneEvictsButKeepsCounters(t *testing.T) {
	RegisterNative("ev-count", countLoop(64, 0))
	s := newTestScheduler(t, Config{Procs: 2, MaxInFlight: 2, RetainDone: 4, QueueDepth: 64})

	var ids []string
	for i := 0; i < 12; i++ {
		// Pin the strategy: Auto may settle on a sequential plan for a
		// loop this small, and sequential execution issues nothing —
		// the conservation check below needs a fixed per-job count.
		id, err := s.Submit(JobSpec{Kind: "native", Native: "ev-count", Strategy: "speculate"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var issued int64
	for _, id := range ids {
		// A job can be evicted before we query it; Wait then reports
		// ErrNotFound, which is fine — its counters are in the aggregate.
		ctx, cancelFn := context.WithTimeout(context.Background(), 30*time.Second)
		st, err := s.Wait(ctx, id)
		cancelFn()
		if err == nil && st.Metrics != nil {
			issued = st.Metrics.Issued
		} else if !errors.Is(err, ErrNotFound) {
			t.Fatalf("Wait(%s): %v", id, err)
		}
	}
	_ = issued
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := s.Stats(); st.Completed == 12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats %+v: jobs did not drain", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := len(s.List()); n > 4+2 { // retained plus any not yet retired
		t.Fatalf("retained %d jobs, want <= 6", n)
	}
	// Eviction must not lose counters: 12 jobs x 64 issued iterations.
	if agg := s.MetricsSnapshot(); agg.Issued != 12*64 {
		t.Fatalf("aggregate issued = %d, want %d", agg.Issued, 12*64)
	}
}

func TestCloseCancelsOutstanding(t *testing.T) {
	started := make(chan struct{}, 1)
	RegisterNative("cl-block", func(ctx context.Context, opt core.Options, args map[string]float64) (core.Report, error) {
		started <- struct{}{}
		<-ctx.Done()
		return core.Report{}, cancel.Wrap(ctx.Err())
	})
	s := NewScheduler(Config{Procs: 2, MaxInFlight: 1, QueueDepth: 8})
	runningID, err := s.Submit(JobSpec{Kind: "native", Native: "cl-block"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queuedID, err := s.Submit(JobSpec{Kind: "native", Native: "cl-block"})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	for _, id := range []string{runningID, queuedID} {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		if st.State != "canceled" {
			t.Fatalf("job %s after Close: %+v", id, st)
		}
	}
	if _, err := s.Submit(JobSpec{Kind: "native", Native: "cl-block"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	s.Close() // idempotent
}

func TestNativeRegistry(t *testing.T) {
	RegisterNative("reg-a", countLoop(8, 0))
	RegisterNative("reg-b", countLoop(8, 0))
	names := Natives()
	found := 0
	for _, n := range names {
		if n == "reg-a" || n == "reg-b" {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("Natives() = %v", names)
	}
	if _, ok := LookupNative("reg-a"); !ok {
		t.Fatal("LookupNative(reg-a) = false")
	}
	if _, ok := LookupNative(fmt.Sprintf("reg-%d", 99)); ok {
		t.Fatal("LookupNative on unknown name = true")
	}
}

// Two different .while programs must learn under two profiles, and two
// submissions of the same one under one: core's call-site key sees
// every interpreted loop enter through the same line of this package.
func TestWhileJobsLearnPerProgram(t *testing.T) {
	const other = `
	while (i < n) {
		b[i] = a[i] * a[i]
		i = i + 1
	}`
	store := autotune.NewProfileStore()
	s := newTestScheduler(t, Config{Procs: 2, MaxInFlight: 1, Profiles: store})
	for _, spec := range []JobSpec{
		{Kind: "while", Program: testProgram, MaxIter: 512},
		{Kind: "while", Program: other, MaxIter: 512},
		{Kind: "while", Program: testProgram, MaxIter: 512},
		{Kind: "while", Program: testProgram, MaxIter: 256}, // another bound: another loop
	} {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, s, id); st.State != "done" {
			t.Fatalf("status %+v", st)
		}
	}
	if store.Len() != 3 {
		t.Fatalf("%d profiles for three distinct loops", store.Len())
	}
	twice, ok := store.Lookup(profileKey(JobSpec{Kind: "while", Program: testProgram, MaxIter: 512}))
	if !ok || twice.Runs != 2 {
		t.Fatalf("the program submitted twice has profile %+v (found %v), want 2 runs", twice, ok)
	}
	if _, ok := store.Lookup("unknown"); ok {
		t.Fatal("a while job still learned under the call-site fallback key")
	}
}

// A running job pinned to the sequential strategy must stop when it is
// canceled or its deadline passes: the explicit sequential path used to
// ignore its context altogether.
func TestSequentialJobObservesCancelAndDeadline(t *testing.T) {
	started := make(chan struct{}, 2)
	RegisterNative("seq-slow", func(ctx context.Context, opt core.Options, args map[string]float64) (core.Report, error) {
		first := true
		return core.RunInductionCtx(ctx, &loopir.Loop[int]{
			Class: loopir.Class{Dispatcher: loopir.MonotonicInduction, Terminator: loopir.RI},
			Disp:  loopir.IntInduction{C: 1},
			Body: func(it *loopir.Iter, d int) bool {
				if first {
					first = false
					started <- struct{}{}
				}
				time.Sleep(100 * time.Microsecond)
				return true
			},
			Max: 1 << 30, // days of it
		}, opt)
	})
	s := newTestScheduler(t, Config{Procs: 2, MaxInFlight: 2})

	id, err := s.Submit(JobSpec{Kind: "native", Native: "seq-slow", Strategy: "sequential"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, s, id); st.State != "canceled" || st.ErrorKind != "canceled" {
		t.Fatalf("canceled sequential job: %+v", st)
	}

	id, err = s.Submit(JobSpec{Kind: "native", Native: "seq-slow", Strategy: "sequential", DeadlineMs: 20})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, s, id); st.State != "failed" || st.ErrorKind != "deadline" {
		t.Fatalf("sequential job past its deadline: %+v", st)
	}
}
