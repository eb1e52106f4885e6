// Package serve multiplexes many concurrent loop executions onto one
// shared worker pool behind an admission-controlled scheduler.
//
// The embedding model (one whilepar.Run per caller-owned pool) breaks
// down in a long-lived service: spawning a fresh pool per request
// thrashes the runtime, and unbounded concurrent requests oversubscribe
// the machine.  The Scheduler here owns a single sched.Pool in shared
// (FIFO-ticket) mode and admits jobs through three gates:
//
//   - a token bucket bounds the submission rate (reject: ErrRateLimited),
//   - a bounded queue caps waiting work (reject: ErrQueueFull),
//   - a fixed dispatcher count caps in-flight executions; dispatch order
//     is priority-then-FIFO.
//
// Jobs are .while programs (compiled at submission, so malformed
// programs fail fast) or pre-registered native Go loop bodies.  Each
// job carries its own obs.Metrics; the service-wide view is the sum of
// per-job snapshots (Snapshot.Add), rendered by WriteMetrics in the
// Prometheus text format.
package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"whilepar/internal/autotune"
	"whilepar/internal/cancel"
	"whilepar/internal/core"
	"whilepar/internal/frontend"
	"whilepar/internal/obs"
	"whilepar/internal/sched"
)

// Typed admission and lookup errors.  The HTTP layer maps these onto
// status codes (429, 503, 404); embedders match with errors.Is.
var (
	// ErrBadSpec: the JobSpec is malformed — unknown kind, empty or
	// uncompilable program, unregistered native, unknown strategy.
	ErrBadSpec = errors.New("serve: bad job spec")
	// ErrRateLimited: the token bucket is empty; retry later.
	ErrRateLimited = errors.New("serve: submission rate limit exceeded")
	// ErrQueueFull: the admission queue is at QueueDepth.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrClosed: the scheduler has been shut down.
	ErrClosed = errors.New("serve: scheduler closed")
	// ErrNotFound: no job with that ID (it may have been evicted after
	// RetainDone newer jobs finished).
	ErrNotFound = errors.New("serve: no such job")
)

// Config sizes a Scheduler.  The zero value is usable: every field
// has a default.
type Config struct {
	// Procs is the shared pool's width (virtual processors).  Default
	// GOMAXPROCS.
	Procs int
	// QueueDepth caps jobs waiting for a dispatch slot; submissions
	// beyond it get ErrQueueFull.  Default 64.
	QueueDepth int
	// MaxInFlight caps concurrently executing jobs.  Each in-flight
	// job runs its parallel phases through the shared pool's FIFO
	// admission, so this bounds memory and queueing pressure, not CPU
	// oversubscription.  Default 4.
	MaxInFlight int
	// Rate and Burst parameterize the submission token bucket (jobs
	// per second, bucket depth).  Rate 0 disables rate limiting.
	Rate  float64
	Burst int
	// RetainDone is how many finished jobs stay queryable; older ones
	// are evicted after folding their counters into the service-wide
	// aggregate, so /metrics stays monotonic.  Default 256.
	RetainDone int
	// Profiles, if non-nil, is shared across jobs so adaptive strategy
	// selection warms up across requests for the same loop: the same
	// native, or the same .while program with the same MaxIter.
	Profiles *autotune.ProfileStore
	// Now injects a clock for tests.  Default time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.RetainDone <= 0 {
		c.RetainDone = 256
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Stats is a point-in-time view of the Scheduler's admission counters.
type Stats struct {
	Submitted     int64 `json:"submitted"`
	RejectedRate  int64 `json:"rejected_rate"`
	RejectedQueue int64 `json:"rejected_queue"`
	Completed     int64 `json:"completed"`
	Failed        int64 `json:"failed"`
	Canceled      int64 `json:"canceled"`
	Queued        int   `json:"queued"`
	Running       int   `json:"running"`
	PoolProcs     int   `json:"pool_procs"`
}

// Scheduler multiplexes jobs onto one shared pool.  Create with
// NewScheduler, shut down with Close.
type Scheduler struct {
	cfg     Config
	pool    *sched.Pool
	limiter *tokenBucket
	now     func() time.Time
	wg      sync.WaitGroup

	mu         sync.Mutex
	cond       *sync.Cond
	closed     bool
	seq        uint64
	queue      jobQueue
	jobs       map[string]*job
	doneOrder  []string     // finished job IDs, oldest first, for eviction
	retiredAgg obs.Snapshot // counters of evicted jobs, so /metrics is monotonic

	submitted, rejectedRate, rejectedQueue int64
	completed, failed, canceled            int64
	running                                int
}

// NewScheduler starts the shared pool and cfg.MaxInFlight dispatchers.
func NewScheduler(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:     cfg,
		pool:    sched.NewSharedPool(cfg.Procs),
		now:     cfg.Now,
		limiter: newTokenBucket(cfg.Rate, cfg.Burst, cfg.Now),
		jobs:    make(map[string]*job),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.MaxInFlight; i++ {
		s.wg.Add(1)
		go s.dispatch()
	}
	return s
}

// compileWhile builds the interpreted program for a "while" job.
func compileWhile(spec JobSpec) (*frontend.Program, error) {
	if spec.Program == "" {
		return nil, fmt.Errorf("%w: empty program", ErrBadSpec)
	}
	ast, err := frontend.Parse(spec.Program)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	an, err := frontend.Analyze(ast)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	maxIter := spec.MaxIter
	if maxIter <= 0 {
		maxIter = 1024
	}
	n := spec.ArrayN
	if n <= 0 {
		n = maxIter
	}
	prog, err := frontend.Compile(ast, an, frontend.AutoEnv(ast, n), maxIter)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	return prog, nil
}

// profileKey names the profile a job's loop learns under.  A native is
// its registered name.  A .while job is its program: core's call-site
// key cannot tell one interpreted loop from another — they all enter
// through the same line of this package — so the key is a hash of the
// source text and the iteration bound, the two things that make two
// submissions the same loop.
func profileKey(spec JobSpec) string {
	if spec.Kind != "while" {
		return spec.Native
	}
	h := fnv.New64a()
	_, _ = io.WriteString(h, spec.Program) // a hash.Hash never fails a write
	return fmt.Sprintf("while:%016x:%d", h.Sum64(), spec.MaxIter)
}

// Submit admits a job.  The program is compiled (or the native looked
// up) before any admission gate, so a malformed spec always reports
// ErrBadSpec rather than consuming rate-limit tokens.  On success the
// returned ID addresses Status, Wait and Cancel.
func (s *Scheduler) Submit(spec JobSpec) (string, error) {
	if _, err := parseStrategy(spec.Strategy); err != nil {
		return "", err
	}
	var (
		prog   *frontend.Program
		native NativeFunc
		err    error
	)
	switch spec.Kind {
	case "while":
		if prog, err = compileWhile(spec); err != nil {
			return "", err
		}
	case "native":
		var ok bool
		if native, ok = LookupNative(spec.Native); !ok {
			return "", fmt.Errorf("%w: unregistered native %q", ErrBadSpec, spec.Native)
		}
	default:
		return "", fmt.Errorf("%w: kind must be \"while\" or \"native\", got %q", ErrBadSpec, spec.Kind)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", ErrClosed
	}
	if !s.limiter.allow() {
		s.rejectedRate++
		return "", ErrRateLimited
	}
	if s.queue.Len() >= s.cfg.QueueDepth {
		s.rejectedQueue++
		return "", ErrQueueFull
	}
	s.seq++
	now := s.now()
	j := &job{
		id:        fmt.Sprintf("j%d", s.seq),
		seq:       s.seq,
		spec:      spec,
		key:       profileKey(spec),
		prog:      prog,
		native:    native,
		metrics:   obs.NewMetrics(),
		submitted: now,
		done:      make(chan struct{}),
	}
	if spec.DeadlineMs > 0 {
		j.deadline = now.Add(time.Duration(spec.DeadlineMs) * time.Millisecond)
	}
	s.jobs[j.id] = j
	s.queue.push(j)
	s.submitted++
	s.cond.Signal()
	return j.id, nil
}

// dispatch is one in-flight slot: pop the highest-priority queued job,
// run it to a terminal state, account for it, repeat.
func (s *Scheduler) dispatch() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && s.queue.Len() == 0 {
			s.cond.Wait()
		}
		j := s.queue.pop()
		if j == nil { // closed and drained
			s.mu.Unlock()
			return
		}
		s.running++
		s.mu.Unlock()

		out, ran := s.runJob(j)

		// The job goes terminal and is accounted under one hold of
		// s.mu, so whoever sees it done also sees the counters moved.
		s.mu.Lock()
		s.running--
		if ran {
			j.finish(out.state, out.rep, out.err, out.kind, s.now())
		}
		s.retireLocked(j)
		s.mu.Unlock()
	}
}

// outcome is the terminal state runJob decided for a job.
type outcome struct {
	state State
	rep   *core.Report
	err   error
	kind  string
}

// runJob executes one job on the shared pool and returns the terminal
// state the dispatcher must move it to (false: it already is terminal).
// Errors from the runtime keep their typed identity
// (cancel.ErrDeadline, cancel.ErrWorkerPanic, ...) in the job record.
func (s *Scheduler) runJob(j *job) (outcome, bool) {
	now := s.now()

	j.mu.Lock()
	if j.state.Terminal() { // canceled while queued
		j.mu.Unlock()
		return outcome{}, false
	}
	if j.canceled {
		j.mu.Unlock()
		return outcome{state: Canceled, err: cancel.ErrCanceled, kind: "canceled"}, true
	}
	// The deadline is absolute from submission, so a job that aged out
	// in the queue fails without touching the pool.
	if !j.deadline.IsZero() && !now.Before(j.deadline) {
		j.mu.Unlock()
		return outcome{state: Failed, kind: "deadline",
			err: fmt.Errorf("%w: deadline expired after %v in queue", cancel.ErrDeadline, now.Sub(j.submitted))}, true
	}
	ctx := context.Background()
	var cancelFn context.CancelFunc
	if j.deadline.IsZero() {
		ctx, cancelFn = context.WithCancel(ctx)
	} else {
		ctx, cancelFn = context.WithDeadline(ctx, j.deadline)
	}
	j.state = Running
	j.started = now
	j.cancel = cancelFn
	j.mu.Unlock()
	defer cancelFn()

	procs := s.pool.Size()
	if j.spec.Procs > 0 && j.spec.Procs < procs {
		procs = j.spec.Procs
	}
	strategy, _ := parseStrategy(j.spec.Strategy) // validated at Submit
	opt := core.Options{
		Strategy: strategy,
		Procs:    procs,
		Workers:  s.pool,
		Metrics:  j.metrics,
		Profiles: s.cfg.Profiles,
		Key:      j.key,
	}

	// The runtime converts worker panics to cancel.PanicError, but a
	// native body can panic outside any whilepar entry point; contain
	// that too so the dispatch slot survives.
	rep, err := func() (rep core.Report, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%w: job body: %v", cancel.ErrWorkerPanic, r)
			}
		}()
		if j.prog != nil {
			return j.prog.RunContext(ctx, opt)
		}
		return j.native(ctx, opt, j.spec.Args)
	}()

	state, kind := Done, ""
	switch {
	case err == nil:
	case cancel.IsPanic(err):
		state, kind = Failed, "panic"
	case errors.Is(err, cancel.ErrDeadline):
		state, kind = Failed, "deadline"
	case errors.Is(err, cancel.ErrCanceled):
		state, kind = Canceled, "canceled"
	default:
		state, kind = Failed, "program"
	}
	return outcome{state: state, rep: &rep, err: err, kind: kind}, true
}

// retireLocked accounts a terminal job and evicts beyond RetainDone.
// Caller holds s.mu.
func (s *Scheduler) retireLocked(j *job) {
	j.mu.Lock()
	st := j.state
	j.mu.Unlock()
	switch st {
	case Done:
		s.completed++
	case Failed:
		s.failed++
	case Canceled:
		s.canceled++
	}
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > s.cfg.RetainDone {
		old := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		if oj, ok := s.jobs[old]; ok {
			s.retiredAgg = s.retiredAgg.Add(oj.metrics.Snapshot())
			delete(s.jobs, old)
		}
	}
}

// Status returns the job's current snapshot.
func (s *Scheduler) Status(id string) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.status(), nil
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (s *Scheduler) Wait(ctx context.Context, id string) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	select {
	case <-j.done:
		return j.status(), nil
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
}

// Done exposes the job's completion channel (closed on any terminal
// state) for select-based waiting.
func (s *Scheduler) Done(id string) (<-chan struct{}, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	return j.done, nil
}

// Cancel withdraws a job: a queued job goes terminal immediately, a
// running one has its context canceled and finishes with ErrCanceled.
// Canceling a terminal job is a no-op.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return nil
	}
	j.canceled = true
	if j.cancel != nil { // running: let runJob classify the unwind
		j.cancel()
		j.mu.Unlock()
		return nil
	}
	j.mu.Unlock()
	// Queued: finish now; the dispatcher skips terminal jobs on pop.
	j.finish(Canceled, nil, cancel.ErrCanceled, "canceled", s.now())
	return nil
}

// List snapshots every retained job, oldest submission first.
func (s *Scheduler) List() []Status {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// Stats reads the admission counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Submitted:     s.submitted,
		RejectedRate:  s.rejectedRate,
		RejectedQueue: s.rejectedQueue,
		Completed:     s.completed,
		Failed:        s.failed,
		Canceled:      s.canceled,
		Queued:        s.queue.Len(),
		Running:       s.running,
		PoolProcs:     s.pool.Size(),
	}
}

// MetricsSnapshot aggregates every job's counters — evicted, retained
// and still running — into one service-wide obs.Snapshot.
func (s *Scheduler) MetricsSnapshot() obs.Snapshot {
	s.mu.Lock()
	agg := s.retiredAgg
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		agg = agg.Add(j.metrics.Snapshot())
	}
	return agg
}

// WriteMetrics renders the scheduler gauges and the aggregated runtime
// counters in the Prometheus text format under the whilepard_ prefix.
func (s *Scheduler) WriteMetrics(w io.Writer) error {
	st := s.Stats()
	for _, g := range []struct {
		name string
		typ  string
		val  int64
	}{
		{"jobs_submitted_total", "counter", st.Submitted},
		{"jobs_rejected_rate_total", "counter", st.RejectedRate},
		{"jobs_rejected_queue_total", "counter", st.RejectedQueue},
		{"jobs_completed_total", "counter", st.Completed},
		{"jobs_failed_total", "counter", st.Failed},
		{"jobs_canceled_total", "counter", st.Canceled},
		{"jobs_queued", "gauge", int64(st.Queued)},
		{"jobs_running", "gauge", int64(st.Running)},
		{"pool_procs", "gauge", int64(st.PoolProcs)},
	} {
		if _, err := fmt.Fprintf(w, "# TYPE whilepard_%s %s\nwhilepard_%s %d\n",
			g.name, g.typ, g.name, g.val); err != nil {
			return err
		}
	}
	return obs.WritePrometheus(w, "whilepard", s.MetricsSnapshot())
}

// Close stops admission, cancels queued and running jobs, waits for
// the dispatchers to drain and closes the shared pool.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for {
		j := s.queue.pop()
		if j == nil {
			break
		}
		j.finish(Canceled, nil, ErrClosed, "canceled", s.now())
		s.retireLocked(j)
	}
	running := make([]*job, 0, s.running)
	for _, j := range s.jobs {
		running = append(running, j)
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	for _, j := range running {
		j.mu.Lock()
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}
	s.wg.Wait()
	s.pool.Close()
}
