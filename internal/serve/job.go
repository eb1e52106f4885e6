package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"whilepar/internal/core"
	"whilepar/internal/frontend"
	"whilepar/internal/obs"
)

// State is a job's position in its lifecycle.
type State int

const (
	// Queued: admitted, waiting for a dispatch slot.
	Queued State = iota
	// Running: executing on the shared pool.
	Running
	// Done: completed; the Report is final.
	Done
	// Failed: finished with an error (deadline, panic, bad program).
	Failed
	// Canceled: withdrawn before or during execution.
	Canceled
)

// String names the state for JSON and logs.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// JobSpec describes one unit of work submitted to the Scheduler:
// either a .while program interpreted through the frontend, or a
// pre-registered native Go loop body.
type JobSpec struct {
	// Kind is "while" (interpret Program) or "native" (run Native).
	Kind string `json:"kind"`
	// Program is the .while source text (Kind "while").
	Program string `json:"program,omitempty"`
	// MaxIter bounds the interpreted loop's iteration space (Kind
	// "while"); 0 defaults to 1024.
	MaxIter int `json:"max_iter,omitempty"`
	// ArrayN sizes the auto-built environment arrays (Kind "while");
	// 0 defaults to MaxIter.
	ArrayN int `json:"array_n,omitempty"`
	// Native names a loop body registered with RegisterNative (Kind
	// "native"); Args is passed through to it.
	Native string             `json:"native,omitempty"`
	Args   map[string]float64 `json:"args,omitempty"`
	// Priority orders dispatch among queued jobs (higher first; ties
	// FIFO by submission).
	Priority int `json:"priority,omitempty"`
	// DeadlineMs bounds the job's wall-clock time in milliseconds,
	// measured from submission — time spent queued counts.  0 means
	// no deadline.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Procs caps the virtual processors the job runs on; 0 (or any
	// value beyond the pool width) uses the whole shared pool.
	Procs int `json:"procs,omitempty"`
	// Strategy pins an execution strategy by name ("sequential",
	// "speculate", "run-twice", "recover", "pipeline"); "" or "auto"
	// lets the adaptive selector choose.
	Strategy string `json:"strategy,omitempty"`
}

// parseStrategy maps a JobSpec.Strategy name onto the core constant.
func parseStrategy(s string) (core.Strategy, error) {
	switch s {
	case "", "auto":
		return core.Auto, nil
	case "sequential":
		return core.StrategySequential, nil
	case "speculate":
		return core.StrategySpeculate, nil
	case "run-twice":
		return core.StrategyRunTwice, nil
	case "recover":
		return core.StrategyRecover, nil
	case "pipeline":
		return core.StrategyPipeline, nil
	}
	return core.Auto, fmt.Errorf("%w: unknown strategy %q", ErrBadSpec, s)
}

// NativeFunc is a pre-registered Go loop body.  It receives the
// service-assembled Options (shared pool, metrics, deadline-bearing
// ctx) and must run its loop through the whilepar entry points so the
// runtime machinery applies; Args carries the caller's parameters.
type NativeFunc func(ctx context.Context, opt core.Options, args map[string]float64) (core.Report, error)

var (
	nativesMu sync.RWMutex
	natives   = map[string]NativeFunc{}
)

// RegisterNative makes fn submittable as JobSpec{Kind: "native", Native:
// name}.  Registering an existing name replaces it; registration is
// typically done at process start (cmd/whilepard does it in main).
func RegisterNative(name string, fn NativeFunc) {
	nativesMu.Lock()
	defer nativesMu.Unlock()
	natives[name] = fn
}

// LookupNative returns the registered body, if any.
func LookupNative(name string) (NativeFunc, bool) {
	nativesMu.RLock()
	defer nativesMu.RUnlock()
	fn, ok := natives[name]
	return fn, ok
}

// Natives lists the registered native names, sorted.
func Natives() []string {
	nativesMu.RLock()
	defer nativesMu.RUnlock()
	out := make([]string, 0, len(natives))
	for name := range natives {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Status is the externally visible snapshot of a job.
type Status struct {
	ID        string    `json:"id"`
	State     string    `json:"state"`
	Kind      string    `json:"kind"`
	Priority  int       `json:"priority"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	// Error and ErrorKind describe a failed (or canceled) job;
	// ErrorKind is one of "deadline", "canceled", "panic", "program"
	// or "" for an unclassified error.
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
	// Report is the orchestrator's report (terminal states only).
	Report *core.Report `json:"report,omitempty"`
	// Metrics is the job's live counter snapshot — readable mid-run,
	// consistent once terminal.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// job is the Scheduler's internal record.
type job struct {
	id      string
	seq     uint64
	spec    JobSpec
	key     string            // the profile the job's loop learns under (profileKey)
	prog    *frontend.Program // compiled at submit (Kind "while")
	native  NativeFunc        // resolved at submit (Kind "native")
	metrics *obs.Metrics

	submitted time.Time
	deadline  time.Time // zero = none

	mu       sync.Mutex
	state    State
	started  time.Time
	finished time.Time
	report   *core.Report
	err      error
	errKind  string
	cancel   context.CancelFunc // non-nil while running
	canceled bool               // cancellation requested
	done     chan struct{}      // closed on any terminal state
}

// status snapshots the job under its lock.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.id,
		State:     j.state.String(),
		Kind:      j.spec.Kind,
		Priority:  j.spec.Priority,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Report:    j.report,
		ErrorKind: j.errKind,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	s := j.metrics.Snapshot()
	st.Metrics = &s
	return st
}

// finish moves the job to a terminal state exactly once.
func (j *job) finish(state State, rep *core.Report, err error, errKind string, at time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.report = rep
	j.err = err
	j.errKind = errKind
	j.finished = at
	j.cancel = nil
	close(j.done)
}
