package autotune

import (
	"whilepar/internal/obs"
)

// RetuneEvent records one mid-run strategy adjustment, in order, so a
// Report can show *why* an auto-tuned run ended on the engine it did.
type RetuneEvent struct {
	// AtIter is the global iteration boundary the decision was taken
	// at (the end of the strip that triggered it).
	AtIter int `json:"at_iter"`
	// Action is "grow", "shrink", "pipeline", "sequential" (three
	// violated strips in a row) or "sequential: measured" (the strips
	// so far cost more per iteration than sequential execution would).
	Action string `json:"action"`
	// Strip is the strip size in force after the adjustment.
	Strip int `json:"strip"`
}

// TunerConfig parameterizes a Tuner.
type TunerConfig struct {
	// Plan is the initial decision the Tuner starts from.
	Plan Plan
	// Procs and Total bound the strip-size range.
	Procs, Total int
	// PipelineOK permits the mid-run promotion to the pipelined
	// engine (false when the speculation mode cannot be squashed —
	// sparse undo logs or privatized copies).
	PipelineOK bool
	// Metrics is consulted per strip: the Tuner reads the deltas of
	// the PD-fail and speculation-abort counters the execution is
	// already accumulating, so its verdicts corroborate the engine's
	// own clean/violated signal.  May be nil.
	Metrics *obs.Metrics
	// SeqNsPerIter is the planner's sequential estimate; once the
	// strips' cumulative wall time per committed iteration exceeds it
	// by the hysteresis band, the Tuner demotes the run.  Zero disables
	// the check.
	SeqNsPerIter float64
}

// Tuner re-decides strip size and engine mid-run.  It implements the
// speculate.StripController contract: the engine asks NextStrip before
// each strip, reports each outcome through Observe, and consults
// SwitchPipeline/SwitchSequential at strip boundaries.
//
// The policy is the one the ISSUE's retune loop describes:
//
//   - a violated strip halves the strip size (a smaller bet forfeits
//     less on the next failure), and three consecutive violations give
//     up on speculation entirely — the remainder runs sequentially;
//   - a clean streak doubles the strip size (fewer barriers and
//     checkpoints per iteration), and a streak of three promotes the
//     run to the pipelined engine, which hides the PD test behind the
//     next strip's execution;
//   - a run whose strips, rewinds and re-executions included, have
//     cost more per committed iteration than the planner's sequential
//     estimate (by more than the hysteresis band, and over at least
//     minTimedStrips strips) is not going to win that back: the model
//     over-promised, and the remainder runs sequentially.
//
// The switches are one-way within a run: the profile, not the run,
// carries the lesson back to the next invocation.
type Tuner struct {
	cfg                TunerConfig
	strip              int
	minStrip, maxStrip int
	cleanStreak        int
	violStreak         int
	pipeline           bool
	sequential         bool
	lastPDFail         int64
	lastAborts         int64
	// strips, ns and iters accumulate what Observe was told: strips
	// seen, their wall time, the iterations they committed.
	strips    int
	ns, iters int64
	events    []RetuneEvent
}

// minTimedStrips is how many strips the measured demotion waits for:
// the first strip alone carries the full checkpoint and cold shadows.
const minTimedStrips = 2

// NewTuner returns a Tuner starting from cfg.Plan.
func NewTuner(cfg TunerConfig) *Tuner {
	procs := cfg.Procs
	if procs < 1 {
		procs = 1
	}
	t := &Tuner{cfg: cfg, strip: cfg.Plan.Strip, minStrip: procs}
	if t.strip < 1 {
		t.strip = 1
	}
	t.maxStrip = cfg.Total / 2
	if t.maxStrip < t.strip {
		t.maxStrip = t.strip
	}
	if m := cfg.Metrics; m != nil {
		s := m.Snapshot()
		t.lastPDFail, t.lastAborts = s.PDFail, s.SpecAborts
	}
	return t
}

// NextStrip returns the strip size for the strip starting at done.
func (t *Tuner) NextStrip(done, total int) int { return t.strip }

// Observe reports the outcome of the strip [lo, hi): committed is the
// engine's own verdict (PD passed, no exception) and ns the strip's
// wall time, any rewind and sequential re-execution included.  The
// Tuner corroborates the verdict against the obs counter deltas — a PD
// failure or speculation abort recorded since the last strip marks the
// strip violated even if the caller's flag disagrees — and adjusts.
func (t *Tuner) Observe(lo, valid, hi int, committed bool, ns int64) {
	t.strips++
	t.ns += ns
	t.iters += int64(valid)
	if seq := t.cfg.SeqNsPerIter; seq > 0 && !t.sequential && t.strips >= minTimedStrips &&
		float64(t.ns) > (1+Hysteresis)*seq*float64(t.iters) {
		t.sequential = true
		t.cfg.Metrics.StrategySwitch()
		t.record(hi, "sequential: measured")
		return // the run is over: nothing left to size
	}
	violated := !committed
	if m := t.cfg.Metrics; m != nil {
		s := m.Snapshot()
		if s.PDFail > t.lastPDFail || s.SpecAborts > t.lastAborts {
			violated = true
		}
		t.lastPDFail, t.lastAborts = s.PDFail, s.SpecAborts
	}
	if violated {
		t.violStreak++
		t.cleanStreak = 0
		if t.strip > t.minStrip {
			t.strip /= 2
			if t.strip < t.minStrip {
				t.strip = t.minStrip
			}
			t.record(hi, "shrink")
		}
		if t.violStreak >= 3 && !t.sequential {
			t.sequential = true
			t.cfg.Metrics.StrategySwitch()
			t.record(hi, "sequential")
		}
		return
	}
	t.cleanStreak++
	t.violStreak = 0
	if t.cleanStreak >= 2 && t.strip < t.maxStrip {
		t.strip *= 2
		if t.strip > t.maxStrip {
			t.strip = t.maxStrip
		}
		t.record(hi, "grow")
	}
	if t.cleanStreak >= 3 && t.cfg.PipelineOK && !t.pipeline {
		t.pipeline = true
		t.cfg.Metrics.StrategySwitch()
		t.record(hi, "pipeline")
	}
}

// SwitchPipeline reports whether the remainder should move to the
// pipelined engine.
func (t *Tuner) SwitchPipeline() bool { return t.pipeline }

// SwitchSequential reports whether the remainder should finish
// sequentially.
func (t *Tuner) SwitchSequential() bool { return t.sequential }

// Events returns the retune decisions taken so far, in order.
func (t *Tuner) Events() []RetuneEvent { return t.events }

func (t *Tuner) record(at int, action string) {
	t.events = append(t.events, RetuneEvent{AtIter: at, Action: action, Strip: t.strip})
}
