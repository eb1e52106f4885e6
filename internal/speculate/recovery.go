package speculate

import "whilepar/internal/costmodel"

// Recovery configures partial-commit misspeculation recovery.
//
// The classic protocol (Sections 4-5) treats a failed PD test as total
// failure: restore the checkpoint, re-execute the whole loop
// sequentially.  One late dependence violation then costs more than
// never having speculated.  Recovery instead exploits state the run
// already collected — the PD test knows the earliest iteration
// participating in any violated dependence (Result.FirstViolation), and
// the time-stamp memory can rewind just the stores of iterations at or
// beyond it (tsmem.PartialCommit) — to keep the valid prefix and resume
// from the violation point, re-speculating with an adaptively shrunk
// window that grows back on clean runs.
type Recovery struct {
	// Enabled turns the partial-commit path on.  Off, every engine
	// falls back to the all-or-nothing restore (the retained baseline).
	Enabled bool
	// MaxRounds bounds the number of renewed parallel attempts after
	// partial commits before the remainder of the loop is completed
	// sequentially.  <= 0 means DefaultMaxRespecRounds.
	MaxRounds int
	// Policy sizes the re-speculation windows (halve on violation,
	// double on clean run).  nil uses a fresh policy with engine
	// defaults; share one across executions to carry history.
	Policy *costmodel.RespecPolicy
	// SeqFrom completes the loop sequentially from the given iteration
	// against the current (partially committed) state, returning the
	// final global valid-iteration count.  Required by Run's recovery
	// path; the strip/window engines use their range runners instead.
	SeqFrom func(from int) int
}

// DefaultMaxRespecRounds bounds re-speculation when Recovery.MaxRounds
// is unset.
const DefaultMaxRespecRounds = 8

func (r Recovery) maxRounds() int {
	if r.MaxRounds > 0 {
		return r.MaxRounds
	}
	return DefaultMaxRespecRounds
}
