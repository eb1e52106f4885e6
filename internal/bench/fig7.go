package bench

import (
	"fmt"

	"whilepar/internal/core"
	"whilepar/internal/induction"
	"whilepar/internal/mem"
	"whilepar/internal/simproc"
	"whilepar/internal/track"
)

// TRACK FPTRAK Loop 300 (Figure 7): a DO loop with a conditional error
// exit, accessing an array through a run-time-computed subscript array.
// Induction dispatcher, RV terminator; the speculative run needs
// backups and time-stamps (and, with the subscripted subscripts, the PD
// test).  Paper speedup on 8 processors: 5.8x, against a hand-
// parallelized ideal shown in the same figure.
//
// Calibration: the body (residual test + smoothing update) costs
// trackWork; time-stamping adds trackTS per stamped write (one write
// per iteration); the exit iteration costs its residual test only; the
// pre-loop checkpoint copies trackState words.  The error exit fires at
// 96% of the space, so Induction-1's speculative tail is small but the
// during-loop overheads bite the whole space.
const (
	trackN        = 2000
	trackExitFrac = 0.96
	trackWork     = 24.0
	trackExitCost = 4.0
	trackTS       = 3.0
	trackShadow   = 2.0 // PD shadow marking per access (2 accesses/iter)
	trackDispatch = 0.5
	trackCopy     = 0.5
	trackReduce   = 3.0
)

// Fig7 regenerates Figure 7.
func Fig7() Figure {
	exit := int(trackExitFrac * trackN)
	spec := induction.SimSpec{
		U:               trackN,
		Exit:            exit,
		Work:            func(int) float64 { return trackWork + 2*trackShadow },
		ExitCost:        trackExitCost,
		Dispatch:        trackDispatch,
		Method:          induction.Induction1,
		CheckpointWords: trackN,
		CopyCost:        trackCopy,
		WritesPerIter:   1,
		TSCost:          trackTS,
		ReduceStep:      trackReduce,
	}
	seq := induction.SimSpec{U: trackN, Exit: exit,
		Work: func(int) float64 { return trackWork }, ExitCost: trackExitCost}.SeqTime()

	return Figure{
		ID:       "7",
		Title:    "TRACK FPTRAK Loop 300 (conditional exit, RV; backups + time-stamps)",
		PaperAt8: map[string]float64{"Induction-1": 5.8},
		Series: []Series{
			sweep("Induction-1", func(p int) float64 {
				m := simproc.New(p)
				_, total := induction.Simulate(m, spec)
				// The PD test's post-execution analysis (fully parallel
				// over the ~2 accesses/iteration marks).
				m.Reduce(2*trackN, trackCopy, trackReduce)
				_ = total
				return simproc.Speedup(seq, m.Makespan())
			}),
			sweep("ideal (hand-parallel)", func(p int) float64 {
				// Hand parallelization: exact iteration space, no
				// speculation machinery, just the DOALL and its join.
				m := simproc.New(p)
				m.DynamicDOALL(exit, func(int) float64 { return trackWork }, trackDispatch, -1, false)
				m.Barrier(trackReduce)
				return simproc.Speedup(seq, m.Makespan())
			}),
		},
	}
}

// VerifyFig7 runs the full speculative Loop 300 on the goroutine
// backend: Induction-1 (guaranteed overshoot), checkpoint, time-stamps,
// PD test, undo — final state must equal the sequential run.
func VerifyFig7(procs int) []string {
	var errs []string
	seqS := track.New(500, 480, 17)
	parS := track.New(500, 480, 17)
	seqS.RunSequential()
	rep, err := core.RunInduction(parS.Loop(), core.Options{
		Strategy:        core.StrategySpeculate, // Auto would run so light a body sequentially
		Procs:           procs,
		InductionMethod: induction.Induction1,
		Shared:          []*mem.Array{parS.State},
		Tested:          []*mem.Array{parS.State},
	})
	if err != nil {
		return []string{fmt.Sprintf("fig7: %v", err)}
	}
	if !rep.UsedParallel || rep.Valid != 480 {
		errs = append(errs, fmt.Sprintf("fig7: report %+v", rep))
	}
	if !parS.State.Equal(seqS.State) {
		errs = append(errs, "fig7: speculative state diverged from sequential")
	}
	return errs
}
