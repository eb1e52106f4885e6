// Quickstart: parallelize a DO loop with a conditional exit — the
// simplest WHILE-loop shape a compiler normally leaves sequential.
//
// The loop scans sensor samples, stopping at the first corrupt one, and
// writes a calibrated value per valid sample:
//
//	do i = 0, n-1
//	    if samples[i] < 0 then exit      // RV termination condition
//	    output[i] = calibrate(samples[i])
//	enddo
//
// The dispatcher is an induction (the counter), so every iteration can
// start immediately from the closed form; the exit is remainder variant,
// so the parallel execution overshoots and the run-time system must
// checkpoint, time-stamp, and undo the overshot writes.  The PD test
// additionally confirms at run time that the iterations were
// independent.
package main

import (
	"fmt"
	"log"

	"whilepar"
)

func main() {
	const n = 100_000
	samples := whilepar.NewArray("samples", n)
	output := whilepar.NewArray("output", n)
	for i := 0; i < n; i++ {
		samples.Data[i] = 1 + float64(i%97)/97
	}
	samples.Data[87_500] = -1 // the corrupt sample: the loop must stop here

	loop := &whilepar.IntLoop{
		Class: whilepar.Class{
			Dispatcher: whilepar.MonotonicInduction,
			Terminator: whilepar.RV,
		},
		Disp: whilepar.IntInduction{C: 1},
		Body: func(it *whilepar.Iter, i int) bool {
			v := it.Load(samples, i)
			if v < 0 {
				return false // termination condition met
			}
			it.Store(output, i, 2.5*v+0.125)
			return true
		},
		Max: n,
	}

	rep, err := whilepar.RunInduction(loop, whilepar.Options{
		Procs: 8,
		// The whole-loop speculative engine.  Its induction method
		// defaults to Induction-2 (QUIT: stop issuing after the exit).
		Strategy: whilepar.StrategySpeculate,
		Shared:   []*whilepar.Array{output},
		Tested:   []*whilepar.Array{output},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("strategy:        %s\n", rep.Strategy)
	fmt.Printf("valid iterations %d (sequential loop would run the same)\n", rep.Valid)
	fmt.Printf("kept parallel:   %v  (PD test verdicts: %d arrays clean)\n", rep.UsedParallel, len(rep.PD))
	fmt.Printf("overshoot undone: %d locations restored\n", rep.Undone)
	fmt.Printf("output[0]=%.3f  output[%d]=%.3f  output[%d]=%.3f (past exit, untouched)\n",
		output.Data[0], rep.Valid-1, output.Data[rep.Valid-1], rep.Valid+10, output.Data[rep.Valid+10])
}
