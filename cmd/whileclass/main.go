// Command whileclass demonstrates the WHILE-loop taxonomy of Table 1:
// it prints the full taxonomy, classifies the paper's Figure 1 archetype
// loops, and — given -spec — parses a Fortran-ish WHILE-loop description
// and runs the full front-end analysis on it: recurrence detection and
// classification, RI/RV terminator analysis, subscripted-subscript
// detection, and the Section 6 distribution plan.  With -run, an array
// the loop both writes and reads goes to the PD test, and a scalar the
// body assigns (other than a recurrence) is iteration-local: reading it
// before its first assignment in body order is a compile error.
//
//	whileclass                      # taxonomy + archetypes
//	whileclass -spec loop.while     # analyze a loop description
//	whileclass -spec -              # ... from stdin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"whilepar/internal/bench"
	"whilepar/internal/frontend"
	"whilepar/internal/loopir"
)

func main() {
	spec := flag.String("spec", "", "WHILE-loop description file to analyze (- for stdin)")
	run := flag.Bool("run", false, "also execute the loop (runnable subset) on an auto-generated environment")
	procs := flag.Int("procs", 8, "virtual processors for -run")
	iters := flag.Int("n", 256, "iteration-space bound and array extent for -run")
	flag.Parse()
	if *spec != "" {
		var src []byte
		var err error
		if *spec == "-" {
			src, err = io.ReadAll(os.Stdin)
		} else {
			src, err = os.ReadFile(*spec)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "whileclass:", err)
			os.Exit(1)
		}
		ast, err := frontend.Parse(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, "whileclass:", err)
			os.Exit(1)
		}
		an, err := frontend.Analyze(ast)
		if err != nil {
			fmt.Fprintln(os.Stderr, "whileclass:", err)
			os.Exit(1)
		}
		fmt.Print(an.Report())
		if *run {
			env := frontend.AutoEnv(ast, *iters)
			prog, err := frontend.Compile(ast, an, env, *iters)
			if err != nil {
				fmt.Fprintln(os.Stderr, "whileclass: not runnable:", err)
				os.Exit(1)
			}
			rep, err := prog.Run(*procs)
			if err != nil {
				fmt.Fprintln(os.Stderr, "whileclass: run:", err)
				os.Exit(1)
			}
			fmt.Printf("\nexecution (%d procs, n=%d):\n", *procs, *iters)
			fmt.Printf("  strategy:      %s\n", rep.Strategy)
			fmt.Printf("  valid:         %d iterations\n", rep.Valid)
			fmt.Printf("  kept parallel: %v\n", rep.UsedParallel)
			if rep.Failure != "" {
				fmt.Printf("  fallback:      %s\n", rep.Failure)
			}
			if rep.Undone > 0 {
				fmt.Printf("  undone:        %d overshot locations restored\n", rep.Undone)
			}
		}
		return
	}
	fmt.Print(bench.Table1())
	fmt.Println()
	fmt.Println("Figure 1 archetypes:")

	archetypes := []struct {
		desc  string
		class loopir.Class
	}{
		{
			"1(b) linked-list walk: while (tmp != nil) { WORK(tmp); tmp = next(tmp) }",
			loopir.Class{Dispatcher: loopir.GeneralRecurrence, Terminator: loopir.RI},
		},
		{
			"1(d) DO loop with conditional exit: do i=1,n { if f(i) exit; WORK(i) }",
			loopir.Class{Dispatcher: loopir.MonotonicInduction, Terminator: loopir.RV},
		},
		{
			"1(e) counted WHILE: while (f(i)<V && i<=n) { WORK(i); i++ }",
			loopir.Class{Dispatcher: loopir.MonotonicInduction, Terminator: loopir.RV},
		},
		{
			"1(c/f) associative: while (f(r)<V) { WORK(r); r = a*r + b }",
			loopir.Class{Dispatcher: loopir.AssociativeRecurrence, Terminator: loopir.RI},
		},
		{
			"monotonic threshold: d(i)=i*i, while (d(i) < V) WORK(i)",
			loopir.Class{Dispatcher: loopir.MonotonicInduction, Terminator: loopir.RI, ThresholdOnMonotonic: true},
		},
	}
	for _, a := range archetypes {
		over := "no overshoot"
		if a.class.CanOvershoot() {
			over = "CAN OVERSHOOT (undo machinery required)"
		}
		fmt.Printf("  %s\n    -> %v dispatcher, %v terminator: %s; dispatcher evaluation: %v\n",
			a.desc, a.class.Dispatcher, a.class.Terminator, over, a.class.DispatcherParallelism())
	}
}
