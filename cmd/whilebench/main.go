// Command whilebench regenerates every table and figure of the paper's
// evaluation section on the simulated multiprocessor, and optionally
// re-validates each experiment's transformation on the real goroutine
// backend.
//
// Usage:
//
//	whilebench -all            # everything: tables, figures, ablations
//	whilebench -table1         # the WHILE-loop taxonomy
//	whilebench -table2         # the experimental summary
//	whilebench -fig 6          # one figure (6, 7, 8..11, 12..14)
//	whilebench -costmodel      # Section 7 worst-case sweep
//	whilebench -ablations      # General-1/2/3, strip-vs-window, PD sweeps
//	whilebench -verify         # run the goroutine-backend validations
//	whilebench -metrics        # run an instrumented speculative demo and
//	                           # print its runtime counters
//	whilebench -trace out.json # same demo, writing a Chrome trace
//	                           # (open in chrome://tracing or Perfetto)
package main

import (
	"flag"
	"fmt"
	"os"

	"whilepar"
	"whilepar/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		all       = flag.Bool("all", false, "regenerate every table, figure and ablation")
		table1    = flag.Bool("table1", false, "print Table 1 (taxonomy)")
		table2    = flag.Bool("table2", false, "print Table 2 (experimental summary)")
		fig       = flag.Int("fig", 0, "print one figure (6..14)")
		costmodel = flag.Bool("costmodel", false, "print the Section 7 worst-case sweep")
		ablations = flag.Bool("ablations", false, "print the design-choice ablations")
		verify    = flag.Bool("verify", false, "validate transformations on the goroutine backend")
		procs     = flag.Int("procs", 8, "virtual processors for -verify and the -metrics/-trace demo")
		metrics   = flag.Bool("metrics", false, "run the instrumented speculative demo and print its counters")
		trace     = flag.String("trace", "", "write the demo's Chrome trace-event JSON to this file")
		plot      = flag.Bool("plot", false, "render figures as text charts instead of tables")
		gantt     = flag.Bool("gantt", false, "render the General-1 vs General-3 schedules as Gantt charts")
	)
	flag.Parse()

	ran := false
	if *all || *table1 {
		fmt.Print(bench.Table1())
		fmt.Println()
		ran = true
	}
	if *all || *table2 {
		fmt.Print(bench.RenderTable2(bench.Table2()))
		fmt.Println()
		ran = true
	}
	if *all || *fig != 0 {
		for _, f := range figures() {
			if *all || f.id == *fig {
				built := f.fn()
				if *plot {
					fmt.Print(built.Plot())
				} else {
					fmt.Print(built.Render())
				}
				fmt.Println()
				ran = true
			}
		}
		if !ran && *fig != 0 {
			fmt.Fprintf(os.Stderr, "whilebench: no figure %d (have 6..14)\n", *fig)
			return 2
		}
	}
	if *all || *gantt {
		fmt.Print(bench.Fig6Gantt())
		fmt.Println()
		ran = true
	}
	if *all || *costmodel {
		fmt.Print(bench.RenderCostModel(bench.CostModelSweep()))
		fmt.Println()
		ran = true
	}
	if *all || *ablations {
		fmt.Print(bench.RenderGeneralSweep(bench.GeneralMethodSweep(2000, 8), 2000, 8))
		fmt.Println()
		fmt.Print(bench.RenderStripVsWindow(bench.StripVsWindowSweep(2000, 8, 2)))
		fmt.Println()
		fmt.Print(bench.RenderPDTestSweep(bench.PDTestSweep()))
		fmt.Println()
		fmt.Print(bench.RenderChunkedSweep(bench.ChunkedSweep(4096, 8), 4096, 8))
		fmt.Println()
		fmt.Print(bench.RenderDoacrossSweep(bench.DoacrossSweep(2000, 8), 2000, 8))
		fmt.Println()
		fmt.Print(bench.RenderSchedulingSweep(bench.SchedulingSweep(4000, 8), 4000, 8))
		fmt.Println()
		fmt.Print(bench.RenderPrefixSweep(bench.PrefixSweep(4000, 8), 4000, 8))
		fmt.Println()
		fmt.Print(bench.RenderSpiceApp(bench.SpiceAppProjection()))
		fmt.Println()
		ran = true
	}
	if *all || *verify {
		var errs []string
		errs = append(errs, bench.VerifyFig6(*procs)...)
		errs = append(errs, bench.VerifyFig7(*procs)...)
		errs = append(errs, bench.VerifySparse(*procs)...)
		if len(errs) == 0 {
			fmt.Printf("verification: all transformations match their sequential executions (%d procs)\n", *procs)
		} else {
			for _, e := range errs {
				fmt.Fprintln(os.Stderr, "FAIL:", e)
			}
			return 1
		}
		ran = true
	}
	if *metrics || *trace != "" {
		if err := obsDemo(*procs, *metrics, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "whilebench:", err)
			return 1
		}
		ran = true
	}
	if !ran {
		flag.Usage()
		return 2
	}
	return 0
}

// obsDemo runs an instrumented speculative execution through the public
// API — a DO loop with a conditional exit planted mid-way, writing a
// shared array with an unanalyzable (PD-tested) access pattern — and
// reports what the runtime observed.
func obsDemo(procs int, printMetrics bool, tracePath string) error {
	const n, exitAt = 4000, 2718
	a := whilepar.NewArray("A", n)
	b := whilepar.NewArray("B", n)
	for i := 0; i < n; i++ {
		a.Data[i] = float64(i + 1)
	}
	a.Data[exitAt] = -1

	m := whilepar.NewMetrics()
	var tr *whilepar.ChromeTracer
	opt := whilepar.Options{
		Procs:           procs,
		InductionMethod: whilepar.Induction2,
		Schedule:        whilepar.Guided,
		Shared:          []*whilepar.Array{b},
		Tested:          []*whilepar.Array{b},
		Metrics:         m,
	}
	if tracePath != "" {
		tr = whilepar.NewChromeTracer()
		opt.Tracer = tr
	}

	loop := &whilepar.IntLoop{
		Class: whilepar.Class{Dispatcher: whilepar.MonotonicInduction, Terminator: whilepar.RV},
		Disp:  whilepar.IntInduction{C: 1},
		Body: func(it *whilepar.Iter, i int) bool {
			v := it.Load(a, i)
			if v < 0 {
				return false
			}
			it.Store(b, i, v*v)
			return true
		},
		Max: n,
	}
	rep, err := whilepar.RunInduction(loop, opt)
	if err != nil {
		return err
	}
	fmt.Printf("demo: %s — valid %d of %d iterations (parallel: %v, undone: %d)\n",
		rep.Strategy, rep.Valid, n, rep.UsedParallel, rep.Undone)
	if printMetrics {
		fmt.Println()
		fmt.Print(rep.Metrics.String())
		// The structured view of the same snapshot: every scalar
		// counter as a (name, value) pair, the form whilepard's
		// /metrics endpoint exports.  Zero counters are elided.
		fmt.Println("\ncounters (structured):")
		for _, c := range rep.Metrics.Counters() {
			if c.Value != 0 {
				fmt.Printf("  %-28s %d\n", c.Name, c.Value)
			}
		}
	}
	if tracePath != "" {
		if err := tr.WriteFile(tracePath); err != nil {
			return err
		}
		fmt.Printf("trace: %d events written to %s\n", tr.Len(), tracePath)
	}
	return nil
}

type figEntry struct {
	id int
	fn func() bench.Figure
}

func figures() []figEntry {
	var out []figEntry
	out = append(out,
		figEntry{6, bench.Fig6},
		figEntry{7, bench.Fig7},
	)
	mc := bench.Figs8to11
	ma := bench.Figs12to14
	for i := 0; i < 4; i++ {
		i := i
		out = append(out, figEntry{8 + i, func() bench.Figure { return mc()[i] }})
	}
	for i := 0; i < 3; i++ {
		i := i
		out = append(out, figEntry{12 + i, func() bench.Figure { return ma()[i] }})
	}
	return out
}
