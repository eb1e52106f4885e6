package whilepar_test

import (
	"fmt"

	"whilepar"
)

// A DO loop with a conditional exit — the canonical WHILE-loop shape —
// executed speculatively in parallel with automatic undo of overshoot.
// StrategySpeculate pins the engine: the default, Auto, times the loop
// and would run a body this light sequentially.
func ExampleRunInduction() {
	const n = 1000
	data := whilepar.NewArray("data", n)
	out := whilepar.NewArray("out", n)
	for i := 0; i < n; i++ {
		data.Data[i] = float64(i)
	}
	data.Data[640] = -1 // the exit trigger

	loop := &whilepar.IntLoop{
		Class: whilepar.Class{Dispatcher: whilepar.MonotonicInduction, Terminator: whilepar.RV},
		Disp:  whilepar.IntInduction{C: 1},
		Body: func(it *whilepar.Iter, i int) bool {
			if it.Load(data, i) < 0 {
				return false
			}
			it.Store(out, i, 2*float64(i))
			return true
		},
		Max: n,
	}
	rep, err := whilepar.RunInduction(loop, whilepar.Options{
		Strategy: whilepar.StrategySpeculate,
		Procs:    8,
		Shared:   []*whilepar.Array{out},
		Tested:   []*whilepar.Array{out},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("valid iterations:", rep.Valid)
	fmt.Println("kept parallel:", rep.UsedParallel)
	// Output:
	// valid iterations: 640
	// kept parallel: true
}

// A linked-list traversal parallelized with General-3: the dispatcher is
// a pointer chase, yet every node's work runs concurrently.
func ExampleRunList() {
	const n = 100
	out := whilepar.NewArray("out", n)
	head := whilepar.BuildList(n, func(i int) (float64, float64) { return float64(i), 1 })

	rep, err := whilepar.RunList(head,
		func(it *whilepar.Iter, nd *whilepar.Node) bool {
			it.Store(out, nd.Key, nd.Val+0.5)
			return true
		},
		whilepar.Class{Dispatcher: whilepar.GeneralRecurrence, Terminator: whilepar.RI},
		whilepar.Options{Procs: 4, ListMethod: whilepar.General3})
	if err != nil {
		panic(err)
	}
	fmt.Println("nodes processed:", rep.Valid)
	fmt.Println("out[99]:", out.Data[99])
	// Output:
	// nodes processed: 100
	// out[99]: 99.5
}

// The Table 1 taxonomy: why a linked-list walk with an RI terminator
// needs no undo machinery while a conditional-exit DO loop does.
func ExampleTaxonomy() {
	listWalk := whilepar.Class{Dispatcher: whilepar.GeneralRecurrence, Terminator: whilepar.RI}
	condExit := whilepar.Class{Dispatcher: whilepar.MonotonicInduction, Terminator: whilepar.RV}
	fmt.Println("list walk overshoots:", listWalk.CanOvershoot())
	fmt.Println("cond-exit overshoots:", condExit.CanOvershoot())
	// Output:
	// list walk overshoots: false
	// cond-exit overshoots: true
}

// WHILE-DOANY: an order-insensitive search needs no backups even though
// it overshoots its remainder-variant termination condition.
func ExampleDoAny() {
	// Find any multiple of 91 above 0 in [0, 10000).
	found, _ := whilepar.DoAny(10000, 4, 0,
		func(a, b int) int {
			if a != 0 {
				return a
			}
			return b
		},
		func(i, vpn int) (int, whilepar.DoAnyVerdict) {
			if i > 0 && i%91 == 0 {
				return i, whilepar.Satisfied
			}
			return 0, whilepar.Nothing
		})
	fmt.Println("found a multiple of 91:", found%91 == 0 && found > 0)
	// Output:
	// found a multiple of 91: true
}
