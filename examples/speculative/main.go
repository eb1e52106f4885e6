// Speculative execution with unknown dependences (Section 5).
//
// Two loops whose array accesses go through a run-time subscript table —
// exactly the "subscripted subscripts" a compiler cannot analyze:
//
//  1. the table is a permutation, so the iterations are independent:
//     the PD test passes and the speculative parallel execution is kept;
//  2. the table has collisions feeding values across iterations, so the
//     PD test detects the dependence and the engine discards the
//     parallel state and re-executes the loop sequentially.
//
// Either way the final memory state is exactly the sequential loop's —
// speculation never changes semantics, only (hopefully) speed.
package main

import (
	"fmt"
	"log"

	"whilepar"
)

func run(name string, subs []int, flow bool) {
	n := len(subs)
	state := whilepar.NewArray("state", n)
	for i := range state.Data {
		state.Data[i] = 1
	}

	loop := &whilepar.IntLoop{
		Class: whilepar.Class{
			Dispatcher: whilepar.MonotonicInduction,
			Terminator: whilepar.RV,
		},
		Disp: whilepar.IntInduction{C: 1},
		Body: func(it *whilepar.Iter, i int) bool {
			k := subs[i]
			v := it.Load(state, k)
			if flow {
				// Read a neighbour too: with colliding subscripts this
				// manufactures a cross-iteration flow dependence.
				v += it.Load(state, subs[(i+1)%n])
			}
			it.Store(state, k, v+float64(i))
			return true
		},
		Max: n,
	}

	// StrategySpeculate pins the protocol this example is about: left to
	// itself, Auto times the loop's first iterations and runs a body as
	// light as this one sequentially.
	rep, err := whilepar.RunInduction(loop, whilepar.Options{
		Strategy: whilepar.StrategySpeculate,
		Procs:    8,
		Shared:   []*whilepar.Array{state},
		Tested:   []*whilepar.Array{state},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Check against the sequential loop on a fresh copy.
	want := whilepar.NewArray("state", n)
	for i := range want.Data {
		want.Data[i] = 1
	}
	for i := 0; i < n; i++ {
		k := subs[i]
		v := want.Data[k]
		if flow {
			v += want.Data[subs[(i+1)%n]]
		}
		want.Data[k] = v + float64(i)
	}

	outcome := "KEPT speculative parallel execution"
	if !rep.UsedParallel {
		outcome = fmt.Sprintf("DISCARDED speculation (%s); re-executed sequentially", rep.Failure)
	}
	fmt.Printf("%s:\n  %s\n  state matches sequential: %v\n\n", name, outcome, state.Equal(want))
	if !state.Equal(want) {
		log.Fatalf("%s: speculation changed semantics", name)
	}
}

func main() {
	n := 4096
	perm := make([]int, n)
	for i := range perm {
		perm[i] = (i*2481 + 7) % n // 2481 odd & coprime: a permutation
	}
	run("independent loop (permutation subscripts)", perm, false)

	collide := make([]int, n)
	for i := range collide {
		collide[i] = (i * 3) % 64 // many collisions
	}
	run("dependent loop (colliding subscripts)", collide, true)
}
