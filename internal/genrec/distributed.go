package genrec

import (
	"whilepar/internal/list"
	"whilepar/internal/loopir"
	"whilepar/internal/sched"
	"whilepar/internal/simproc"
)

// Distributed implements the naive loop-distribution method for general
// recurrences that Sections 3.3 and 10 discuss (and attribute to Wu &
// Lewis and, implicitly, Harrison): first a sequential loop evaluates
// the dispatcher and stores its values in an array, then the loop
// iterations are performed in parallel using that array.
//
// The paper's analysis: for an RI terminator this performs about like
// the embedded methods (General-1/2/3), but it requires storage for all
// dispatcher values and, for an RV terminator, either drags remainder
// code into the sequential loop or computes (and stores) superfluous
// dispatcher terms — which is why the paper prefers the embedded
// methods.  It is implemented here as the comparison baseline.
func Distributed(head *list.Node, body Body, cfg Config) Result {
	p := cfg.procs()
	// Loop 1 (sequential): evaluate the dispatcher, storing every value.
	var nodes []*list.Node
	bound := cfg.U
	for pt := head; pt != nil; pt = pt.Next {
		nodes = append(nodes, pt)
		if bound > 0 && len(nodes) >= bound {
			break
		}
	}
	hops := int64(len(nodes))

	// Loop 2 (DOALL): the remainder over the precomputed values.
	slots := loopir.NewIterSlots(p)
	res := sched.DOALL(len(nodes), sched.Options{Procs: p}, func(i, vpn int) sched.Control {
		if !body(slots.At(vpn, i, cfg.Tracker), nodes[i]) {
			return sched.Quit
		}
		return sched.Continue
	})
	return Result{
		Valid:    res.QuitIndex,
		Executed: res.Executed,
		Overshot: res.Overshot,
		Hops:     hops,
	}
}

// SimDistributed models the naive distribution's time: the sequential
// dispatcher loop (n hops, plus a store per term), a barrier, then a
// dynamically scheduled DOALL over the remainder.  storeCost is the
// extra per-term cost of saving the dispatcher value (the "work and
// storage for saving the values computed in the recurrence" the paper's
// methods avoid).
func SimDistributed(m *simproc.Machine, n int, c SimCosts, storeCost float64) simproc.Trace {
	m.Run(0, (c.Hop+storeCost)*float64(n))
	m.Barrier(0)
	tr := m.DynamicDOALL(n, c.Work, c.Dispatch, -1, false)
	tr.Makespan = m.Makespan()
	return tr
}
