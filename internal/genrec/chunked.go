package genrec

import (
	"sync/atomic"

	"whilepar/internal/list"
	"whilepar/internal/loopir"
	"whilepar/internal/sched"
	"whilepar/internal/simproc"
)

// Chunked implements Harrison's scheme (Section 10, related work): when
// the list is allocated as linked chunks of contiguous elements with
// per-chunk headers recording their lengths, the dispatcher evaluation
// can be optimized — a *sequential prefix over the chunk headers*
// assigns each chunk's portion of the recurrence a global offset, after
// which chunks are processed in parallel with direct indexing inside
// each chunk.
//
// The paper's point stands in the limits: with every element in its own
// chunk (FORTRAN-style static allocation) the method degenerates to the
// naive distribution with no parallelism advantage; with the whole list
// in a single chunk it is the associative-recurrence case.  The chunk-
// size ablation benchmark quantifies the in-between.
func Chunked(c list.Chunked, body Body, cfg Config) Result {
	p := cfg.procs()
	// Sequential prefix over chunk headers: global offsets.
	offs := c.Offsets()
	var chunks []*list.Chunk
	for ch := c.Head; ch != nil; ch = ch.Next {
		chunks = append(chunks, ch)
	}
	n := c.Len()
	// A chunk stops at its first RV exit and reports it as a QUIT, so the
	// DOALL's quit index is the first exiting chunk, and that chunk's
	// exit the first exiting element.
	exitAt := make([]int, len(chunks))
	var executed atomic.Int64
	slots := loopir.NewIterSlots(p)
	res := sched.DOALL(len(chunks), sched.Options{Procs: p}, func(ci, vpn int) sched.Control {
		ch := chunks[ci]
		for j := range ch.Elems {
			i := offs[ci] + j
			if !body(slots.At(vpn, i, cfg.Tracker), &ch.Elems[j]) {
				executed.Add(int64(j + 1))
				exitAt[ci] = i
				return sched.Quit
			}
		}
		executed.Add(int64(len(ch.Elems)))
		return sched.Continue
	})
	valid := n
	if res.QuitIndex < len(chunks) {
		valid = exitAt[res.QuitIndex]
	}
	return Result{
		Valid:    valid,
		Executed: int(executed.Load()),
		Overshot: int(executed.Load()) - valid,
		Hops:     int64(len(chunks)), // the header walk
	}
}

// SimChunked models the scheme's time on machine m: a sequential walk
// over the n/chunk headers (Hop each), then a dynamically scheduled
// DOALL over chunks whose per-chunk cost is the sum of its elements'
// work (no per-element hops — elements are contiguous).
func SimChunked(m *simproc.Machine, n, chunk int, c SimCosts) simproc.Trace {
	if chunk < 1 {
		chunk = 1
	}
	nChunks := (n + chunk - 1) / chunk
	// Header walk on processor 0; everyone waits for the offsets.
	m.Run(0, c.Hop*float64(nChunks))
	m.Barrier(0)
	cost := func(ci int) float64 {
		lo := ci * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		var t float64
		for i := lo; i < hi; i++ {
			t += c.Work(i)
		}
		return t
	}
	tr := m.DynamicDOALL(nChunks, cost, c.Dispatch, -1, false)
	tr.Executed = n
	tr.Makespan = m.Makespan()
	return tr
}
