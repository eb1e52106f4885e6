package speculate

import (
	"whilepar/internal/mem"
	"whilepar/internal/pdtest"
	"whilepar/internal/tsmem"
)

// fusedTracker is the devirtualized element fast path: where mem.Chain
// dispatches every access through one Observer interface call per PD
// test plus one Tracker interface call for the stamp sink, the fused
// tracker holds the concrete *pdtest.Test and *tsmem.Memory and calls
// their Mark*/Stamp* methods directly — the single interface dispatch
// left is the engine-to-tracker boundary itself, paid once per access
// (or once per strip on the range path) instead of once per layer.
//
// Semantics are identical to mem.Chain{Observers: tests, Sink:
// ts.Tracker()} by construction: observers first (shadow marking), sink
// second (stamp + write), same argument plumbing.  The Chain path is
// retained as the equivalence oracle (see fused_test.go).
type fusedTracker struct {
	tests []*pdtest.Test
	ts    *tsmem.Memory
}

var (
	_ mem.Tracker      = (*fusedTracker)(nil)
	_ mem.RangeTracker = (*fusedTracker)(nil)
)

func newFusedTracker(ts *tsmem.Memory, tests []*pdtest.Test) *fusedTracker {
	return &fusedTracker{tests: tests, ts: ts}
}

func (f *fusedTracker) Load(a *mem.Array, idx, iter, vpn int) float64 {
	for _, t := range f.tests {
		t.MarkLoad(a, idx, iter, vpn)
	}
	return f.ts.StampLoad(a, idx)
}

func (f *fusedTracker) Store(a *mem.Array, idx int, v float64, iter, vpn int) {
	for _, t := range f.tests {
		t.MarkStore(a, idx, iter, vpn)
	}
	f.ts.StampStore(a, idx, v, iter, vpn)
}

func (f *fusedTracker) LoadRange(a *mem.Array, lo, hi int, dst []float64, iter, vpn int) {
	for _, t := range f.tests {
		t.MarkLoadRange(a, lo, hi, iter, vpn)
	}
	f.ts.StampLoadRange(a, lo, hi, dst, vpn)
}

func (f *fusedTracker) StoreRange(a *mem.Array, lo int, src []float64, iter, vpn int) {
	for _, t := range f.tests {
		t.MarkStoreRange(a, lo, lo+len(src), iter, vpn)
	}
	f.ts.StampStoreRange(a, lo, src, iter, vpn)
}
