package autotune

import (
	"context"
	"sync"
	"time"

	"whilepar/internal/costmodel"
	"whilepar/internal/mem"
	"whilepar/internal/pdtest"
	"whilepar/internal/sched"
	"whilepar/internal/sig"
	"whilepar/internal/tsmem"
)

// Calibration: the host's Table is measured once per process, the first
// time a planner asks for it, by driving the same undo memory, PD test,
// signatures and pool the strip engines use through one strip's worth
// of calls each and timing them from outside — a few milliseconds.  A
// process that only ever runs plain DOALLs is asked for the DOALL row
// alone, which takes a pool and an empty loop to measure, and never
// builds the shadows.  Nothing is persisted: unit costs belong to the
// host and the build, not to the loops a ProfileStore remembers.

const (
	// calElems sizes the calibration array: large enough that the
	// shadow structures (a few tens of bytes per element) leave the
	// first-level cache, as a real loop's do.
	calElems = 1 << 14
	// calReps repeats every timing; the fastest counts (the first pass
	// faults the shadows in, and a busy host only ever adds time).
	calReps = 3
	// calRegions is how many empty strips one Barrier timing averages.
	calRegions = 32
)

// host is the process's table: doall holds the DOALL row alone, full
// everything; set, when non-nil, replaces both (SetHostTable).
var host struct {
	sync.Mutex
	doall, full, set *Table
}

// HostTable returns this host's calibrated Table, measuring it on first
// use.  With speculative false only the DOALL row is promised.
func HostTable(speculative bool) *Table {
	host.Lock()
	defer host.Unlock()
	switch {
	case host.set != nil:
		return host.set
	case host.full != nil:
		return host.full
	case speculative:
		host.full = calibrate()
		return host.full
	}
	if host.doall == nil {
		pool := sched.NewPool(2)
		host.doall = &Table{DOALL: calibrateDOALL(pool)}
		pool.Close()
	}
	return host.doall
}

// SetHostTable makes t what HostTable returns, in place of a
// calibration (nil: calibrate after all).  It is for a test binary's
// TestMain: suites written against particular engines must reach them
// through Auto on any host, however slow its marks or fast its loop
// bodies (see Table.Off).
func SetHostTable(t *Table) {
	host.Lock()
	host.set = t
	host.Unlock()
}

// lowest keeps the shortest of the timings it takes, in nanoseconds:
// the first pass over fresh state faults it in, and whatever else the
// host is doing only ever adds time.
type lowest float64

func (l *lowest) time(f func()) {
	t0 := time.Now()
	f()
	if d := float64(time.Since(t0).Nanoseconds()); *l == 0 || d < float64(*l) {
		*l = lowest(d)
	}
}

// per is total/n floored at zero: a cost net of its baseline can come
// out slightly negative on a noisy host.
func per(total lowest, n int) float64 {
	if total <= 0 || n <= 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// calibrateDOALL prices what every parallel engine pays whatever it
// tracks: issuing an iteration, and one dispatch onto a pool and back.
func calibrateDOALL(pool *sched.Pool) costmodel.UnitCosts {
	noop := func(int, int) sched.Control { return sched.Continue }
	var dispatch, barrier lowest
	for rep := 0; rep < calReps; rep++ {
		dispatch.time(func() {
			_, _ = sched.DOALLCtx(context.Background(), calElems, sched.Options{Procs: 1}, noop)
		})
		barrier.time(func() {
			for k := 0; k < calRegions; k++ {
				_ = pool.Run(func(int) {}) // a no-op job cannot panic
			}
		})
	}
	return costmodel.UnitCosts{Dispatch: per(dispatch, calElems), Barrier: per(barrier, calRegions)}
}

func calibrate() *Table {
	const n = calElems
	a := mem.NewArray("calibration", n)
	ts := tsmem.NewSharded(1, a)
	defer ts.Release()
	pd := pdtest.New(a, 1)
	defer pd.Release()
	// Two workers: the signature verdict is pairwise.
	sg := sig.New(2, []*mem.Array{a}, sig.Config{})
	defer sg.Release()
	pool := sched.NewPool(2)
	defer pool.Close()

	tab := &Table{DOALL: calibrateDOALL(pool)}
	var sink float64

	// Tier 0, in the order a strip makes the calls — marks and stamps,
	// the analysis, the write-set merge, the overshoot's undo, the
	// re-arm — next to the direct accesses the tracked ones replace and
	// to a strip of nothing: what a strip costs whatever its length.
	var direct, load, store, elem, merge, undo, rearm, empty lowest
	ts.Checkpoint()
	for rep := 0; rep < calReps; rep++ {
		direct.time(func() {
			for i := range a.Data {
				sink += a.Data[i]
				a.Data[i] = 1
			}
		})
		load.time(func() {
			for i := 0; i < n; i++ {
				pd.MarkLoad(a, i, i, 0)
				sink += ts.StampLoad(a, i)
			}
		})
		store.time(func() {
			for i := 0; i < n; i++ {
				pd.MarkStore(a, i, i, 0)
				ts.StampStore(a, i, 1, i, 0)
			}
		})
		elem.time(func() { pd.AnalyzeQuiet(n) })
		var ws [][]int
		merge.time(func() { ws = ts.WriteSet() })
		undo.time(func() { _, _ = ts.Undo(n / 2) })
		rearm.time(func() { ts.Rearm(ws) })
		pd.Reset()
		empty.time(func() {
			for k := 0; k < calRegions; k++ {
				ts.Rearm(ts.WriteSet())
				pd.Reset()
				_ = pool.Run(func(int) {})
				pd.AnalyzeQuiet(0)
			}
		})
	}
	full := costmodel.UnitCosts{
		Dispatch:       tab.DOALL.Dispatch,
		Load:           per(load-direct/2, n),
		Store:          per(store-direct/2, n),
		Elem:           per(elem, n),
		CheckpointWord: per(merge+rearm, n),
		UndoWord:       per(undo, n-n/2),
		Barrier:        per(empty, calRegions),
	}

	// Tier 1 swaps the PD marks for signature marks and the analysis for
	// one pairwise verdict per strip; the undo memory is the same.
	var sload, sstore, verdict lowest
	for rep := 0; rep < calReps; rep++ {
		sload.time(func() {
			for i := 0; i < n; i++ {
				sg.MarkLoad(a, i, i, i&1)
				sink += ts.StampLoad(a, i)
			}
		})
		sstore.time(func() {
			for i := 0; i < n; i++ {
				sg.MarkStore(a, i, i, 0)
				ts.StampStore(a, i, 1, i, 0)
			}
		})
		verdict.time(func() { sg.Conflict() })
		sg.Reset()
		ts.Rearm(ts.WriteSet())
	}
	signature := full
	signature.Load = per(sload-direct/2, n)
	signature.Store = per(sstore-direct/2, n)
	signature.Elem = 0
	signature.Barrier += float64(verdict)

	// Tier 2 runs one strip in AuditEvery under tier 0 and the rest
	// bare.
	trusted := full
	trusted.Load /= AuditEvery
	trusted.Store /= AuditEvery
	trusted.Elem /= AuditEvery
	trusted.CheckpointWord /= AuditEvery

	calSink = sink
	tab.Tiers = [3]costmodel.UnitCosts{full, signature, trusted}
	return tab
}

// calSink keeps the calibration loops' loads alive.
var calSink float64
