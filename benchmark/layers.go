package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"whilepar"
	"whilepar/internal/autotune"
	"whilepar/internal/genrec"
	"whilepar/internal/induction"
	"whilepar/internal/loopir"
	"whilepar/internal/mem"
	"whilepar/internal/pdtest"
	"whilepar/internal/sched"
	"whilepar/internal/sig"
	"whilepar/internal/tsmem"
)

// This file times the layers' public functions directly, from outside,
// on state sized like the workload's.  The figures are unit costs (ns per
// call, word or element); the traced ops supply the counts they multiply.

// layerReps is how often each direct timing is repeated; the median is
// reported.
const layerReps = 5

// onWorkers splits [0, n) into procs contiguous blocks, runs fn on each
// from its own goroutine as that virtual processor, and returns the wall
// time — the access pattern of a balanced strip.
func onWorkers(procs, n int, fn func(vpn, lo, hi int)) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for vpn := 0; vpn < procs; vpn++ {
		wg.Add(1)
		go func(vpn int) {
			defer wg.Done()
			fn(vpn, vpn*n/procs, (vpn+1)*n/procs)
		}(vpn)
	}
	wg.Wait()
	return time.Since(t0)
}

// perCall is the cost of one call on a worker's path when every worker
// made calls of them inside wall.
func perCall(wall time.Duration, calls, procs int) float64 {
	return ratio(ns(wall)*float64(procs), float64(calls))
}

// unitCosts are the direct timings the body-time model multiplies with
// the traced ops' counts.
type unitCosts struct {
	bodySeq    float64 // one untracked iteration of the workload's loop
	untracked  float64 // Iter.Load + Iter.Store, nil tracker
	markLoad   float64
	markStore  float64
	stampStore float64
}

func loopirCosts(r *result, n int) float64 {
	a := mem.NewArray("L", n)
	d := medianOf(layerReps, func() time.Duration {
		return timeIt(func() {
			for i := 0; i < n; i++ {
				it := loopir.Iter{Index: i}
				it.Store(a, i, it.Load(a, i)+1)
			}
		})
	})
	v := ratio(ns(d), float64(n))
	r.set("loopir.iter_untracked_ns", v)
	return v
}

func schedPoolCosts(r *result, procs int, shared bool) {
	const regions = 2000
	noop := func(int) {}
	pool := sched.NewPool(procs)
	d := medianOf(layerReps, func() time.Duration {
		return timeIt(func() {
			for k := 0; k < regions; k++ {
				_ = pool.Run(noop) // a no-op job cannot panic
			}
		})
	})
	pool.Close()
	r.set("sched.pool_roundtrip_ns", ns(d)/regions)
	if !shared {
		return
	}
	sp := sched.NewSharedPool(procs)
	d = medianOf(layerReps, func() time.Duration {
		return onWorkers(procs, procs, func(int, int, int) {
			for k := 0; k < regions; k++ {
				_ = sp.Run(noop)
			}
		})
	})
	sp.Close()
	r.set("sched.shared_ticket_ns", ns(d)/float64(regions*procs))
}

func schedDispatchCosts(r *result, procs, n int) error {
	ctx := context.Background()
	for _, s := range []struct {
		name string
		s    sched.Schedule
	}{{"dynamic", sched.Dynamic}, {"static", sched.Static}, {"guided", sched.Guided}, {"stealing", sched.Stealing}} {
		var err error
		d := medianOf(layerReps, func() time.Duration {
			return timeIt(func() {
				_, e := sched.DOALLCtx(ctx, n, sched.Options{Procs: procs, Schedule: s.s},
					func(int, int) sched.Control { return sched.Continue })
				if e != nil {
					err = e
				}
			})
		})
		if err != nil {
			return fmt.Errorf("sched.DOALLCtx(%s): %w", s.name, err)
		}
		r.set("sched.doall_dispatch_ns_per_iter_"+s.name, ratio(ns(d), float64(n)))
	}
	return nil
}

func inductionCosts(r *result, procs, n int) error {
	ctx := context.Background()
	l := &loopir.Loop[int]{Class: loopir.Class{Dispatcher: loopir.MonotonicInduction, Terminator: loopir.RV},
		Disp: loopir.IntInduction{C: 1}, Body: func(*loopir.Iter, int) bool { return true }, Max: n}
	for _, m := range []struct {
		name string
		m    induction.Method
	}{{"ind1", induction.Induction1}, {"ind2", induction.Induction2}} {
		var err error
		d := medianOf(layerReps, func() time.Duration {
			return timeIt(func() {
				if _, e := induction.RunCtx(ctx, l, induction.Config{Procs: procs, Method: m.m}); e != nil {
					err = e
				}
			})
		})
		if err != nil {
			return fmt.Errorf("induction.RunCtx(%s): %w", m.name, err)
		}
		r.set("induction.run_ns_per_iter_"+m.name, ratio(ns(d), float64(n)))
	}
	return nil
}

// tsmemCosts drives one Memory through the calls a speculative execution
// makes — checkpoint, stamped stores from procs workers, then each way a
// strip can end — and returns the per-store cost.
func tsmemCosts(r *result, procs, n int) (float64, error) {
	a := mem.NewArray("T", n)
	m := tsmem.NewSharded(procs, a)
	defer m.Release()
	trk := m.Tracker()
	rtrk, ok := trk.(mem.RangeTracker)
	if !ok {
		return 0, fmt.Errorf("tsmem tracker has no range path")
	}
	stamp := func() time.Duration {
		return onWorkers(procs, n, func(vpn, lo, hi int) {
			for i := lo; i < hi; i++ {
				trk.Store(a, i, 1, i, vpn)
			}
		})
	}
	const block = 64
	src := make([]float64, block)
	var (
		ckpt, store, storeRange, commit, rearm, undo, partial, restore samples
		undone, rewound, written                                       int
		err                                                            error
	)
	for rep := 0; rep < layerReps && err == nil; rep++ {
		ckpt = append(ckpt, timeIt(m.Checkpoint))
		store = append(store, stamp())
		undo = append(undo, timeIt(func() { undone, err = m.Undo(n * 7 / 8) }))
		commit = append(commit, timeIt(m.Commit))
		if err != nil {
			break
		}

		m.Checkpoint()
		stamp()
		partial = append(partial, timeIt(func() { rewound, err = m.PartialCommit(n / 2) }))
		m.Commit()
		if err != nil {
			break
		}

		m.Checkpoint()
		stamp()
		restore = append(restore, timeIt(func() { err = m.RestoreAll() }))
		m.Commit()

		m.Checkpoint()
		stamp()
		ws := m.WriteSet()
		written = len(ws[0])
		rearm = append(rearm, timeIt(func() { m.Rearm(ws) }))
		m.Commit()

		m.Checkpoint()
		storeRange = append(storeRange, onWorkers(procs, n, func(vpn, lo, hi int) {
			for i := lo; i+block <= hi; i += block {
				rtrk.StoreRange(a, i, src, i, vpn)
			}
		}))
		m.Commit()
	}
	if err != nil {
		return 0, fmt.Errorf("tsmem: %w", err)
	}
	words := float64(n)
	perStore := perCall(store.median(), n, procs)
	r.set("tsmem.checkpoint_ns_per_word", ratio(ns(ckpt.median()), words))
	r.set("tsmem.stamp_store_ns", perStore)
	r.set("tsmem.stamp_store_range_ns_per_elem", perCall(storeRange.median(), n, procs))
	r.set("tsmem.commit_ns", ns(commit.median()))
	r.set("tsmem.rearm_ns_per_word", ratio(ns(rearm.median()), float64(written)))
	r.set("tsmem.undo_ns_per_word", ratio(ns(undo.median()), float64(undone)))
	r.set("tsmem.partial_commit_ns_per_word", ratio(ns(partial.median()), float64(rewound)))
	r.set("tsmem.restore_all_ns_per_word", ratio(ns(restore.median()), words))
	return perStore, nil
}

// pdtestCosts marks in the order a loop body does — per element a load
// mark, then a store mark on the shadow record the load just touched — so
// mark_store_ns is the marginal cost of the store mark in that order.
func pdtestCosts(r *result, procs, n int) (markLoad, markStore float64) {
	a := mem.NewArray("P", n)
	t := pdtest.New(a, procs)
	defer t.Release()
	var loads, both, analyze samples
	for rep := 0; rep < layerReps; rep++ {
		loads = append(loads, onWorkers(procs, n, func(vpn, lo, hi int) {
			for i := lo; i < hi; i++ {
				t.MarkLoad(a, i, i, vpn)
			}
		}))
		t.Reset()
		both = append(both, onWorkers(procs, n, func(vpn, lo, hi int) {
			for i := lo; i < hi; i++ {
				t.MarkLoad(a, i, i, vpn)
				t.MarkStore(a, i, i, vpn)
			}
		}))
		analyze = append(analyze, timeIt(func() { t.AnalyzeQuiet(n) }))
		t.Reset()
	}
	markLoad = perCall(loads.median(), n, procs)
	if markStore = perCall(both.median(), n, procs) - markLoad; markStore < 0 {
		markStore = 0
	}
	r.set("pdtest.mark_load_ns", markLoad)
	r.set("pdtest.mark_store_ns", markStore)
	r.set("pdtest.analyze_ns_per_elem", ratio(ns(analyze.median()), float64(n)))
	return markLoad, markStore
}

func sigCosts(r *result, procs, n int) {
	a := mem.NewArray("S", n)
	s := sig.New(procs, []*mem.Array{a}, sig.Config{})
	defer s.Release()
	var marks, verdicts samples
	for rep := 0; rep < layerReps; rep++ {
		marks = append(marks, onWorkers(procs, n, func(vpn, lo, hi int) {
			for i := lo; i < hi; i++ {
				s.MarkLoad(a, i, i, vpn)
				s.MarkStore(a, i, i, vpn)
			}
		}))
		verdicts = append(verdicts, timeIt(func() { s.Conflict() }))
		s.Reset()
	}
	r.set("sig.mark_ns", perCall(marks.median(), 2*n, procs))
	r.set("sig.conflict_ns", ns(verdicts.median()))
}

func autotuneCosts(r *result, procs, n int) {
	const calls = 100000
	prof := autotune.Profile{Runs: 12, NsPerIter: 100, TripFraction: 0.875, CleanStreak: 12}
	sink := 0
	d := timeIt(func() {
		for k := 0; k < calls; k++ {
			plan := autotune.Decide(prof, true, n-k%2, procs, true)
			sink += plan.Strip + autotune.DecideTier(prof, true, plan.Schedule) +
				autotune.InitialStrip(prof, true, n, procs)
		}
	})
	if sink < 0 {
		panic("unreachable: keeps the calls alive")
	}
	r.set("autotune.decide_ns", ns(d)/calls)
}

func coreCosts(r *result, opt whilepar.Options) error {
	const calls = 100000
	var err error
	d := timeIt(func() {
		for k := 0; k < calls; k++ {
			if e := opt.Validate(); e != nil {
				err = e
			}
		}
	})
	r.set("core.validate_ns", ns(d)/calls)
	return err
}

func genrecCosts(r *result, procs, n int) error {
	ctx := context.Background()
	head := whilepar.BuildList(n, nil)
	body := func(*loopir.Iter, *whilepar.Node) bool { return true }
	for _, m := range []struct {
		name string
		run  func(context.Context, *whilepar.Node, genrec.Body, genrec.Config) (genrec.Result, error)
	}{{"general1", genrec.General1Ctx}, {"general2", genrec.General2Ctx}, {"general3", genrec.General3Ctx}} {
		var err error
		d := medianOf(layerReps, func() time.Duration {
			return timeIt(func() {
				res, e := m.run(ctx, head, body, genrec.Config{Procs: procs})
				if e == nil && res.Valid != n {
					e = fmt.Errorf("valid = %d, want %d", res.Valid, n)
				}
				if e != nil {
					err = e
				}
			})
		})
		if err != nil {
			return fmt.Errorf("genrec %s: %w", m.name, err)
		}
		r.set("genrec."+m.name+"_ns_per_node", ratio(ns(d), float64(n)))
	}
	return nil
}
