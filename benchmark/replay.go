package main

import (
	"context"
	"fmt"
	"time"

	"whilepar"
	"whilepar/internal/genrec"
	"whilepar/internal/induction"
	"whilepar/internal/loopir"
	"whilepar/internal/mem"
	"whilepar/internal/sched"
	"whilepar/internal/speculate"
)

// This file is the traced run of the facade workloads.  The benchmark
// hand-composes the engine core runs for the pinned variant from the
// layers' public functions, with a span around each call it makes into a
// layer, and checks that the replay ends in the same state as the facade
// op.  Spans inside the program are a later change.

// replayTimes are the span durations of one traced replay.
type replayTimes struct {
	root     time.Duration // speculate.RunCtx; the dispatch call when nothing is speculative
	par      time.Duration // the ParallelRunner callback; likewise
	dispatch time.Duration // induction.RunCtx or genrec.General3Ctx
	seq      time.Duration // sequential re-execution callbacks
	workers  []workerTally // body calls and time inside them, parallel phase only
}

// bodySpans closes the parallel phase's body metering: one aggregate span
// per worker under the dispatch span, carrying calls and time inside them.
func bodySpans(m *bodyMeter, tr *tracer, op, parent int) []workerTally {
	if m == nil {
		return nil
	}
	ws := m.take()
	if tr != nil {
		p := tr.spans[parent-1]
		for vpn, w := range ws {
			tr.add(span{Parent: parent, Op: op, Name: fmt.Sprintf("body.vpn%d", vpn),
				StartNs: p.StartNs, EndNs: p.EndNs, Calls: w.calls, BusyNs: w.busy.Nanoseconds()})
		}
	}
	return ws
}

// seqFrom completes an induction loop sequentially from iteration from,
// as core's recovery resume does.
func seqFrom(l *whilepar.IntLoop, from int) int {
	cf := l.Disp.(loopir.ClosedForm[int])
	for i := from; i < l.Max; i++ {
		if !l.Body(&loopir.Iter{Index: i}, cf.At(i)) {
			return i
		}
	}
	return l.Max
}

// replayPinned runs the engine the pinned variant selects, composed by
// hand: speculate.RunCtx around induction.RunCtx for the speculative
// loops, induction.RunCtx or genrec.General3Ctx alone otherwise.  m and
// tr are nil for the untraced twin.
func (f *facade) replayPinned(loop any, m *bodyMeter, tr *tracer, op int) (int, replayTimes, error) {
	ctx := context.Background()
	var rt replayTimes

	if l, ok := loop.(whilepar.ListLoop); ok {
		root := tr.begin(op, 0, "genrec.General3Ctx")
		res, err := genrec.General3Ctx(ctx, l.Head, l.Body, genrec.Config{Procs: f.procs})
		rt.root = tr.end(root)
		rt.par, rt.dispatch, rt.workers = rt.root, rt.root, bodySpans(m, tr, op, root)
		return res.Valid, rt, err
	}

	l := loop.(*whilepar.IntLoop)
	dispatch := func(parent int, trk mem.Tracker) (int, error) {
		id := tr.begin(op, parent, "induction.RunCtx")
		res, err := induction.RunCtx(ctx, l, induction.Config{Procs: f.procs, Tracker: trk})
		rt.dispatch = tr.end(id)
		rt.workers = bodySpans(m, tr, op, id)
		return res.Valid, err
	}
	if len(f.shared) == 0 {
		valid, err := dispatch(0, nil)
		rt.root, rt.par = rt.dispatch, rt.dispatch
		return valid, rt, err
	}

	root := tr.begin(op, 0, "speculate.RunCtx")
	seqSpan := func(name string, run func() int) int {
		id := tr.begin(op, root, name)
		valid := run()
		rt.seq += tr.end(id)
		return valid
	}
	spec := speculate.Spec{Procs: f.procs, Shared: f.shared, Tested: f.tested}
	if f.opts[vPinned].Strategy == whilepar.StrategyRecover {
		spec.Recovery = speculate.Recovery{Enabled: true, SeqFrom: func(from int) int {
			return seqSpan("seq-from", func() int { return seqFrom(l, from) })
		}}
	}
	rep, err := speculate.RunCtx(ctx, spec,
		func(trk mem.Tracker) (int, error) {
			id := tr.begin(op, root, "parallel-runner")
			valid, err := dispatch(id, trk)
			rt.par = tr.end(id)
			return valid, err
		},
		func() int {
			return seqSpan("sequential-runner", func() int { return loopir.RunSequential(l).Iterations })
		})
	rt.root = tr.end(root)
	if m != nil {
		m.take() // body calls of the sequential phases are not the workers'
	}
	return rep.Valid, rt, err
}

// stripTimes are the wall time of a strip engine and the part of it
// spent inside the benchmark's own callbacks.
type stripTimes struct{ wall, par, seq time.Duration }

// replayStripped runs a speculative loop through a strip engine with the
// benchmark's own StripPar/StripSeq callbacks (the shape of core's
// auto-tuned path): root span around the engine, children around the
// callbacks, grandchildren around sched.DOALLCtx.
func (f *facade) replayStripped(l *whilepar.IntLoop, tr *tracer, op int, pipelined bool) (speculate.StripReport, stripTimes, error) {
	ctx := context.Background()
	cf := l.Disp.(loopir.ClosedForm[int])
	var st stripTimes
	name, engine := "speculate.RunStrippedCtx", speculate.RunStrippedCtx
	if pipelined {
		name, engine = "speculate.RunStrippedPipelinedCtx", speculate.RunStrippedPipelinedCtx
	}
	root := tr.begin(op, 0, name)
	stripPar := func(trk mem.Tracker, lo, hi int) (int, bool, error) {
		t0 := time.Now()
		id := tr.begin(op, root, "strip-par")
		did := tr.begin(op, id, "sched.DOALLCtx")
		res, err := sched.DOALLCtx(ctx, hi-lo, sched.Options{Procs: f.procs, Pool: f.pool},
			func(i, vpn int) sched.Control {
				gi := lo + i
				if !l.Body(&loopir.Iter{Index: gi, VPN: vpn, Tracker: trk}, cf.At(gi)) {
					return sched.Quit
				}
				return sched.Continue
			})
		tr.end(did)
		tr.end(id)
		st.par += time.Since(t0)
		return res.QuitIndex, res.QuitIndex < hi-lo, err
	}
	stripSeq := func(lo, hi int) (int, bool) {
		t0 := time.Now()
		id := tr.begin(op, root, "strip-seq")
		defer func() {
			tr.end(id)
			st.seq += time.Since(t0)
		}()
		for i := lo; i < hi; i++ {
			if !l.Body(&loopir.Iter{Index: i}, cf.At(i)) {
				return i - lo, true
			}
		}
		return hi - lo, false
	}
	t0 := time.Now()
	rep, err := engine(ctx, speculate.Spec{Procs: f.procs, Shared: f.shared, Tested: f.tested},
		l.Max, l.Max/16, stripPar, stripSeq)
	st.wall = time.Since(t0)
	tr.end(root)
	return rep, st, err
}

// tracedRun is the state of one facade workload's traced window.
type tracedRun struct {
	f       *facade
	r       *result
	tr      *tracer
	m       *bodyMeter
	metered any     // the loop with its body wrapped by m
	perIter float64 // modelled cost of one body call on a worker, from unit costs

	times map[string]samples // wall time per kind of op
	self  map[string]samples // layer self time per traced replay

	// Sums over the pinned ops that carried a Metrics.
	pinnedOps                                    float64
	overshot, executed, respec, prefix           float64
	stamped, ckptWords, undone, pdTests, pdFails float64
	// Sums over the default ops that carried a Metrics.
	defaultOps                                float64
	steals, poolDispatches, strips, seqStrips float64
	probeNs, probeIters, retunes, sigFP       float64
	tier                                      int
	// Sums over the traced pinned ops, and per-op ratios.
	tracedOps, calls, busy                float64
	useful, imbalance, layersSum          []float64
	stripSelf, stripParTime, stripSeqTime samples
}

// facadeOp runs one verified facade op and files its wall time.
func (t *tracedRun) facadeOp(name string, loop any, v variant, mx *whilepar.Metrics) (whilepar.Report, bool) {
	opt := t.f.opts[v]
	opt.Metrics = mx
	t.f.reset()
	rep, dt, err := t.f.run(loop, opt)
	return rep, t.verified(name, dt, rep.Valid, err)
}

// verified counts one op, checks it against the oracle and files its time.
func (t *tracedRun) verified(name string, dt time.Duration, valid int, err error) bool {
	t.r.Attempted++
	if why := t.f.verify(valid, err); why != "" {
		t.r.fail("%s op: %s", name, why)
		return false
	}
	t.times[name] = append(t.times[name], dt)
	return true
}

// pinnedWithMetrics reads what the pinned engine did off its Report.
func (t *tracedRun) pinnedWithMetrics() {
	rep, ok := t.facadeOp("pinned+metrics", t.f.loop, vPinned, whilepar.NewMetrics())
	if !ok {
		return
	}
	t.pinnedOps++
	t.overshot += float64(rep.Overshot)
	t.executed += float64(rep.Executed)
	t.respec += float64(rep.RespecRounds)
	t.prefix += float64(rep.PrefixCommitted)
	s := rep.Metrics
	t.stamped += float64(s.StampedStores)
	t.ckptWords += float64(s.CheckpointWords + s.DeltaCheckpointWords)
	t.undone += float64(s.Undone + s.SuffixUndone)
	t.pdTests += float64(s.PDTests)
	t.pdFails += float64(s.PDFail)
}

// defaultWithMetrics reads what the planner chose and its engine did.
func (t *tracedRun) defaultWithMetrics() {
	rep, ok := t.facadeOp("default+metrics", t.f.loop, vDefault, whilepar.NewMetrics())
	if !ok {
		return
	}
	t.defaultOps++
	s := rep.Metrics
	t.steals += float64(s.StealChunks)
	t.poolDispatches += float64(s.PoolDispatches)
	t.strips += float64(s.SpecAttempts)
	t.seqStrips += float64(s.SpecAborts)
	t.probeNs += float64(rep.ProbeNs)
	t.probeIters += float64(rep.ProbeIters)
	t.retunes += float64(len(rep.Retunes))
	t.sigFP += float64(rep.SigFalsePositives)
	if rep.ValidationTier > t.tier {
		t.tier = rep.ValidationTier
	}
}

// pinnedTraced runs the pinned op with the body wrapped: every body call
// of the op, re-executions included.
func (t *tracedRun) pinnedTraced() {
	t.m.take()
	rep, ok := t.facadeOp("pinned+trace", t.metered, vPinned, nil)
	calls, busy, _ := tallyTotals(t.m.take())
	if !ok {
		return
	}
	t.tracedOps++
	t.calls += float64(calls)
	t.busy += ns(busy)
	t.useful = append(t.useful, ratio(float64(rep.Valid), float64(calls)))
}

func (t *tracedRun) replay(op int) {
	t.f.reset()
	t0 := time.Now()
	valid, _, err := t.f.replayPinned(t.f.loop, nil, nil, op)
	t.verified("replay", time.Since(t0), valid, err)
}

// replayTraced records the replay's spans and derives the layers' self
// times: a span's duration minus what its children cover.  The workers'
// aggregate body spans cover the dispatch span up to the slowest worker's
// time in the body.
func (t *tracedRun) replayTraced(op int) {
	t.f.reset()
	t.m.take()
	t0 := time.Now()
	valid, rt, err := t.f.replayPinned(t.metered, t.m, t.tr, op)
	if !t.verified("replay+trace", time.Since(t0), valid, err) {
		return
	}
	_, busy, maxBusy := tallyTotals(rt.workers)
	var model time.Duration
	for _, w := range rt.workers {
		if d := time.Duration(float64(w.calls) * t.perIter); d > model {
			model = d
		}
	}
	if maxBusy > rt.dispatch {
		maxBusy = rt.dispatch
	}
	t.self["body"] = append(t.self["body"], maxBusy)
	t.self["dispatch"] = append(t.self["dispatch"], rt.par-maxBusy)
	t.self["speculate"] = append(t.self["speculate"], rt.root-rt.par-rt.seq)
	t.self["sequential-rerun"] = append(t.self["sequential-rerun"], rt.seq)
	t.imbalance = append(t.imbalance, ratio(ns(maxBusy)*float64(t.f.procs), ns(busy)))
	// The same sum with the slowest worker's body time rebuilt from the
	// layers' unit costs times its call count.
	t.layersSum = append(t.layersSum, ratio(ns(rt.root-maxBusy+model), ns(rt.root)))
}

func (t *tracedRun) stripped(op int, pipelined bool) {
	name, spans := "stripped", t.tr
	if pipelined {
		name, spans = "pipelined", nil
	}
	t.f.reset()
	rep, st, err := t.f.replayStripped(t.f.loop.(*whilepar.IntLoop), spans, op, pipelined)
	if !t.verified(name, st.wall, rep.Valid, err) || pipelined {
		return
	}
	t.stripSelf = append(t.stripSelf, (st.wall-st.par-st.seq)/time.Duration(rep.Strips))
	t.stripParTime = append(t.stripParTime, st.par)
	t.stripSeqTime = append(t.stripSeqTime, st.seq)
}

func (f *facade) traced(cfg config, r *result) error {
	_, isInt := f.loop.(*whilepar.IntLoop)
	speculative := len(f.shared) > 0

	// Unit costs of the layers this workload reaches.
	u := unitCosts{untracked: loopirCosts(r, f.n)}
	schedPoolCosts(r, f.procs, false)
	if err := coreCosts(r, f.opts[vPinned]); err != nil {
		return err
	}
	if isInt {
		if err := schedDispatchCosts(r, f.procs, f.n); err != nil {
			return err
		}
		if err := inductionCosts(r, f.procs, f.n); err != nil {
			return err
		}
		autotuneCosts(r, f.procs, f.n)
	} else if err := genrecCosts(r, f.procs, f.n); err != nil {
		return err
	}
	if speculative {
		var err error
		if u.stampStore, err = tsmemCosts(r, f.procs, f.n); err != nil {
			return err
		}
		u.markLoad, u.markStore = pdtestCosts(r, f.procs, f.n)
		sigCosts(r, f.procs, f.n)
	}
	u.bodySeq = ratio(ns(medianOf(layerReps, func() time.Duration {
		f.reset()
		return timeIt(func() { sequentialOracle(f.loop) })
	})), float64(f.valid))
	r.set("body.ns_per_iter_seq", u.bodySeq)

	t := &tracedRun{f: f, r: r, tr: newTracer(), m: newBodyMeter(f.procs),
		times: map[string]samples{}, self: map[string]samples{}, perIter: u.bodySeq}
	t.metered = f.build(t.m)
	// One tracked iteration replaces the untracked load+store pair with a
	// shadow-marked load and a marked, stamped store.
	if extra := u.markLoad + u.markStore + u.stampStore - u.untracked; speculative && extra > 0 {
		t.perIter += extra
	}

	ops := []func(op int){
		func(int) { t.facadeOp("seq", f.loop, vSeq, nil) },
		func(int) { t.facadeOp("pinned", f.loop, vPinned, nil) },
		func(int) { t.facadeOp("default", f.loop, vDefault, nil) },
		func(int) { t.pinnedWithMetrics() },
		func(int) { t.defaultWithMetrics() },
		func(int) { t.pinnedTraced() },
		t.replay,
		t.replayTraced,
	}
	if speculative {
		ops = append(ops,
			func(op int) { t.stripped(op, false) },
			func(op int) { t.stripped(op, true) })
	}
	// Each round starts one op later than the last, so that nothing
	// periodic (a GC cycle, say) lands on the same kind of op every round.
	for w := newWindow(cfg); w.next(); {
		for k := range ops {
			ops[(w.rounds+k)%len(ops)](w.rounds)
		}
	}

	med := func(name string) float64 { return ns(t.times[name].median()) }
	def := t.times["default"]
	r.set("whole.run_ms_p90", ms(def.percentile(0.9)))
	r.set("whole.iters_per_s_mean", ratio(float64(f.valid*len(def)), def.sum().Seconds()))
	r.set("body.calls_per_op", ratio(t.calls, t.tracedOps))
	r.set("body.busy_ns_per_op", ratio(t.busy, t.tracedOps))
	r.set("body.useful_ratio", percentileOf(t.useful, 0.5))
	r.set("sched.imbalance_ratio", percentileOf(t.imbalance, 0.5))
	r.set("sched.steal_chunks_per_op", ratio(t.steals, t.defaultOps))
	r.set("sched.pool_dispatches_per_op", ratio(t.poolDispatches, t.defaultOps))
	r.set("tsmem.stamped_stores_per_op", ratio(t.stamped, t.pinnedOps))
	r.set("tsmem.checkpoint_words_per_op", ratio(t.ckptWords, t.pinnedOps))
	r.set("tsmem.undone_words_per_op", ratio(t.undone, t.pinnedOps))
	r.set("pdtest.tests_per_op", ratio(t.pdTests, t.pinnedOps))
	r.set("pdtest.fail_ratio", ratio(t.pdFails, t.pdTests))
	r.set("sig.false_positive_ratio", ratio(t.sigFP, t.strips))
	r.set("speculate.strips_per_op", ratio(t.strips, t.defaultOps))
	r.set("speculate.seq_strips_per_op", ratio(t.seqStrips, t.defaultOps))
	r.set("speculate.respec_rounds_per_op", ratio(t.respec, t.pinnedOps))
	r.set("speculate.prefix_committed_per_op", ratio(t.prefix, t.pinnedOps))
	r.set("autotune.probe_ns", ratio(t.probeNs, t.defaultOps))
	r.set("autotune.probe_iters", ratio(t.probeIters, t.defaultOps))
	r.set("autotune.retunes_per_op", ratio(t.retunes, t.defaultOps))
	r.set("autotune.tier_reached", float64(t.tier))
	best := med("seq")
	if p := med("pinned"); p < best {
		best = p
	}
	r.set("autotune.default_vs_best", ratio(best, med("default")))
	r.set("core.overhead_ns", med("pinned")-med("replay"))
	r.set("obs.metrics_overhead_ratio", ratio(med("pinned+metrics"), med("pinned")))
	r.set("bench.trace_overhead_ratio", ratio(med("pinned+trace"), med("pinned")))
	r.set("bench.layers_sum_ratio", percentileOf(t.layersSum, 0.5))
	if isInt {
		r.set("induction.overshoot_per_op", ratio(t.overshot, t.pinnedOps))
	} else {
		r.set("genrec.executed_per_op", ratio(t.executed, t.pinnedOps))
		r.set("genrec.overshoot_per_op", ratio(t.overshot, t.pinnedOps))
	}
	if speculative {
		r.set("speculate.strip_self_ns", ns(t.stripSelf.median()))
		r.set("speculate.par_ns_per_op", ns(t.stripParTime.median()))
		r.set("speculate.seq_rerun_ns_per_op", ns(t.stripSeqTime.median()))
		r.set("speculate.pipelined_vs_stripped", ratio(med("pipelined"), med("stripped")))
	}
	for name, s := range t.times {
		r.Samples[name] = len(s)
	}

	layers := map[string]float64{}
	for name, s := range t.self {
		layers[name] = ns(s.median())
	}
	return t.tr.write(cfg, f.name, layers)
}
