// Package pdtest implements the PRIVATIZING DOALL test (PD test) of
// Section 5.1: a run-time technique that decides, after a speculative
// parallel execution, whether the loop actually had cross-iteration data
// dependences — and if so, whether privatization would have removed
// them.
//
// For each shared array under test the loop's accesses are traversed
// into shadow structures while the speculative DOALL runs; a fully
// parallel post-execution analysis then checks for:
//
//   - cross-iteration flow/anti dependences: some element is written by
//     one iteration and *exposed-read* (read before being written within
//     its own iteration) by a different iteration;
//   - output dependences: some element is written by two or more
//     distinct iterations.
//
// A loop is a valid DOALL with respect to the array iff neither occurs.
// Privatization (private per-processor copies, Section 5's Privatization
// Criterion) removes output dependences but not cross-iteration flow,
// so "valid if privatized" requires only the absence of flow/anti
// dependences.
//
// WHILE-loop integration (Section 5.1): every shadow mark carries the
// iteration that made it, and the analysis takes the last valid
// iteration as a parameter — marks made by overshot iterations are
// simply ignored, exactly as the paper prescribes ("those marks in the
// shadow arrays with minimum time-stamps greater than the last valid
// iteration will be ignored").
//
// Shadow structures are per virtual processor, so marking is
// contention-free; iterations on one processor run sequentially, which
// is what makes the exposed-read determination (did *this* iteration
// already write the element?) exact.
//
// Strip-mining throughput: a strip-mined execution runs the PD test
// once per strip, so the per-strip costs must be proportional to the
// strip's accesses, not to the array length.  The shadow slots are
// therefore epoch-tagged — a slot is live only if its generation tag
// equals the test's current epoch, making Reset a single counter bump —
// and each processor journals what it touches per 64-element block: a
// block id once per epoch, a touched bitmap, and a *suspect* bitmap of
// the elements whose marks on that processor involve two iterations.
// Analyze walks the journaled blocks and merges element-wise only the
// elements that are suspect or that two processors touched; every other
// touched element carries one processor's marks from one iteration and
// is clean by construction, so a clean strip costs O(blocks x procs).
// The same tags make a shadow reusable between runs without clearing
// it: a released shadow is pooled together with the last epoch it was
// used under, and the next Test that takes it starts one epoch later,
// so everything it still holds is stale by construction.
// NewEager keeps the eager-sweep, full-scan scheme as the equivalence
// oracle and baseline.
package pdtest

import (
	"context"
	"math"
	"math/bits"

	"whilepar/internal/arena"
	"whilepar/internal/mem"
	"whilepar/internal/obs"
	"whilepar/internal/sched"
)

const never = int64(math.MaxInt64)

// pdRec is one element's packed marking state on one processor — the
// same cache-packing move tsmem's stamp records make.  The six logical
// fields used to live in six parallel slices, so a first-touch mark
// dirtied six cache lines; fused into one 48-byte array-of-structs
// record (pinned by TestPackedShadowLayout), every mark touches exactly
// one line and the epoch tag can never sit apart from the slots it
// guards.
type pdRec struct {
	// lastWriter is the most recent iteration *on this processor* that
	// wrote the element (-1 if none): the same-iteration write detector
	// that decides whether a read is exposed.
	lastWriter int64
	// w1 <= w2 are the two smallest distinct iterations on this
	// processor that wrote the element; r1 <= r2 likewise for exposed
	// reads.
	w1, w2, r1, r2 int64
	// tag is the epoch that last initialized the slots; they are live
	// only while tag equals the test's current epoch.  In eager mode
	// every tag is pinned to the never-moving epoch, so the liveness
	// check is always true and the eager Reset sweep carries the slot
	// reinitialization.
	tag uint32
	// padding: keeps the record at 48 bytes explicitly rather than by
	// compiler accident.
	_ uint32
}

// Journaling granule: 64 elements, so a block's bitmaps are one uint64
// each (the granule tsmem's block journal uses).
const (
	blockShift = 6
	blockMask  = 1<<blockShift - 1
)

// numBlocks returns how many journaling blocks cover n elements.
func numBlocks(n int) int { return (n + blockMask) >> blockShift }

// pdBlk is one block's journal state on one processor, live only while
// tag equals the test's current epoch.
type pdBlk struct {
	// touched has a bit per element this processor marked this epoch.
	touched uint64
	// suspect has a bit per element whose marks on this processor may
	// involve two iterations (see flag): the only elements a single
	// processor's marks can make violate.
	suspect uint64
	tag     uint32
}

// shadow is one virtual processor's private marking state for one array.
// Its size is a multiple of the cache line (pinned by
// TestPackedShadowLayout): every mark writes accesses, and two workers'
// shadows sharing a line would turn that into a ping-pong.
type shadow struct {
	// recs[e] is element e's packed marking record.  Its length is the
	// array's; its capacity is the pooled buffer's.
	recs []pdRec
	// blk[b] is block b's journal state; it covers recs' capacity.
	// Unused (nil) in eager mode, like blocks.
	blk []pdBlk
	// blocks journals the blocks this processor touched in the current
	// epoch (first touch only), giving Analyze its worklist.
	blocks []int32
	// accesses counts marks made by this processor since the last
	// Reset; the per-shadow split keeps the hot path free of shared
	// atomics (summed post-barrier by Accesses).
	accesses int64
	// minExposed is the smallest iteration that made an exposed read on
	// this processor this epoch (never if none): all PrivatizableStrict
	// needs, without visiting the elements.
	minExposed int64
	// epoch is what a pooled shadow carries from one Test to the next:
	// no tag anywhere in recs' or blk's capacity exceeds it, so under
	// any later epoch the whole buffer reads as unmarked.
	epoch uint32
	_     [36]byte
}

// shadowPool recycles epoch-mode shadows whole — records, block journal
// and last epoch — so a new Test pays neither an allocation nor a clear
// of procs x n records.
var shadowPool arena.Pool[shadow]

// newShadow returns an epoch-mode shadow for n elements: a pooled one,
// whose records are stale under every epoch above s.epoch, or a fresh
// one, whose zeroed tags are stale under every epoch.
func newShadow(n int) *shadow {
	s := shadowPool.Get(n)
	if s == nil {
		c := arena.ClassCap(n)
		s = &shadow{recs: make([]pdRec, c), blk: make([]pdBlk, numBlocks(c)), blocks: make([]int32, 0, 64)}
	}
	s.recs, s.minExposed = s.recs[:n], never
	return s
}

// newEagerShadow pins every tag live and eagerly initializes every
// slot: the pre-epoch scheme, where Reset's sweep is the only
// reinitialization.  The oracle's shadows are not pooled.
func newEagerShadow(n int) *shadow {
	s := &shadow{recs: make([]pdRec, n)}
	for i := range s.recs {
		s.recs[i].tag = 1
	}
	s.sweep()
	return s
}

// sweep reinitializes every slot (eager mode only).
func (s *shadow) sweep() {
	for i := range s.recs {
		r := &s.recs[i]
		r.lastWriter = -1
		r.w1, r.w2 = never, never
		r.r1, r.r2 = never, never
	}
}

// release pools an epoch-mode shadow last used under epoch.
func (s *shadow) release(epoch uint32) {
	s.epoch, s.blocks, s.accesses = epoch, s.blocks[:0], 0
	shadowPool.Put(cap(s.recs), s)
}

// insert2 maintains the two smallest distinct values.
func insert2(a, b *int64, v int64) {
	switch {
	case v == *a || v == *b:
	case v < *a:
		*b = *a
		*a = v
	case v < *b:
		*b = v
	}
}

// Test is a PD test instance for one shared array.
type Test struct {
	arr     *mem.Array
	shadows []*shadow
	// epoch is the current shadow generation: above the last epoch of
	// every pooled shadow the test took, so whatever they hold is
	// stale, and never zero, so a fresh shadow's zeroed tags are too.
	// In eager mode it never moves.
	epoch uint32
	eager bool

	// Optional observability hooks (nil-safe).
	obsM *obs.Metrics
	obsT obs.Tracer
}

// SetObs attaches observability hooks: every Analyze records its
// verdict into m and emits a "pd-test" event to t.  Either may be nil.
func (t *Test) SetObs(mx *obs.Metrics, tr obs.Tracer) { t.obsM, t.obsT = mx, tr }

// New creates a PD test for array a with marking state for procs virtual
// processors.  Shadow slots are epoch-tagged and block-journaled, so
// Reset is O(1) and Analyze visits only touched blocks.
func New(a *mem.Array, procs int) *Test { return newTest(a, procs, false) }

// NewEager is New with epoch tagging disabled: every slot is eagerly
// initialized, Reset sweeps all procs x n slots, and Analyze scans every
// element.  It is retained as the equivalence oracle for the journaled
// fast path and as its benchmark baseline.
func NewEager(a *mem.Array, procs int) *Test { return newTest(a, procs, true) }

func newTest(a *mem.Array, procs int, eager bool) *Test {
	if procs < 1 {
		procs = 1
	}
	t := &Test{arr: a, shadows: make([]*shadow, procs), eager: eager}
	if eager {
		t.epoch = 1
		for k := range t.shadows {
			t.shadows[k] = newEagerShadow(a.Len())
		}
		return t
	}
	for k := range t.shadows {
		s := newShadow(a.Len())
		if s.epoch > t.epoch {
			t.epoch = s.epoch
		}
		t.shadows[k] = s
	}
	t.nextEpoch()
	return t
}

// nextEpoch invalidates every mark at once by moving to a generation no
// tag in any shadow carries.
func (t *Test) nextEpoch() {
	t.epoch++
	if t.epoch == 0 {
		// uint32 wrap: tags written 2^32 generations ago would read as
		// live again, so pay one full sweep to zero them and restart at
		// 1 (zero is never a live epoch).  The sweep covers each
		// buffer's whole capacity: a later, longer user of a pooled
		// shadow must not find pre-wrap tags beyond this array's end.
		for _, s := range t.shadows {
			full := s.recs[:cap(s.recs)]
			for i := range full {
				full[i].tag = 0
			}
			for b := range s.blk {
				s.blk[b].tag = 0
			}
		}
		t.epoch = 1
	}
}

// Release pools the test's shadows for the next Test.  The test must
// not be used afterwards; call it when an engine is done with its
// per-invocation tests.
func (t *Test) Release() {
	if !t.eager {
		for _, s := range t.shadows {
			s.release(t.epoch)
		}
	}
	t.shadows = nil
}

// Array returns the array under test.
func (t *Test) Array() *mem.Array { return t.arr }

// Accesses returns the number of accesses marked so far (the `a` of the
// cost model's overhead terms).  Call it after the parallel section: it
// sums the per-processor counters.
func (t *Test) Accesses() int {
	n := int64(0)
	for _, s := range t.shadows {
		n += s.accesses
	}
	return int(n)
}

// Observer returns the mem.Observer to be chained into the speculative
// DOALL's tracker.  Accesses to other arrays are ignored.
func (t *Test) Observer() mem.Observer { return observer{t} }

// first makes r, element idx's record on shadow s, live in the current
// epoch holding its first mark — a write (lastWriter = w1 = the
// iteration, r1 = never) or an exposed read (lastWriter = -1, w1 =
// never, r1 = the iteration) — and journals the touch: a bit in the
// block's bitmap, plus the block id on the block's own first touch.  Two
// cache lines for the whole first-touch mark, the record's and the
// block's.  Out of line, and the last thing a mark does, so the marks'
// hit path keeps nothing live across the call.  (Eager mode pins every
// tag live and never gets here.)
//
//go:noinline
func (t *Test) first(s *shadow, r *pdRec, idx int, lastWriter, w1, r1 int64) {
	r.tag = t.epoch
	r.lastWriter = lastWriter
	r.w1, r.w2 = w1, never
	r.r1, r.r2 = r1, never
	if r1 < s.minExposed {
		s.minExposed = r1
	}
	b := idx >> blockShift
	bl := &s.blk[b]
	if bl.tag != t.epoch {
		*bl = pdBlk{tag: t.epoch}
		s.blocks = append(s.blocks, int32(b))
	}
	bl.touched |= 1 << (uint(idx) & blockMask)
}

// flag marks element idx suspect: its marks on this processor involve,
// or may involve, two iterations.  What stays unflagged holds the marks
// of a single iteration — w1 == r1 or only one of them set, w2 and r2
// unset — which no valid bound can turn into a dependence on its own.
// Epoch mode only: the eager oracle judges every element.
func (s *shadow) flag(idx int) {
	s.blk[idx>>blockShift].suspect |= 1 << (uint(idx) & blockMask)
}

// read records an exposed read by iteration it and reports whether the
// element is now suspect: an earlier iteration on this processor wrote
// it (had it written it itself, the read would be covered).
func (r *pdRec) read(it int64) (suspect bool) {
	insert2(&r.r1, &r.r2, it)
	return r.w1 != never
}

// write records iteration it's first write and reports whether the
// element is now suspect: another iteration on this processor already
// wrote it, or exposed-read it.
func (r *pdRec) write(it int64) (suspect bool) {
	if r.w1 == never {
		r.w1 = it
		suspect = r.r1 != never && (r.r1 != it || r.r2 != never)
	} else {
		insert2(&r.w1, &r.w2, it)
		suspect = true
	}
	r.lastWriter = it
	return suspect
}

// MarkLoad records one load of a[idx] by iteration iter on processor
// vpn.  It is the concrete (devirtualized) form of the Observer's
// ObserveLoad, for callers that fuse the marking into a typed tracker
// instead of dispatching through a mem.Observer chain.
func (t *Test) MarkLoad(a *mem.Array, idx, iter, vpn int) {
	if a != t.arr {
		return
	}
	s := t.shadows[vpn]
	s.accesses++
	r, it := &s.recs[idx], int64(iter)
	if r.tag != t.epoch {
		t.first(s, r, idx, -1, never, it)
		return
	}
	if r.lastWriter == it {
		return // read covered by this iteration's own earlier write
	}
	if it < s.minExposed {
		s.minExposed = it
	}
	if r.read(it) && !t.eager {
		s.flag(idx)
	}
}

// MarkStore records one store, the concrete form of ObserveStore.
func (t *Test) MarkStore(a *mem.Array, idx, iter, vpn int) {
	if a != t.arr {
		return
	}
	s := t.shadows[vpn]
	s.accesses++
	r, it := &s.recs[idx], int64(iter)
	if r.tag != t.epoch {
		t.first(s, r, idx, it, it, never)
		return
	}
	if r.lastWriter != it && r.write(it) && !t.eager {
		s.flag(idx)
	}
}

// MarkLoadRange marks hi-lo loads with one access-counter update; the
// per-element shadow marking is unchanged, so verdicts are identical to
// the element-wise path.
func (t *Test) MarkLoadRange(a *mem.Array, lo, hi, iter, vpn int) {
	if a != t.arr {
		return
	}
	s := t.shadows[vpn]
	s.accesses += int64(hi - lo)
	it := int64(iter)
	for idx := lo; idx < hi; idx++ {
		r := &s.recs[idx]
		if r.tag != t.epoch {
			t.first(s, r, idx, -1, never, it)
			continue
		}
		if r.lastWriter == it {
			continue
		}
		if it < s.minExposed {
			s.minExposed = it
		}
		if r.read(it) && !t.eager {
			s.flag(idx)
		}
	}
}

// MarkStoreRange marks hi-lo stores with one access-counter update.
func (t *Test) MarkStoreRange(a *mem.Array, lo, hi, iter, vpn int) {
	if a != t.arr {
		return
	}
	s := t.shadows[vpn]
	s.accesses += int64(hi - lo)
	it := int64(iter)
	for idx := lo; idx < hi; idx++ {
		r := &s.recs[idx]
		if r.tag != t.epoch {
			t.first(s, r, idx, it, it, never)
			continue
		}
		if r.lastWriter != it && r.write(it) && !t.eager {
			s.flag(idx)
		}
	}
}

type observer struct{ t *Test }

func (o observer) ObserveLoad(a *mem.Array, idx, iter, vpn int)  { o.t.MarkLoad(a, idx, iter, vpn) }
func (o observer) ObserveStore(a *mem.Array, idx, iter, vpn int) { o.t.MarkStore(a, idx, iter, vpn) }
func (o observer) ObserveLoadRange(a *mem.Array, lo, hi, iter, vpn int) {
	o.t.MarkLoadRange(a, lo, hi, iter, vpn)
}
func (o observer) ObserveStoreRange(a *mem.Array, lo, hi, iter, vpn int) {
	o.t.MarkStoreRange(a, lo, hi, iter, vpn)
}

// Result is the verdict of the post-execution analysis.
type Result struct {
	// DOALL: the speculative parallel execution was valid as-is — no
	// cross-iteration flow/anti or output dependences among iterations
	// below the valid bound.
	DOALL bool
	// DOALLWithPriv: valid had the array been privatized (output
	// dependences removed by private copies; still requires no
	// cross-iteration flow/anti dependence).
	DOALLWithPriv bool
	// PrivatizableStrict: the paper's Privatization Criterion holds
	// verbatim — every read was preceded by a same-iteration write, so
	// no copy-in mechanism is needed.
	PrivatizableStrict bool
	// OutputDep: some element was written by two distinct valid
	// iterations.
	OutputDep bool
	// FlowAntiDep: some element was written by one valid iteration and
	// exposed-read by a different valid iteration.
	FlowAntiDep bool
	// FirstViolation is the smallest valid iteration participating in
	// any violated dependence, or -1 when DOALL holds.  For an output
	// dependence on an element that is its earliest writer; for a
	// flow/anti dependence the earlier of the earliest writer and the
	// earliest exposed reader.  Committing iterations strictly below it
	// and undoing the rest is safe: every marked access of a violating
	// element belongs to an iteration at or beyond this bound, so the
	// time-stamped undo (which keys on the per-location *minimum* write
	// stamp) restores every such element in full.
	FirstViolation int
	// Accesses marked during the run (for overhead accounting).
	Accesses int
}

// Analyze runs the post-execution analysis, ignoring all marks made by
// iterations with index >= valid (the time-stamped-marks rule for
// overshooting WHILE loops).  In epoch mode it walks the blocks some
// processor touched this epoch (the union of the block journals) and
// merges element-wise only their suspect and multiply-touched elements;
// the eager oracle scans all n elements as a DOALL over the shadow
// arrays.  Either way the analysis depends only on shadow marks, never
// on array data.
func (t *Test) Analyze(valid int) Result { return t.analyze(valid, true) }

// AnalyzeQuiet is Analyze without recording into the observability
// hooks — for informational re-analysis (e.g. reporting verdicts after
// a fallback has already been decided), so metrics count each protocol
// decision exactly once.
func (t *Test) AnalyzeQuiet(valid int) Result { return t.analyze(valid, false) }

// inlineScan is the worklist size (journaled blocks; elements in eager
// mode) below which the merge runs inline on the caller: spawning a
// worker per processor costs more than merging a strip-sized touched
// set.
const inlineScan = 4096

// verdict is one scan worker's private result: plain fields a worker
// accumulates over its share of the worklist and hands over once, so
// the scan writes nothing shared.
type verdict struct {
	exposed, outputDep, flowAnti bool
	firstViol                    int64
	// merged counts the distinct elements merged.
	merged int
}

func (v *verdict) violation(iter int64) {
	if iter < v.firstViol {
		v.firstViol = iter
	}
}

// add folds another worker's verdict into v.
func (v *verdict) add(o verdict) {
	v.exposed = v.exposed || o.exposed
	v.outputDep = v.outputDep || o.outputDep
	v.flowAnti = v.flowAnti || o.flowAnti
	v.violation(o.firstViol)
	v.merged += o.merged
}

// scanElem merges element e's per-processor marks over shadows[from:] —
// the two smallest distinct writer iterations and exposed-read
// iterations — and folds its verdict into v.  Shadows whose slot is
// stale (untouched this epoch) carry no marks for e; in eager mode
// every tag is pinned live.
func (t *Test) scanElem(e, from int, valid int64, v *verdict) {
	w1, w2, r1, r2 := never, never, never, never
	for _, s := range t.shadows[from:] {
		r := &s.recs[e]
		if r.tag != t.epoch {
			continue
		}
		insert2(&w1, &w2, r.w1)
		insert2(&w1, &w2, r.w2)
		insert2(&r1, &r2, r.r1)
		insert2(&r1, &r2, r.r2)
	}
	v.merged++
	if r1 < valid {
		v.exposed = true
	}
	if w2 < valid {
		v.outputDep = true
		v.violation(w1)
	}
	if w1 < valid && r1 < valid {
		// A flow/anti dependence needs a writer and an exposed reader
		// in different valid iterations.  Only if the sole valid writer
		// and sole valid exposed reader are the same iteration is the
		// element clean.
		clean := w1 == r1 && w2 >= valid && r2 >= valid
		if !clean {
			v.flowAnti = true
			if r1 < w1 {
				v.violation(r1)
			} else {
				v.violation(w1)
			}
		}
	}
}

// worklist is the number of scan positions: every element in eager
// mode, every block-journal entry in epoch mode.
func (t *Test) worklist() int {
	if t.eager {
		return t.arr.Len()
	}
	n := 0
	for _, s := range t.shadows {
		n += len(s.blocks)
	}
	return n
}

// scan merges worklist positions [lo, hi).  In epoch mode the worklist
// is the processors' block journals laid end to end; a block several
// processors touched appears once per journal and is merged only at its
// first appearance — from the lowest-numbered processor that journaled
// it — so the journals need no separate deduplication pass.
func (t *Test) scan(lo, hi int, valid int64) verdict {
	v := verdict{firstViol: never}
	if t.eager {
		for e := lo; e < hi; e++ {
			t.scanElem(e, 0, valid, &v)
		}
		return v
	}
	pos := 0
	for k, s := range t.shadows {
		d := s.blocks
		from, to := lo-pos, hi-pos
		pos += len(d)
		if to <= 0 {
			break
		}
		if from < 0 {
			from = 0
		}
		if to > len(d) {
			to = len(d)
		}
	journal:
		for j := from; j < to; j++ {
			b := int(d[j])
			for _, lower := range t.shadows[:k] {
				if lower.blk[b].tag == t.epoch {
					continue journal
				}
			}
			t.scanBlock(b, k, valid, &v)
		}
	}
	return v
}

// scanBlock folds block b, journaled by shadows[from] and by no lower
// shadow, into v.  Only an element that is suspect on some processor, or
// that two processors touched, can violate; scanElem judges those
// exactly and the rest are only counted.
func (t *Test) scanBlock(b, from int, valid int64, v *verdict) {
	var touched, exact uint64
	for _, s := range t.shadows[from:] {
		if bl := &s.blk[b]; bl.tag == t.epoch {
			exact |= touched&bl.touched | bl.suspect
			touched |= bl.touched
		}
	}
	v.merged += bits.OnesCount64(touched &^ exact)
	for ; exact != 0; exact &= exact - 1 {
		t.scanElem(b<<blockShift+bits.TrailingZeros64(exact), from, valid, v)
	}
}

func (t *Test) analyze(valid int, record bool) Result {
	// The merge is itself fully parallel, whatever the original loop's
	// nature: each processor takes a contiguous share of the worklist
	// and the shares' verdicts are reduced after the join.
	work, p := t.worklist(), len(t.shadows)
	v := verdict{firstViol: never}
	if work <= inlineScan || p == 1 {
		v = t.scan(0, work, int64(valid))
	} else {
		parts := make([]verdict, p)
		// The scan reads marks only; no context to honour, no body to
		// contain.
		_ = sched.ForEachProc(context.Background(), p, sched.ProcConfig{}, func(w int) {
			parts[w] = t.scan(w*work/p, (w+1)*work/p, int64(valid))
		})
		for _, part := range parts {
			v.add(part)
		}
	}
	if !t.eager {
		// scan visits no element for its exposed reads alone.
		for _, s := range t.shadows {
			v.exposed = v.exposed || s.minExposed < int64(valid)
		}
	}

	res := Result{
		DOALL:              !v.outputDep && !v.flowAnti,
		DOALLWithPriv:      !v.flowAnti,
		PrivatizableStrict: !v.exposed,
		OutputDep:          v.outputDep,
		FlowAntiDep:        v.flowAnti,
		FirstViolation:     -1,
		Accesses:           t.Accesses(),
	}
	if v.firstViol != never {
		res.FirstViolation = int(v.firstViol)
	}
	if record {
		// The verdict is computed by merging the per-processor shadow
		// shards element-wise; account that like a stamp-shard merge.
		t.obsM.ShardMergeDone(p, v.merged)
		t.obsM.RecordPD(obs.PDVerdict{
			Array: t.arr.Name, DOALL: res.DOALL, DOALLWithPriv: res.DOALLWithPriv, Accesses: res.Accesses,
		})
		if t.obsT != nil {
			obs.Instant(t.obsT, "pd-test", "pdtest", 0, map[string]any{
				"array": t.arr.Name, "doall": res.DOALL, "priv": res.DOALLWithPriv, "accesses": res.Accesses,
			})
		}
	}
	return res
}

// Reset clears all marks for reuse across strips (Section 5.1 suggests
// strip-mining and running the PD test on each strip when the terminator
// itself depends on a variable with unknown dependences).  In epoch mode
// this is one generation bump plus journal truncation — O(procs), not
// O(procs x n); the eager oracle pays the full sweep.
func (t *Test) Reset() {
	if t.eager {
		for _, s := range t.shadows {
			s.sweep()
		}
	} else {
		t.nextEpoch()
		for _, s := range t.shadows {
			s.blocks, s.minExposed = s.blocks[:0], never
		}
	}
	for _, s := range t.shadows {
		s.accesses = 0
	}
}
