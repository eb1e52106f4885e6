package sched

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"whilepar/internal/cancel"
	"whilepar/internal/obs"
)

// Claim is the shared state of one self-scheduled execution: the
// paper's DOALL with in-order issue and QUIT (Section 3.1), from which
// every method of Section 3 is built.  The DOALL schedules here,
// General-1/2/3 and DOACROSS all run on it.  It holds
//
//   - the stop signal (cancel.Stop): a canceled context, an expired
//     deadline or a contained panic;
//   - the QUIT minimum, the smallest index that signalled Quit;
//   - the first contained panic, with iteration, vpn and stack;
//   - each worker's private record (Worker): issued and executed
//     counts and the tail it owes — the unexecuted rest of the chunk it
//     abandoned;
//   - the claim cursor: one for Dynamic, Guided and InOrder issue, one
//     per home block for Stealing, none for Static (worker k owns
//     k, k+p, ... from the start).
//
// The iteration path writes nothing shared: what ran is recovered after
// the join from the workers' records and the cursors (Account).
type Claim struct {
	// stop and quit are read before every iteration and written a
	// handful of times per execution.
	stop    cancel.Stop
	quit    atomic.Int64
	panicAt atomic.Pointer[cancel.PanicError]

	// next is the issue cursor.  Every claim writes it, so padding keeps
	// it at least a line away from stop and quit, and a full line from
	// the fields every claim reads, whatever the struct's alignment.
	_    [56]byte
	next atomic.Int64
	_    [64]byte

	n, p     int
	schedule Schedule
	m        *obs.Metrics
	release  func() bool
	workers  []Worker

	// Stealing: one claim cursor per home block.
	blocks []blockCursor
}

// InOrder is the issue of General-1 and DOACROSS: one iteration per
// claim, so iterations start in index order.  It is not a DOALL
// schedule (Validate rejects it); NewClaim accepts it.
const InOrder Schedule = -1

// blockCursor is one Stealing block's claim cursor and end, padded to a
// cache line so the p cursors — each written by its home worker on the
// common balanced path — never false-share.
type blockCursor struct {
	c   atomic.Int64
	end int
	_   [48]byte
}

// Worker is one virtual processor's private record in a Claim, written
// only by its worker and one cache line long, so that no two workers'
// records share a line.
type Worker struct {
	// Issued and Executed count the iterations claimed and the ones
	// whose body completed.
	Issued, Executed int
	// hole is the unexecuted tail — indices lo, lo+stride, ... below
	// hi — of the chunk this worker abandoned last.
	hole struct{ lo, hi, stride int }
	// left counts down the iterations the worker may begin before its
	// next poll (Span).
	left  int
	chunk Geometric
}

// NewClaim sets up an execution of iterations [0, n) on p workers with
// the given issue, and arms its stop signal for ctx.  A ctx that is
// already done is reported here, before any worker starts; otherwise
// Close must be called once the execution is over.
func NewClaim(ctx context.Context, n, p int, s Schedule, m *obs.Metrics) (*Claim, error) {
	if err := cancel.Err(ctx); err != nil {
		m.CtxCancel()
		return nil, err
	}
	c := &Claim{n: n, p: p, schedule: s, m: m, workers: make([]Worker, p)}
	c.quit.Store(int64(n))
	m.SizeVPNs(p)
	chunk := NewGeometric(n, p)
	switch s {
	case InOrder:
		chunk.max = 1
	case Static:
		c.next.Store(int64(n))
	case Stealing:
		c.blocks = make([]blockCursor, p)
		span := (n + p - 1) / p
		for k := range c.blocks {
			c.blocks[k].c.Store(int64(k * span))
			c.blocks[k].end = min((k+1)*span, n)
		}
	}
	c.release = c.stop.Watch(ctx)
	for k := range c.workers {
		c.workers[k].chunk = chunk
	}
	return c, nil
}

// Close disarms the context watcher.
func (c *Claim) Close() { c.release() }

// Worker returns worker vpn's record.
func (c *Claim) Worker(vpn int) *Worker { return &c.workers[vpn] }

// Go is the per-iteration check, two atomic loads inlined into the
// engines' loops: an iteration i may begin unless the execution was
// stopped or a QUIT below i has been posted.
func (c *Claim) Go(i int) bool {
	return !c.stop.Stopped() && int64(i) <= c.quit.Load()
}

// Span returns the end of the run of iterations lo, lo+stride, ...
// below hi (hi > lo) that w may begin before its next poll of the
// context, polling first when one is due — before w's first iteration
// and after every cancel.PollEvery — and counts the run against w's
// countdown.  Engines call it once per run, outside the per-iteration
// path; without a context to poll the run is the whole range.
func (c *Claim) Span(w *Worker, lo, hi, stride int) int {
	if w.left == 0 {
		w.left = c.stop.Poll()
	}
	n := (hi-lo-1)/stride + 1
	if n > w.left {
		n, hi = w.left, lo+w.left*stride
	}
	w.left -= n
	return hi
}

// Next claims w's next chunk [lo, hi) from the cursor: Geometric sizes
// for Dynamic, ceil(remaining/(2p)) for Guided, 1 for InOrder.  It
// claims nothing, reporting false, once the space is exhausted, the
// execution is stopped or a QUIT below the cursor has been posted —
// every index still unclaimed is then dead work.
func (c *Claim) Next(w *Worker) (lo, hi int, ok bool) {
	return c.claim(w, &c.next, int64(c.n))
}

// NextIn is Next on Stealing block b.
func (c *Claim) NextIn(w *Worker, b int) (lo, hi int, ok bool) {
	return c.claim(w, &c.blocks[b].c, int64(c.blocks[b].end))
}

func (c *Claim) claim(w *Worker, cursor *atomic.Int64, end int64) (lo, hi int, ok bool) {
	for {
		cur := cursor.Load()
		if c.stop.Stopped() || cur >= end || cur > c.quit.Load() {
			return 0, 0, false
		}
		size := w.chunk.Size
		if c.schedule == Guided {
			size = (end - cur + int64(2*c.p) - 1) / int64(2*c.p)
		}
		size = min(size, end-cur)
		if cursor.CompareAndSwap(cur, cur+size) {
			w.chunk.Grow()
			w.Issued += int(size)
			return int(cur), int(cur + size), true
		}
	}
}

// Owe records that w abandoned the indices lo, lo+stride, ... below hi.
// Only a worker's last abandoned tail can hold indices below the final
// QUIT (see Account), so each call replaces the previous one.
func (w *Worker) Owe(lo, hi, stride int) {
	w.hole.lo, w.hole.hi, w.hole.stride = lo, hi, stride
}

// Quit posts iteration i's QUIT: the quit index becomes min(itself, i).
func (c *Claim) Quit(i int) {
	for {
		cur := c.quit.Load()
		if int64(i) >= cur || c.quit.CompareAndSwap(cur, int64(i)) {
			return
		}
	}
}

// Panic contains a panic with value r recovered from iteration i's body
// on worker vpn: the first one is kept, with the stack, and the
// execution is stopped.
func (c *Claim) Panic(i, vpn int, r any) {
	c.panicked(&cancel.PanicError{Iter: i, VPN: vpn, Value: r, Stack: debug.Stack()})
}

func (c *Claim) panicked(pe *cancel.PanicError) {
	if c.panicAt.CompareAndSwap(nil, pe) {
		c.m.WorkerPanic()
	}
	c.stop.Set()
}

// Run runs fn on the claim's workers — on pool when one is given, else
// on goroutines of their own — and waits.  A panic escaping fn (the
// engines contain their bodies' panics themselves) is kept as the
// execution's panic.
func (c *Claim) Run(pool *Pool, fn func(vpn int)) {
	if err := dispatch(pool, c.p, c.m, fn); err != nil {
		if pe, ok := cancel.AsPanic(err); ok {
			c.panicked(pe)
		}
	}
}

// dispatch runs fn(vpn) for vpn in [0, p) on pool (one barrier release;
// p must not exceed its size) or on p fresh goroutines, and waits.  It
// returns the pool's contained panic, if any.
func dispatch(pool *Pool, p int, m *obs.Metrics, fn func(vpn int)) error {
	if pool != nil {
		m.PoolDispatch(p)
		return pool.Run(func(vpn int) {
			if vpn < p {
				fn(vpn)
			}
		})
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for k := 0; k < p; k++ {
		go func(vpn int) {
			defer wg.Done()
			fn(vpn)
		}(k)
	}
	wg.Wait()
	return nil
}

// Err is the execution's outcome after the join: the first contained
// panic, else the wrapped context error, else nil.
func (c *Claim) Err() error {
	if pe := c.panicAt.Load(); pe != nil {
		return pe
	}
	if err := c.stop.Err(); err != nil {
		c.m.CtxCancel()
		return err
	}
	return nil
}

// Account computes the Result after the join, exactly, from O(p) state,
// and flushes the workers' counts into the Metrics.  Every index is in
// one of three places: executed; in the tail of a chunk its worker
// abandoned; or never claimed (at or beyond a claim cursor).  A worker
// abandons a chunk either because of a QUIT below the tail — the tail
// then lies wholly above the final quit index, since the quit index
// only decreases — or because the execution was stopped, after which it
// claims nothing more; so each worker's last abandoned tail is the only
// one that can hold indices below the final quit index.  The holes below
// it are therefore the last tails plus the unclaimed ranges, both
// clipped to the quit index: what is below it and not a hole ran
// exactly once, and the rest of what ran is overshoot.
func (c *Claim) Account() Result {
	q := int(c.quit.Load())
	executed, issued, firstHole, holesBelow := 0, 0, c.n, 0
	hole := func(lo, hi, stride int) {
		if lo >= hi {
			return
		}
		firstHole = min(firstHole, lo)
		if hi = min(hi, q); lo < hi {
			holesBelow += (hi-lo-1)/stride + 1
		}
	}
	for vpn := range c.workers {
		w := &c.workers[vpn]
		executed += w.Executed
		issued += w.Issued
		c.m.IterExecutedN(vpn, w.Executed)
		hole(w.hole.lo, w.hole.hi, w.hole.stride)
	}
	c.m.IterIssued(issued)
	for b := range c.blocks {
		hole(int(c.blocks[b].c.Load()), c.blocks[b].end, 1)
	}
	if c.blocks == nil {
		hole(int(c.next.Load()), c.n, 1)
	}
	below := min(q, c.n)
	return Result{
		Executed:  executed,
		QuitIndex: q,
		Overshot:  executed - (below - holesBelow),
		Prefix:    min(below, firstHole),
	}
}

// Geometric is the one chunk-size policy of the self-scheduled claims
// (Dynamic and Stealing here, General-3 in genrec): a worker's claim
// Size doubles from 1 up to min(cancel.PollEvery, n/(8p)), which keeps
// ~8 chunks per worker available for balance and never lets a chunk
// outlast one poll interval; an unknown n gets cancel.PollEvery.
type Geometric struct{ Size, max int64 }

// NewGeometric starts the sequence for n iterations on p workers.
func NewGeometric(n, p int) Geometric {
	return Geometric{Size: 1, max: max(1, min(cancel.PollEvery, int64(n/(8*p))))}
}

// Grow doubles Size, up to the cap.
func (g *Geometric) Grow() {
	g.Size = min(2*g.Size, g.max)
}
