// Package arena pools the large flat slices the speculative machinery
// allocates per engine invocation — checkpoint copies, stamp shards,
// epoch tags, PD shadow marks.  A strip-mined run used to pay a fresh
// O(procs x n) allocation (and the runtime's implied zeroing) for every
// engine construction; recycling the buffers turns that into a size
// check and, where staleness matters, one memclr.
//
// Pools are size-classed: every buffer lives in the bucket of the power
// of two its capacity reaches, and a request is served only from the
// bucket of the power of two that covers it.  A 64-element journal
// request therefore never pops (and truncates) a 2 MB buffer, and a
// short recycled buffer is never dropped because a long one was asked
// for.  Fresh allocations are rounded up to their class's capacity so
// they serve the same class again; the rounded-up tail is never touched
// and so never becomes resident.
//
// Contract: slices handed out by the non-zeroed getters carry arbitrary
// stale content.  Callers must either fully overwrite them before
// reading (checkpoint copies, stamp shards behind epoch tags) or
// request the zeroed variant.  Returning a slice via its Put function
// transfers ownership back — the caller must not retain a reference.
//
// Small classes sit in sync.Pools.  A sync.Pool keeps what a goroutine
// puts in a slot private to its P, so a Get from another P misses while
// the buffer idles; for a 64-element journal that costs nothing, for a
// 256 KiB shadow it is the whole point of pooling lost.  Classes of
// largeClass and up therefore share one free list per class, which any
// P's Get pops.  Both age by garbage-collection cycle — what nobody
// took for two cycles is dropped — so an idle process gives the memory
// back and nothing here can pin a buffer.
package arena

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// minClass is the smallest size class (64 elements): requests below it
// share one bucket, so tiny journals do not scatter over six pools.
const minClass = 6

// numClasses covers every capacity an int can express.
const numClasses = bits.UintSize

// classOf returns the size class that serves a request for n elements:
// the smallest c >= minClass with 1<<c >= n.
func classOf(n int) int {
	if n <= 1<<minClass {
		return minClass
	}
	return bits.Len(uint(n - 1))
}

// ClassCap returns the capacity a fresh buffer for n elements is
// allocated with: n rounded up to its size class.
func ClassCap(n int) int { return 1 << classOf(n) }

// largeClass is the first size class kept on a shared free list: 8192
// elements, 64 KiB of 8-byte words.
const largeClass = 13

// Pool is a size-classed pool of objects that each own buffers of some
// capacity — the shape a shadow or shard needs when it must come back
// together with state describing its buffers (the last epoch its tags
// were written under), which a bare slice cannot carry.  A Pool is
// meant to live as long as the process (a package-level variable): the
// collector's sweep keeps a reference to every Pool that ever held a
// large object.
type Pool[T any] struct {
	classes [largeClass]sync.Pool
	large   [numClasses - largeClass]freeList[T]
	watched sync.Once
}

// Get returns a pooled object whose capacity is at least ClassCap(n),
// or nil when the class is empty.
func (p *Pool[T]) Get(n int) *T {
	c := classOf(n)
	if c >= largeClass {
		return p.large[c-largeClass].get()
	}
	v, _ := p.classes[c].Get().(*T)
	return v
}

// Put recycles an object whose buffers hold capacity elements.
// Objects smaller than the smallest class are dropped.
func (p *Pool[T]) Put(capacity int, v *T) {
	if capacity < 1<<minClass {
		return
	}
	// The bucket of the largest power of two the capacity reaches:
	// everything in bucket c can serve any request of class c.
	c := bits.Len(uint(capacity)) - 1
	if c >= largeClass {
		p.watched.Do(func() { watch(p) })
		p.large[c-largeClass].put(v, gcCycle.Load())
		return
	}
	p.classes[c].Put(v)
}

// sweep drops every large object nobody took for two collection cycles.
func (p *Pool[T]) sweep(now uint32) {
	for i := range p.large {
		p.large[i].sweep(now)
	}
}

// freeList is one large class's idle objects, oldest first: Put appends,
// Get pops the newest (the one likeliest still in cache), and the sweep
// drops from the front.
type freeList[T any] struct {
	mu    sync.Mutex
	items []aged[T]
}

// aged is an idle object and the collection cycle it was put back in.
type aged[T any] struct {
	v     *T
	cycle uint32
}

func (f *freeList[T]) get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.items)
	if n == 0 {
		return nil
	}
	v := f.items[n-1].v
	f.items[n-1] = aged[T]{}
	f.items = f.items[:n-1]
	return v
}

func (f *freeList[T]) put(v *T, cycle uint32) {
	f.mu.Lock()
	f.items = append(f.items, aged[T]{v: v, cycle: cycle})
	f.mu.Unlock()
}

func (f *freeList[T]) sweep(now uint32) {
	f.mu.Lock()
	defer f.mu.Unlock()
	stale := 0
	for stale < len(f.items) && now-f.items[stale].cycle >= 2 {
		stale++
	}
	if stale == 0 {
		return
	}
	kept := copy(f.items, f.items[stale:])
	clear(f.items[kept:])
	f.items = f.items[:kept]
}

// The collection-cycle clock behind the free lists' ageing: a sentinel
// object whose finalizer runs once per cycle, advances gcCycle, sweeps
// every watched pool and re-arms itself.  (runtime.ReadMemStats also
// counts cycles, but stops the world to do it.)
var (
	gcCycle   atomic.Uint32
	gcWatch   sync.Once
	watchedMu sync.Mutex
	watched   []sweeper
)

// sweeper is a Pool of any element type, as the clock sees it.
type sweeper interface{ sweep(now uint32) }

// gcSentinel holds a pointer so the runtime allocates it on its own and
// runs its finalizer promptly (pointer-free tiny objects are batched).
type gcSentinel struct{ _ *byte }

func gcTick(s *gcSentinel) {
	now := gcCycle.Add(1)
	watchedMu.Lock()
	pools := watched
	watchedMu.Unlock()
	for _, p := range pools {
		p.sweep(now)
	}
	runtime.SetFinalizer(s, gcTick)
}

// watch enrols a pool in the per-cycle sweep and starts the clock on
// first use.
func watch(p sweeper) {
	watchedMu.Lock()
	// Copy on write: gcTick iterates the slice it read without the lock.
	watched = append(watched[:len(watched):len(watched)], p)
	watchedMu.Unlock()
	gcWatch.Do(func() { runtime.SetFinalizer(&gcSentinel{}, gcTick) })
}

// SlicePool is a size-classed pool of []T buffers.  Each instantiation
// owns its own buckets, so buffers of different element types never
// mix.  Get/GetCap hand out arbitrary stale content, GetZeroed hands
// out zeros, and Put transfers ownership back.
type SlicePool[T any] struct{ p Pool[[]T] }

// NewSlicePool returns an empty pool for []T buffers.
func NewSlicePool[T any]() *SlicePool[T] { return &SlicePool[T]{} }

// get returns a buffer of capacity >= n and whether it was recycled.
func (sp *SlicePool[T]) get(n int) ([]T, bool) {
	if b := sp.p.Get(n); b != nil {
		return *b, true
	}
	return make([]T, ClassCap(n)), false
}

// Get returns a length-n slice with arbitrary content.
func (sp *SlicePool[T]) Get(n int) []T {
	s, _ := sp.get(n)
	return s[:n]
}

// GetZeroed returns a length-n slice of zero values.
func (sp *SlicePool[T]) GetZeroed(n int) []T {
	s, recycled := sp.get(n)
	s = s[:n]
	if recycled {
		clear(s)
	}
	return s
}

// GetCap returns a length-0 slice with at least the given capacity —
// the append-only journal shape.
func (sp *SlicePool[T]) GetCap(capacity int) []T {
	s, _ := sp.get(capacity)
	return s[:0]
}

// Put recycles a slice obtained from any of the getters (or grown from
// one by append).  nil is a no-op.
func (sp *SlicePool[T]) Put(s []T) {
	if s == nil {
		return
	}
	sp.p.Put(cap(s), &s)
}

// The predeclared pools, one per element type the engines share.
var (
	float64s = NewSlicePool[float64]()
	int64s   = NewSlicePool[int64]()
	uint32s  = NewSlicePool[uint32]()
	ints     = NewSlicePool[int]()
)

// Float64s returns a length-n slice with arbitrary content.
func Float64s(n int) []float64 { return float64s.Get(n) }

// PutFloat64s recycles a slice obtained from Float64s.  nil is a no-op.
func PutFloat64s(s []float64) { float64s.Put(s) }

// Int64s returns a length-n slice with arbitrary content.
func Int64s(n int) []int64 { return int64s.Get(n) }

// PutInt64s recycles a slice obtained from Int64s.  nil is a no-op.
func PutInt64s(s []int64) { int64s.Put(s) }

// Uint32sZeroed returns a length-n slice of zeros — the "stale before
// any epoch" state generation-tag consumers require on first use.
func Uint32sZeroed(n int) []uint32 { return uint32s.GetZeroed(n) }

// PutUint32s recycles a slice obtained from Uint32sZeroed.  nil is a
// no-op.
func PutUint32s(s []uint32) { uint32s.Put(s) }

// Ints returns a length-0 slice with at least the given capacity —
// the shape dirty-index journals want (append-only, truncated on
// reset).
func Ints(capacity int) []int { return ints.GetCap(capacity) }

// PutInts recycles a slice obtained from Ints.  nil is a no-op.
func PutInts(s []int) { ints.Put(s) }

// AppendInts appends src to dst like the built-in, except that growth
// goes through the pool: the larger buffer (with room to double) comes
// from it and dst goes back to it.  Buffers the built-in had grown would
// be recycled into size classes nothing asks for; these land in the
// classes the next run's growth steps request.
func AppendInts(dst, src []int) []int {
	if need := len(dst) + len(src); need > cap(dst) {
		grown := append(Ints(2*need), dst...)
		PutInts(dst)
		dst = grown
	}
	return append(dst, src...)
}
