package arena

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestRoundTripSizes(t *testing.T) {
	a := Float64s(1024)
	if len(a) != 1024 {
		t.Fatalf("Float64s(1024) len = %d", len(a))
	}
	for i := range a {
		a[i] = float64(i)
	}
	PutFloat64s(a)
	// A larger request after recycling a smaller buffer must still be
	// correctly sized.
	b := Float64s(4096)
	if len(b) != 4096 {
		t.Fatalf("Float64s(4096) len = %d", len(b))
	}
	PutFloat64s(b)

	s := Int64s(256)
	if len(s) != 256 {
		t.Fatalf("Int64s(256) len = %d", len(s))
	}
	PutInt64s(s)
}

func TestUint32sZeroedAfterReuse(t *testing.T) {
	tags := Uint32sZeroed(512)
	for i := range tags {
		tags[i] = 7
	}
	PutUint32s(tags)
	// Whatever buffer comes back — recycled or fresh — must read as
	// all-stale.
	again := Uint32sZeroed(512)
	for i, v := range again {
		if v != 0 {
			t.Fatalf("reused tag[%d] = %d, want 0", i, v)
		}
	}
	PutUint32s(again)
}

func TestIntsComeBackEmpty(t *testing.T) {
	d := Ints(64)
	if len(d) != 0 || cap(d) < 64 {
		t.Fatalf("Ints(64): len=%d cap=%d", len(d), cap(d))
	}
	d = append(d, 1, 2, 3)
	PutInts(d)
	e := Ints(16)
	if len(e) != 0 {
		t.Fatalf("recycled journal has len %d, want 0", len(e))
	}
	PutInts(e)
}

func TestNilPutsAreNoOps(t *testing.T) {
	PutFloat64s(nil)
	PutInt64s(nil)
	PutUint32s(nil)
	PutInts(nil)
}

// A pool of its own, so that what other tests recycle cannot answer.
func TestSmallRequestNeverConsumesLargeBuffer(t *testing.T) {
	sp := NewSlicePool[int]()
	big := sp.GetCap(1 << 18)
	big = append(big, 1, 2, 3)
	sp.Put(big)

	small := sp.GetCap(64)
	if cap(small) >= 1<<18 {
		t.Fatalf("GetCap(64) popped the %d-element buffer", cap(small))
	}
	sp.Put(small)

	// The large buffer is still there for a request of its class (unless
	// the collector emptied the pool, in which case a fresh one is just
	// as large).
	again := sp.GetCap(1<<17 + 1)
	if cap(again) < 1<<18 || len(again) != 0 {
		t.Fatalf("GetCap(1<<17+1): len=%d cap=%d, want an empty buffer of the 1<<18 class", len(again), cap(again))
	}
}

func TestMixedSizesRoundTrip(t *testing.T) {
	sp := NewSlicePool[float64]()
	sizes := []int{1, 63, 64, 65, 1000, 4096, 4097, 100000}
	for round := 0; round < 3; round++ {
		var held [][]float64
		for _, n := range sizes {
			s := sp.Get(n)
			if len(s) != n || cap(s) != ClassCap(n) {
				t.Fatalf("round %d: Get(%d): len=%d cap=%d, want len %d cap %d", round, n, len(s), cap(s), n, ClassCap(n))
			}
			for i := range s {
				s[i] = float64(n)
			}
			held = append(held, s)
		}
		for _, s := range held {
			sp.Put(s)
		}
	}
	// A zeroed request must read as zeros whichever buffer serves it.
	for _, n := range sizes {
		for i, v := range sp.GetZeroed(n) {
			if v != 0 {
				t.Fatalf("GetZeroed(%d)[%d] = %v", n, i, v)
			}
		}
	}
}

func TestGrownBufferServesTheClassItReaches(t *testing.T) {
	// A buffer append grew to a capacity that is no power of two goes to
	// the class below it, whose every request it can serve.
	sp := NewSlicePool[int]()
	sp.Put(make([]int, 0, 100000))
	if s := sp.GetCap(1 << 16); cap(s) < 1<<16 {
		t.Fatalf("GetCap(1<<16) got cap %d", cap(s))
	}
}

func TestObjectPoolRoundTrip(t *testing.T) {
	type shadow struct {
		recs  []int64
		epoch uint32
	}
	var p Pool[shadow]
	if p.Get(1000) != nil {
		t.Fatal("empty pool returned an object")
	}
	in := &shadow{recs: make([]int64, ClassCap(1000)), epoch: 7}
	p.Put(cap(in.recs), in)
	if got := p.Get(64); got != nil {
		t.Fatalf("a 64-element request took the %d-element object", cap(got.recs))
	}
	// The state rides along with the buffers.
	if got := p.Get(600); got != nil && (got != in || got.epoch != 7) {
		t.Fatalf("Get(600) = %+v, want the pooled object with its epoch", got)
	}
}

func TestAppendIntsGrowsThroughThePool(t *testing.T) {
	var s []int
	for i := 0; i < 1000; i++ {
		s = AppendInts(s, []int{i, i})
	}
	if len(s) != 2000 {
		t.Fatalf("len = %d, want 2000", len(s))
	}
	for i, v := range s {
		if v != i/2 {
			t.Fatalf("s[%d] = %d, want %d", i, v, i/2)
		}
	}
	if c := cap(s); c&(c-1) != 0 {
		t.Fatalf("cap %d is not a size class: growth bypassed the pool", c)
	}
	PutInts(s)
}

// A large buffer any goroutine put back must serve the next Get of its
// class, whichever P asks: in a sync.Pool it could idle in the putting
// P's private slot while the Get missed and allocated.
func TestLargeGetNeverMissesWhileABufferIsIdle(t *testing.T) {
	const n, workers = 1 << 15, 8
	type shadow struct{ recs []int64 }
	var p Pool[shadow]
	put := map[*shadow]bool{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread() // spread the Puts over the Ps
			defer runtime.UnlockOSThread()
			s := &shadow{recs: make([]int64, ClassCap(n))}
			mu.Lock()
			put[s] = true
			mu.Unlock()
			p.Put(cap(s.recs), s)
		}()
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		s := p.Get(n)
		if s == nil {
			t.Fatalf("Get %d of %d missed with %d buffers idle", i+1, workers, workers-i)
		}
		if !put[s] {
			t.Fatal("Get returned an object nobody put")
		}
		delete(put, s)
	}
	if p.Get(n) != nil {
		t.Fatal("an empty class returned an object")
	}
}

// idle counts the objects a large class holds.
func (f *freeList[T]) idle() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.items)
}

// What nobody takes for two collection cycles goes back to the runtime;
// what is taken and put back in between stays.
func TestLargeBuffersAgeOutAfterTwoCollections(t *testing.T) {
	const n = 1 << 14
	var p Pool[[]float64]
	list := &p.large[classOf(n)-largeClass]
	fresh := func() *[]float64 { b := make([]float64, ClassCap(n)); return &b }

	// waitCycle forces one collection and waits for the sweep behind it.
	waitCycle := func() {
		t.Helper()
		before := gcCycle.Load()
		for deadline := time.Now().Add(5 * time.Second); gcCycle.Load() == before; {
			if time.Now().After(deadline) {
				t.Fatal("the collection-cycle clock does not advance")
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}

	// stillIdle fails when the buffer put back at cycle putAt is gone
	// before two cycles have passed.  The count is read first: if fewer
	// than two cycles show afterwards, fewer had swept when it was read.
	stillIdle := func(putAt uint32, when string) {
		t.Helper()
		if n, now := list.idle(), gcCycle.Load(); now-putAt < 2 && n != 1 {
			t.Fatalf("%s: idle = %d, %d cycle(s) after the Put", when, n, now-putAt)
		}
	}

	putAt := gcCycle.Load()
	p.Put(ClassCap(n), fresh())
	waitCycle()
	stillIdle(putAt, "after one collection")
	// Used in between: the age starts over.
	if b := p.Get(n); b != nil {
		putAt = gcCycle.Load()
		p.Put(cap(*b), b)
		waitCycle()
		stillIdle(putAt, "one collection after being used")
	}
	// Untouched from here on: gone within a few cycles (the forced
	// collections may outrun the sweeps by one).
	for i := 0; i < 4 && list.idle() > 0; i++ {
		waitCycle()
	}
	if list.idle() != 0 {
		t.Fatalf("an idle buffer survived the sweeps (idle = %d)", list.idle())
	}
	if p.Get(n) != nil {
		t.Fatal("Get returned a swept buffer")
	}
}
