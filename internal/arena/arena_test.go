package arena

import "testing"

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
