package pdtest

import (
	"testing"
	"unsafe"
)

// The packed shadow record must stay 48 bytes — five int64 slots plus
// the epoch tag and explicit padding — so it spans at most one cache
// line and a first-touch mark never fans out across parallel arrays.
func TestPackedShadowLayout(t *testing.T) {
	if got := unsafe.Sizeof(pdRec{}); got != 48 {
		t.Fatalf("packed shadow record is %d bytes, want 48", got)
	}
	if got := unsafe.Alignof(pdRec{}); got != 8 {
		t.Fatalf("packed shadow record alignment is %d, want 8", got)
	}
	var r pdRec
	if off := unsafe.Offsetof(r.tag); off != 40 {
		t.Fatalf("epoch tag at offset %d, want 40", off)
	}
	// Every mark writes its worker's shadow (the access counter; the
	// block journal's slice header on a block's first touch).  Shadows
	// are allocated one by one, so a size that is a whole number of
	// cache lines keeps two workers' shadows off a shared line; at 160
	// or 176 bytes the pinned speculative engine measured 40% slower.
	if got := unsafe.Sizeof(shadow{}); got%64 != 0 {
		t.Fatalf("shadow is %d bytes, not a multiple of the 64-byte cache line", got)
	}
}
