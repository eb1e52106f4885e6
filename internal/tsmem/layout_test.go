package tsmem

import (
	"testing"
	"unsafe"
)

// The packed layout's whole point is that one shadow record is exactly
// 16 bytes — four per cache line, stamp and epoch tag never split
// across lines.  Pin the size and alignment so an innocent-looking
// field addition (or reordering that introduces padding) fails fast
// instead of silently doubling the shadow footprint.
func TestPackedRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(rec{}); got != 16 {
		t.Fatalf("packed record is %d bytes, want 16", got)
	}
	if got := unsafe.Alignof(rec{}); got != 8 {
		t.Fatalf("packed record alignment is %d, want 8", got)
	}
	var r rec
	if off := unsafe.Offsetof(r.epoch); off != 8 {
		t.Fatalf("epoch tag at offset %d, want 8 (same line as stamp)", off)
	}
	// One block's dirty bitmap must be exactly one uint64, and the
	// shift/mask must agree with the size.
	if blockSize != 64 {
		t.Fatalf("blockSize %d does not fit a single uint64 bitmap", blockSize)
	}
	if blockSize != 1<<blockShift {
		t.Fatalf("blockShift %d inconsistent with blockSize %d", blockShift, blockSize)
	}
	if blockMask != blockSize-1 {
		t.Fatalf("blockMask %d inconsistent with blockSize %d", blockMask, blockSize)
	}
	// A worker appends to its shard's block journal once per 64
	// first-touch stores, rewriting the slice header inside the shard.
	// Shards are allocated one by one, so a size that is a whole number
	// of cache lines keeps that write off the line a neighbouring
	// worker reads its own shard's headers from.
	if got := unsafe.Sizeof(shard{}); got%64 != 0 {
		t.Fatalf("shard is %d bytes, not a multiple of the 64-byte cache line", got)
	}
}
