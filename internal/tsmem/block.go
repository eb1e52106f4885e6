// Block-journaled, cache-packed stamp layout — the default first-touch
// bookkeeping of a sharded Memory.
//
// The element-journal layout (the JournalElement oracle) spreads one
// stamped store's bookkeeping over three unrelated allocations: the
// stamp word, its epoch tag, and an append to the shard's dirty-index
// journal.  A first touch therefore dirties three cache lines (plus the
// data word), and the journal append's bounds check + possible grow sit
// on the hottest path in the package.
//
// The packed layout collapses the per-element state into one 16-byte
// array-of-structs record — stamp (8B) + epoch tag (4B) + flags (4B,
// carrying the journaled bit in what would otherwise be padding) — so
// the stamp word and its liveness tag always share a cache line (four
// records per 64-byte line).  The per-element journal is replaced by
// per-block range journaling: elements are grouped into fixed 64-element
// blocks, each block has one epoch-tagged dirty bitmap (a single
// uint64), and the journal records each block id once per epoch.  A
// first-touch store then touches the record's line and the block line —
// two lines instead of three-plus — and the journal append happens only
// once per 64-element block instead of once per element.  Batched
// StoreRange marks whole blocks with O(blocks) bitmap ORs.
//
// Everything downstream (merge, Undo, PartialCommit, WriteSet) works
// per journaled block.  The post-barrier merge only deduplicates the
// block journals and ORs the bitmaps: there is no merged stamp array.
// Undo and PartialCommit take each location's cross-shard minimum from
// the shards as they go, and each shard keeps, per block, an upper
// bound on the stamps it recorded there — so a block no shard stamped
// at or above the bound is skipped without reading a record, and a
// clean run's undo costs O(touched blocks) plus the overshot stores.
// Undo stays element-granular *within* a block — each set bit's
// minimum stamp is compared individually — which is what keeps the
// stamp-threshold contract intact: a sub-threshold store is neither
// stamped nor bitmap-marked, so a block-level restore can never clobber
// it (see TestThresholdStoreSurvivesBlockUndo).
package tsmem

import (
	"math/bits"
	"sync/atomic"

	"whilepar/internal/arena"
	"whilepar/internal/mem"
)

// Journal selects the first-touch bookkeeping layout of a sharded
// Memory.  The zero value is the packed block layout.
type Journal uint8

const (
	// JournalBlock packs stamp + epoch + journaled bit into one
	// 16-byte record and journals dirty 64-element blocks (bitmap +
	// block id) instead of individual element indices.  The default.
	JournalBlock Journal = iota
	// JournalElement keeps the prior layout — parallel stamp and
	// epoch-tag arrays plus per-element dirty-index journals —
	// retained as the equivalence oracle.
	JournalElement
)

const (
	// blockShift/blockSize/blockMask define the journaling granule:
	// 64 elements, so one block's dirty bitmap is exactly one uint64
	// and one block's worth of float64 data is 8 cache lines.  Smaller
	// blocks would journal more ids per strip; larger ones would need
	// multi-word bitmaps and make the merge's bit scan less dense.
	blockShift = 6
	blockSize  = 1 << blockShift
	blockMask  = blockSize - 1
)

// rec is the packed per-element shadow record: the minimum writing
// iteration, the stamp generation that wrote it, and a flags word
// occupying what would otherwise be struct padding.  Exactly 16 bytes
// (pinned by TestPackedRecordLayout) so four records share a cache
// line and stamp + tag can never split across lines.
type rec struct {
	stamp int64
	epoch uint32
	flags uint32
}

// recJournaled marks a record first-touched in its epoch.  The block
// bitmap is the authoritative journal; the bit exists so a record is
// self-describing when inspected on its own.
const recJournaled = 1 << 0

// numBlocks returns how many journaling blocks cover n elements.
func numBlocks(n int) int { return (n + blockMask) >> blockShift }

// Pools for the packed layout's merge scratch; stale content is fine
// (the union bitmaps are rebuilt per merge for exactly the blocks read).
var (
	uint64Pool = arena.NewSlicePool[uint64]()
	int32Pool  = arena.NewSlicePool[int32]()
)

// block is one 64-element block's journal state in one shard, live only
// while tag equals the Memory's current epoch.
type block struct {
	// bits has a bit per location the shard stamped this epoch.
	bits uint64
	// max bounds the shard's stamps in the block from above: the
	// largest first-touch stamp, which a later, lower stamp on the same
	// location (the record keeps the minimum) can only undercut.
	max int64
	tag uint32
}

// shard is one worker's slice of the packed layout for one array: the
// records, the per-block journal state and the block journal.  It is
// pooled whole, with the last epoch it was used under, so a Memory that
// takes it starts one epoch later and clears nothing — every record and
// block tag it still holds is stale by construction.  Its size is a
// multiple of the cache line (pinned by TestPackedRecordLayout): the
// block journal's slice header is written once per first-touched block,
// and sharing a line would have that invalidate a neighbouring worker's
// copy of its own shard.
type shard struct {
	recs []rec
	// blk covers recs' capacity.
	blk []block
	// blocks journals each block id once per epoch.
	blocks []int32
	// epoch: no tag anywhere in recs' or blk's capacity exceeds it.
	epoch uint32
	_     [52]byte
}

var shardPool arena.Pool[shard]

// newShard returns a shard with capacity for n elements: a pooled one,
// or a fresh one whose zeroed tags are stale under every epoch.
func newShard(n int) *shard {
	if sh := shardPool.Get(n); sh != nil {
		return sh
	}
	c := arena.ClassCap(n)
	return &shard{recs: make([]rec, c), blk: make([]block, numBlocks(c)), blocks: make([]int32, 0, 64)}
}

// release pools the shard, last used under epoch, keeping the capacity
// its block journal grew to.
func (sh *shard) release(epoch uint32) {
	sh.epoch, sh.blocks = epoch, sh.blocks[:0]
	shardPool.Put(cap(sh.recs), sh)
}

// journal records first touches, stamped it, of the locations mask
// selects in block b: the block id on the block's own first touch of
// the epoch, then the bitmap and the stamp bound.
func (sh *shard) journal(epoch uint32, b int, mask uint64, it int64) {
	bl := &sh.blk[b]
	if bl.tag != epoch {
		*bl = block{tag: epoch, max: it}
		sh.blocks = append(sh.blocks, int32(b))
	}
	bl.bits |= mask
	if it > bl.max {
		bl.max = it
	}
}

// blockJournaled reports whether any of shs journaled block b in the
// current epoch.
func (m *Memory) blockJournaled(shs []*shard, b int32) bool {
	for _, sh := range shs {
		if sh.blk[b].tag == m.epoch {
			return true
		}
	}
	return false
}

// mergePacked is mergeStamps for the packed layout: deduplicate the
// per-shard block journals into touchedBlk (against the shards' own
// block tags — no separate seen-set) and OR the per-shard bitmaps into
// unionBits, whose set bits are the stamped locations.  Cost is
// O(journaled blocks x procs), independent of array length and of how
// many locations were stamped.
func (m *Memory) mergePacked() {
	stamped := 0
	for _, a := range m.arrays {
		shs := m.shards[a]
		ub := m.unionBits[a]
		// Sized from the pool for the journals' total, an upper bound:
		// a list append had grown would go back to a size class the
		// next run never asks for.
		need := 0
		for _, sh := range shs {
			need += len(sh.blocks)
		}
		blist := m.touchedBlk[a][:0]
		if cap(blist) < need {
			int32Pool.Put(blist)
			blist = int32Pool.GetCap(need)
		}
		for k, sh := range shs {
			for _, b := range sh.blocks {
				// Journals are truncated at every reset, so each entry
				// is current-epoch by construction and its bitmap live.
				// A block several shards journaled is listed once, by
				// the lowest of them, with the union of their bitmaps.
				if m.blockJournaled(shs[:k], b) {
					continue
				}
				u := sh.blk[b].bits
				for _, hi := range shs[k+1:] {
					if bl := &hi.blk[b]; bl.tag == m.epoch {
						u |= bl.bits
					}
				}
				ub[b] = u
				blist = append(blist, b)
				stamped += bits.OnesCount64(u)
			}
		}
		m.touchedBlk[a] = blist
	}
	m.stamped = stamped
	m.mergedOK.Store(true)
	m.obsM.StampedStoresAdd(stamped)
	m.obsM.ShardMergeDone(m.procs, stamped)
}

// packedRestoreAbove restores from the checkpoint every touched
// location whose minimum stamp across the shards is >= bound and
// returns how many.  The merge must have run.  Restoration is
// element-granular inside each block — only set bits with a qualifying
// stamp are rewound — so unjournaled (sub-threshold) neighbors in the
// same block survive.
func (m *Memory) packedRestoreAbove(bound int64) int {
	restored := 0
	for ai, a := range m.arrays {
		cp, blist := m.checkpoints[ai], m.touchedBlk[a]
		if len(blist) < 2*minSpan || m.procs == 1 {
			// What parallelDo would run inline anyway, without its
			// closure: the common case allocates nothing.
			restored += m.restoreBlocks(a, cp, blist, bound)
			continue
		}
		var total atomic.Int64
		parallelDo(m.procs, len(blist), func(lo, hi int) {
			total.Add(int64(m.restoreBlocks(a, cp, blist[lo:hi], bound)))
		})
		restored += int(total.Load())
	}
	return restored
}

// restoreBlocks is packedRestoreAbove over the blocks of a in blist.
func (m *Memory) restoreBlocks(a, cp *mem.Array, blist []int32, bound int64) int {
	shs, ub := m.shards[a], m.unionBits[a]
	count := 0
	for _, b := range blist {
		// keep collects the bits some shard stamped below bound: their
		// minimum is below it too.  A shard whose stamps in the block
		// are all below bound keeps every bit it set without a record
		// read — on a block below the exit, that is every shard.
		base := int(b) << blockShift
		var keep uint64
		for _, sh := range shs {
			bl := &sh.blk[b]
			if bl.tag != m.epoch {
				continue
			}
			if bl.max < bound {
				keep |= bl.bits
				continue
			}
			for w := bl.bits &^ keep; w != 0; w &= w - 1 {
				if t := bits.TrailingZeros64(w); sh.recs[base+t].stamp < bound {
					keep |= 1 << uint(t)
				}
			}
		}
		for w := ub[b] &^ keep; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			a.Data[i] = cp.Data[i]
			count++
		}
	}
	return count
}

// packedWriteSetLen counts the locations appendPackedWriteSet yields.
func (m *Memory) packedWriteSetLen(a *mem.Array) int {
	n := 0
	for _, b := range m.touchedBlk[a] {
		n += bits.OnesCount64(m.unionBits[a][b])
	}
	return n
}

// appendPackedWriteSet expands the touched-block bitmaps of one array
// into a deduplicated element-index list appended to out (WriteSet's
// per-array shape).
func (m *Memory) appendPackedWriteSet(out []int, a *mem.Array) []int {
	ub := m.unionBits[a]
	for _, b := range m.touchedBlk[a] {
		base := int(b) << blockShift
		w := ub[b]
		for w != 0 {
			out = append(out, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}
