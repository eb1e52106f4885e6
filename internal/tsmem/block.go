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
// Everything downstream (merge, Undo, PartialCommit, WriteSet, Stamp)
// iterates journaled block ranges and their union bitmaps, visiting
// exactly the touched elements via TrailingZeros64.
// Undo stays element-granular *within* a block — each set bit's merged
// stamp is compared individually — which is what keeps the
// stamp-threshold contract intact: a sub-threshold store is neither
// stamped nor bitmap-marked, so a block-level restore can never clobber
// it (see TestThresholdStoreSurvivesBlockUndo).
package tsmem

import (
	"math/bits"
	"sync"

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

// shard is one worker's slice of the packed layout for one array: the
// records, the block tags and bitmaps, and the block journal.  It is
// pooled whole, with the last epoch it was used under, so a Memory that
// takes it starts one epoch later and clears nothing — every record and
// block tag it still holds is stale by construction.
type shard struct {
	recs    []rec
	blkTag  []uint32
	blkBits []uint64
	blocks  []int32
	// epoch: no tag anywhere in recs' or blkTag's capacity exceeds it.
	epoch uint32
}

var shardPool arena.Pool[shard]

// newShard returns a shard with capacity for n elements: a pooled one,
// or a fresh one whose zeroed tags are stale under every epoch.
func newShard(n int) *shard {
	if sh := shardPool.Get(n); sh != nil {
		return sh
	}
	c := arena.ClassCap(n)
	nb := numBlocks(c)
	return &shard{recs: make([]rec, c), blkTag: make([]uint32, nb), blkBits: make([]uint64, nb),
		blocks: make([]int32, 0, 64)}
}

// release pools the shard, last used under epoch, keeping the capacity
// its block journal grew to.
func (sh *shard) release(epoch uint32, journal []int32) {
	sh.epoch, sh.blocks = epoch, journal[:0]
	shardPool.Put(cap(sh.recs), sh)
}

// blockJournaled reports whether any of the shards whose block tags are
// bts journaled block b in the current epoch.
func (m *Memory) blockJournaled(bts [][]uint32, b int) bool {
	for _, bt := range bts {
		if bt[b] == m.epoch {
			return true
		}
	}
	return false
}

// mergePacked is mergeStamps for the packed layout: deduplicate the
// per-shard block journals into touchedBlk (against the shards' own
// block tags — no separate seen-set), OR the per-shard bitmaps into
// unionBits, then min-merge the shards' records over exactly the set
// bits.  Cost is O(journaled blocks x procs + touched elements x
// writers), independent of array length.
func (m *Memory) mergePacked() {
	stamped := 0
	for _, a := range m.arrays {
		rss := m.recs[a]
		bts := m.blkTag[a]
		n := a.Len()
		mg := m.merged[a]
		if len(mg) != n {
			arena.PutInt64s(mg)
			mg = arena.Int64s(n)
			m.merged[a] = mg
		}
		ub := m.unionBits[a]
		blist := m.touchedBlk[a][:0]
		for k := 0; k < m.procs; k++ {
			for _, b := range m.blocks[a][k] {
				// Journals are truncated at every reset, so each entry
				// is current-epoch by construction and its bitmap live.
				// A block several shards journaled is listed once, by
				// the lowest of them, with the union of their bitmaps.
				if m.blockJournaled(bts[:k], int(b)) {
					continue
				}
				u := m.blkBits[a][k][b]
				for j := k + 1; j < m.procs; j++ {
					if bts[j][b] == m.epoch {
						u |= m.blkBits[a][j][b]
					}
				}
				ub[b] = u
				blist = append(blist, b)
			}
		}
		m.touchedBlk[a] = blist
		var mu sync.Mutex
		parallelDo(m.procs, len(blist), func(lo, hi int) {
			count := 0
			liveK := make([]int, 0, m.procs)
			liveBits := make([]uint64, 0, m.procs)
			for _, b := range blist[lo:hi] {
				// Gather the shards that journaled this block so the
				// per-element min scan touches only actual writers.
				liveK, liveBits = liveK[:0], liveBits[:0]
				for k := 0; k < m.procs; k++ {
					if bts[k][b] == m.epoch && m.blkBits[a][k][b] != 0 {
						liveK = append(liveK, k)
						liveBits = append(liveBits, m.blkBits[a][k][b])
					}
				}
				base := int(b) << blockShift
				w := ub[b]
				for w != 0 {
					t := bits.TrailingZeros64(w)
					bit := uint64(1) << uint(t)
					w &^= bit
					i := base + t
					min := NoStamp
					for j, k := range liveK {
						if liveBits[j]&bit != 0 {
							if st := rss[k][i].stamp; min == NoStamp || st < min {
								min = st
							}
						}
					}
					mg[i] = min
					count++
				}
			}
			mu.Lock()
			stamped += count
			mu.Unlock()
		})
	}
	m.stamped = stamped
	m.mergedOK.Store(true)
	m.obsM.StampedStoresAdd(stamped)
	m.obsM.ShardMergeDone(m.procs, stamped)
}

// packedRestoreAbove restores from the checkpoint every touched
// location whose merged stamp is >= bound and returns how many.  The
// merge must have run.  Restoration is element-granular inside each
// block — only set bits with a qualifying stamp are rewound — so
// unjournaled (sub-threshold) neighbors in the same block survive.
func (m *Memory) packedRestoreAbove(bound int64) int {
	restored := 0
	for ai, a := range m.arrays {
		cp := m.checkpoints[ai]
		mg := m.merged[a]
		ub := m.unionBits[a]
		blist := m.touchedBlk[a]
		var mu sync.Mutex
		parallelDo(m.procs, len(blist), func(lo, hi int) {
			count := 0
			for _, b := range blist[lo:hi] {
				base := int(b) << blockShift
				w := ub[b]
				for w != 0 {
					i := base + bits.TrailingZeros64(w)
					w &= w - 1
					if st := mg[i]; st != NoStamp && st >= bound {
						a.Data[i] = cp.Data[i]
						count++
					}
				}
			}
			mu.Lock()
			restored += count
			mu.Unlock()
		})
	}
	return restored
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
