package kv

// Record batching: instead of allocating two byte slices per emitted
// record, an Arena copies record bytes into blocks and hands out
// sub-slices. Blocks grow geometrically from firstBlockBytes to
// DefaultBlockBytes, so a task that emits a few kilobytes cuts a few
// kilobytes, and one that emits megabytes cuts full blocks that each hold
// hundreds of records: the allocation rate of the map-output, shuffle and
// merge paths is O(bytes / block size), not O(records).
//
// Ownership: records alias arena blocks, so a block lives as long as any
// record cut from it and the GC reclaims it when the last one dies.
// Blocks are never recycled: map outputs, cached partitions and MPI
// payloads publish records that outlive the arena that cut them. Not
// every map output record is cut here: one that a collector lent its
// input (PartitionCollector.Borrow) found lying in that block aliases
// the input instead, which is immutable and lives as long as the job's
// file.
//
// Every sub-slice is cut with a full-capacity bound (three-index
// slicing), so appending to one record's bytes can never clobber a
// neighbouring record — in-place combiners rely on this.

// blockShift is log2 of the largest arena block; a collector entry packs
// a block index and an in-block offset around it.
const blockShift = 16

// DefaultBlockBytes is the largest block an arena fills: large enough
// that a block holds hundreds of records and block allocation is
// amortised. Growing to it from firstBlockBytes keeps the unfilled tail
// of a small task's last block small too.
const DefaultBlockBytes = 1 << blockShift

// firstBlockBytes is the capacity of an arena's first block.
const firstBlockBytes = 4 << 10

// Arena is a bump allocator over blocks. The zero value is ready.
type Arena struct {
	blocks [][]byte // every block cut since the last reset
	cur    int      // 1 + index of the block being filled, 0 = none yet
}

// alloc reserves n contiguous bytes and returns the index of the block
// that holds them and their offset in it. A new block has twice the
// capacity of the one being filled, at most DefaultBlockBytes, doubled
// again until n fits; n of DefaultBlockBytes/4 or more gets a block of
// its own.
func (a *Arena) alloc(n int) (bi, off int) {
	size := firstBlockBytes
	if a.cur > 0 {
		b := a.blocks[a.cur-1]
		if n <= cap(b)-len(b) {
			a.blocks[a.cur-1] = b[:len(b)+n]
			return a.cur - 1, len(b)
		}
		size = min(2*cap(b), DefaultBlockBytes)
	}
	if n >= DefaultBlockBytes/4 {
		// Oversized: a dedicated block, and the current one keeps filling.
		a.blocks = append(a.blocks, make([]byte, n))
		return len(a.blocks) - 1, 0
	}
	for size < n {
		size *= 2
	}
	a.blocks = append(a.blocks, make([]byte, n, size))
	a.cur = len(a.blocks)
	return a.cur - 1, 0
}

// reset forgets every block but the one being filled, which becomes
// block 0 and keeps its capacity, so growth carries over. Records already
// cut keep their blocks alive on their own.
func (a *Arena) reset() {
	keep := 0
	if a.cur > 0 {
		a.blocks[0], keep = a.blocks[a.cur-1], 1
	}
	clear(a.blocks[keep:])
	a.blocks = a.blocks[:keep]
	a.cur = keep
}

// Copy copies b into the arena and returns a capacity-bounded sub-slice.
func (a *Arena) Copy(b []byte) []byte {
	n := len(b)
	if n == 0 {
		return []byte{}
	}
	bi, off := a.alloc(n)
	out := a.blocks[bi][off : off+n : off+n]
	copy(out, b)
	return out
}
