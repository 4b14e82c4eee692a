package kv

// Record batching: instead of allocating two byte slices per emitted
// record, an Arena copies record bytes into fixed-size blocks and hands
// out sub-slices. A block holds hundreds of records, so the allocation
// rate of the map-output, shuffle and merge paths is O(bytes / block
// size), not O(records).
//
// Ownership: records alias arena blocks, so a block lives as long as any
// record cut from it and the GC reclaims it when the last one dies.
// Blocks are never recycled: map outputs, cached partitions and MPI
// payloads publish records that outlive the arena that cut them.
//
// Every sub-slice is cut with a full-capacity bound (three-index
// slicing), so appending to one record's bytes can never clobber a
// neighbouring record — in-place combiners rely on this.

// blockShift is log2 of the arena block size; a collector entry packs a
// block index and an in-block offset around it.
const blockShift = 16

// DefaultBlockBytes is the arena block size: large enough that a block
// holds hundreds of records and block allocation is amortised, small
// enough that the unfilled tail a task leaves behind is negligible.
const DefaultBlockBytes = 1 << blockShift

// Arena is a bump allocator over blocks. The zero value is ready.
type Arena struct {
	blocks [][]byte // every block cut since the last reset
	cur    int      // index of the block being filled
}

// alloc reserves n contiguous bytes and returns the index of the block
// that holds them and their offset in it.
func (a *Arena) alloc(n int) (bi, off int) {
	if a.cur < len(a.blocks) {
		if b := a.blocks[a.cur]; n <= cap(b)-len(b) {
			a.blocks[a.cur] = b[:len(b)+n]
			return a.cur, len(b)
		}
	}
	if n >= DefaultBlockBytes/4 {
		// Oversized: a dedicated block, and the current one keeps filling.
		a.blocks = append(a.blocks, make([]byte, n))
		return len(a.blocks) - 1, 0
	}
	a.blocks = append(a.blocks, make([]byte, n, DefaultBlockBytes))
	a.cur = len(a.blocks) - 1
	return a.cur, 0
}

// reset forgets every block but the one being filled, which becomes
// block 0. Records already cut keep their blocks alive on their own.
func (a *Arena) reset() {
	if a.cur >= len(a.blocks) {
		return
	}
	cur := a.blocks[a.cur]
	clear(a.blocks)
	a.blocks = append(a.blocks[:0], cur)
	a.cur = 0
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

// CopyPair copies one record into the arena.
func (a *Arena) CopyPair(key, value []byte) Pair {
	return Pair{Key: a.Copy(key), Value: a.Copy(value)}
}
