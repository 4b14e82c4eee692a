package kv

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// entry is what the collector sorts in place of a 48-byte Pair: 16
// bytes and no pointers. The record itself (uvarint key length, uvarint
// value length, key, value) sits in the collector's slab at loc; a
// record borrowed from the input (see Borrow) stays there, at offsets
// that loc indexes in the scratch under the borrowedLoc bit. Without a
// combiner there is one entry per record; with one, one per distinct key
// of the fill, and the record holds the first value emitted for it.
type entry struct {
	prefix uint64 // keyPrefix of the record's key
	part   uint32 // destination partition
	loc    uint32 // slab block index << blockShift | offset in the block, or borrowedLoc | index in scratch.borrowed
}

// borrowedLoc is the bit of a loc that marks a borrowed record.
const borrowedLoc = 1 << 31

// maxFillBlocks is how many slab blocks loc can address without reaching
// borrowedLoc. A fill that would need more spills early, whatever the
// buffer threshold.
const maxFillBlocks = borrowedLoc >> blockShift

// borrowed is a record whose key and value both lie in the collector's
// borrowed input: their offsets in it and their lengths.
type borrowed struct{ kOff, kLen, vOff, vLen uint32 }

// extra is one value emitted for a key the fill already holds, other
// than a repeat of the key's first value (which is only counted). A key's
// extras form a chain, newest first, whose head is in the key's header.
type extra struct {
	loc  uint32 // slab location of the value: a record with an empty key
	prev uint32 // 1 + index of the same key's previous extra, 0 = none
}

// headerBytes is the room a combining fill leaves in front of each key's
// record for two little-endian uint32s: the head of the key's chain (1 +
// index in scratch.extras of its newest extra, 0 = none) and the number
// of later values byte-equal to the first one. Counts emit "1" every
// time, so most of their records end as an increment of that number.
const headerBytes = 8

// scratch is the working memory a collector needs only between Emit and
// Finish. Its pairs and vals point into the slab (and the borrowed input)
// until Finish clears them; cleared, it holds no record bytes, so it is
// recycled. extras, table and cells are used by combining fills only;
// borrowed by a borrowing fill without a combiner; pairs and spans by a
// task that spills.
type scratch struct {
	entries  []entry
	borrowed []borrowed
	vals     [][]byte // one key group's values, handed to the combiner
	extras   []extra
	// table is an open-addressing (linear probing) index of the fill's
	// distinct keys: a cell is hashKey<<32 | the loc of the key's record,
	// zero when free (no combining record sits at loc 0: its header
	// does). Its length is a power of two at least twice len(cells);
	// everything from len to cap is zero, so growing inside the capacity
	// is a reslice.
	table []uint64
	cells []uint64 // the cells in table, in insertion order: what a grown table is refilled from
	// pairs holds the runs of a task's fills back to back, until Finish
	// merges them; spans says where each one is, one span per (fill,
	// partition), fill-major.
	pairs []Pair
	spans []span
}

// span is where one fill's run of one partition sits: pairs[lo:hi]. A
// fill that held no record for the partition leaves reached false; one
// whose combiner emptied the partition has an empty run, which still
// counts as a run in the merge.
type span struct {
	lo, hi  int
	reached bool
}

// minTableSize is the table a combining fill starts with (8 KB).
const minTableSize = 1 << 10

// maxPooledScratch caps what an idle scratch may pin, in bytes; a
// larger one is left to the GC.
const maxPooledScratch = 4 << 20

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// PartitionCollector accumulates emitted records into R partitions with a
// bounded total buffer, sorting (and combining) each partition into runs
// when the buffer fills — Hadoop's io.sort.mb map-output buffer, and the
// O-side partition buffers of DataMPI.
//
// There are two kinds of fill, chosen by whether the job has a combiner.
//
// Without one, Emit copies the record into the slab once (or borrows it,
// below) and appends one entry; a spill sorts the entries by (partition,
// key prefix, Compare on a prefix tie) and only then builds each
// partition's []Pair, at its final size.
//
// With one, Emit groups: it looks the key up in a hash table kept in the
// scratch. A key new to the fill costs what a record costs above — one
// slab record holding the key and this first value, one Partition call,
// one entry — plus a table cell and an eight-byte header. A key the fill
// already holds costs an increment in that header when the value repeats
// the key's first one (counts, all "1", always do), else a slab copy of
// the value alone and eight bytes that chain it to its key. A spill
// sorts the distinct keys by (partition, key prefix, key), gives each
// key its values (the repeats as fresh copies, then its chain), puts
// them in ascending byte order when they are not already and calls the
// combiner. Sorting every record under Compare and folding
// equal keys hands the combiner the same values in the same order,
// because Compare is a total order on (key, value): the runs, and so
// everything Finish returns, are the same bytes either way.
//
// The Partitioner must be a pure function of the key: a combining fill
// calls it once per distinct key, not once per record. An index outside
// [0, nParts) sends the record to partition 0 and is reported by Err.
//
// A collector that was lent its task's input (Borrow) keeps, in a fill
// without a combiner, a record whose key and value both lie in that
// input as four offsets in the scratch, not as a slab copy; the pairs
// Finish builds for it alias the input. Any other record — from a map
// function's own buffer, or in a combining fill — is copied.
//
// The slab is ordinary garbage-collected memory, never pooled: the pairs
// Finish returns alias it (or the borrowed input) for as long as they
// live. A task that fills the buffer once gets its runs built at their
// final size as its output. One that spills keeps every run in the
// pooled scratch instead, and Finish allocates only the merged output,
// which shares no memory with the scratch.
type PartitionCollector struct {
	parts       int
	bufferBytes int // spill threshold over all partitions (0 = unbounded)
	combine     Combiner
	part        Partitioner
	fillBlocks  int // maxFillBlocks; tests lower it
	spills      int
	err         error // the first out-of-range partition index

	slab     Arena
	src      []byte   // the borrowed input (nil: copy every record)
	s        *scratch // taken on the first Emit, returned by Finish
	buffered int      // record bytes emitted since the last spill
	spillB   int      // total bytes spilled
}

// NewPartitionCollector creates a collector for nParts partitions.
func NewPartitionCollector(nParts, bufferBytes int, combine Combiner, part Partitioner) *PartitionCollector {
	if nParts < 1 {
		nParts = 1
	}
	return &PartitionCollector{
		parts:       nParts,
		bufferBytes: bufferBytes,
		combine:     combine,
		part:        part,
		fillBlocks:  maxFillBlocks,
	}
}

// Borrow lends the collector src, the task's input block, and declares
// it immutable for as long as anything Finish returns lives. From then on
// a fill without a combiner keeps a record whose key and value both lie
// in src without copying it (see PartitionCollector). A combining fill
// copies regardless: a combiner may rewrite the values it is handed in
// place. An input too large for 32-bit offsets is not borrowed.
func (c *PartitionCollector) Borrow(src []byte) {
	if uint64(len(src)) <= math.MaxUint32 {
		c.src = src
	}
}

// Emit adds one record, copying key and value (map functions may reuse
// buffers) unless they lie in the borrowed input.
func (c *PartitionCollector) Emit(key, value []byte) {
	if c.s == nil {
		c.s = scratchPool.Get().(*scratch)
	}
	if len(c.slab.blocks) >= c.fillBlocks {
		c.spill(nil)
	}
	if c.combine != nil {
		c.emitGrouped(key, value)
	} else if !c.borrow(key, value) {
		c.addEntry(key, value, 0)
	}
	c.buffered += len(key) + len(value)
	if c.bufferBytes > 0 && c.buffered >= c.bufferBytes {
		c.spill(nil)
	}
}

// addEntry stores a record behind room spare bytes (see put), appends
// its entry and returns its location.
func (c *PartitionCollector) addEntry(key, value []byte, room int) uint32 {
	loc := c.put(key, value, room)
	c.s.entries = append(c.s.entries, entry{prefix: keyPrefix(key), part: c.partition(key), loc: loc})
	return loc
}

// borrow appends the entry of a record that lies in the borrowed input,
// and reports false, keeping nothing, for one that does not.
func (c *PartitionCollector) borrow(key, value []byte) bool {
	s := c.s
	if c.src == nil || len(s.borrowed) == borrowedLoc-1 { // the index must stay below the mark
		return false
	}
	kOff, ok := c.offset(key)
	if !ok {
		return false
	}
	vOff, ok := c.offset(value)
	if !ok {
		return false
	}
	s.entries = append(s.entries, entry{prefix: keyPrefix(key), part: c.partition(key), loc: borrowedLoc | uint32(len(s.borrowed))})
	s.borrowed = append(s.borrowed, borrowed{kOff, uint32(len(key)), vOff, uint32(len(value))})
	return true
}

// offset reports whether b lies in the borrowed input, and where. Slices
// of one array whose capacities end on the same byte start cap apart, so
// b lies in src when its capacity's last byte is src's and it ends within
// src's length. An empty b lies anywhere.
func (c *PartitionCollector) offset(b []byte) (uint32, bool) {
	if len(b) == 0 {
		return 0, true
	}
	src := c.src
	if cap(b) > cap(src) || &b[:cap(b)][cap(b)-1] != &src[:cap(src)][cap(src)-1] {
		return 0, false
	}
	off := cap(src) - cap(b)
	return uint32(off), off+len(b) <= len(src)
}

// emitGrouped adds one record to a combining fill: a value for a key the
// fill already holds, or a new key.
func (c *PartitionCollector) emitGrouped(key, value []byte) {
	s := c.s
	if 2*(len(s.cells)+1) > len(s.table) {
		s.growTable()
	}
	h := hashKey(key)
	mask := len(s.table) - 1
	i := int(h >> (32 - bits.TrailingZeros(uint(len(s.table)))))
	for ; s.table[i] != 0; i = (i + 1) & mask {
		cell := s.table[i]
		if uint32(cell>>32) != h {
			continue
		}
		rec := c.record(uint32(cell))
		if !bytes.Equal(rec.Key, key) {
			continue
		}
		head, repeats := c.header(uint32(cell))
		if n := binary.LittleEndian.Uint32(repeats); n != math.MaxUint32 && bytes.Equal(rec.Value, value) {
			binary.LittleEndian.PutUint32(repeats, n+1)
			return
		}
		s.extras = append(s.extras, extra{loc: c.put(nil, value, 0), prev: binary.LittleEndian.Uint32(head)})
		binary.LittleEndian.PutUint32(head, uint32(len(s.extras)))
		return
	}
	s.table[i] = uint64(h)<<32 | uint64(c.addEntry(key, value, headerBytes))
	s.cells = append(s.cells, s.table[i])
}

// hashKey hashes a key for the group table: a multiplicative hash over
// the key's length and its 8-byte words, of which the high half is kept
// (a product's high bits depend on every bit of its input).
func hashKey(key []byte) uint32 {
	const mul = 0x9e3779b97f4a7c15 // 2^64 / golden ratio
	h := uint64(len(key))
	for ; len(key) > 8; key = key[8:] {
		h = (h ^ binary.BigEndian.Uint64(key)) * mul
		h ^= h >> 32
	}
	return uint32((h ^ keyPrefix(key)) * mul >> 32)
}

// growTable doubles the table (or sets it up) and refills it.
func (s *scratch) growTable() {
	n := max(minTableSize, 2*len(s.table))
	clear(s.table)
	if n <= cap(s.table) {
		s.table = s.table[:n]
	} else {
		s.table = make([]uint64, n)
	}
	mask, shift := n-1, 64-bits.TrailingZeros(uint(n))
	for _, cell := range s.cells {
		i := int(cell >> shift)
		for s.table[i] != 0 {
			i = (i + 1) & mask
		}
		s.table[i] = cell
	}
}

// partition is the destination of key, checked: an index the
// Partitioner had no right to return becomes partition 0 and the
// collector's error.
func (c *PartitionCollector) partition(key []byte) uint32 {
	if c.parts == 1 {
		return 0
	}
	pi := c.part.Partition(key, c.parts)
	if pi < 0 || pi >= c.parts {
		if c.err == nil {
			c.err = fmt.Errorf("kv: partitioner returned index %d for %d partitions", pi, c.parts)
		}
		return 0
	}
	return uint32(pi)
}

// Err reports the first partition index outside [0, nParts) that the
// Partitioner returned, or nil. The records concerned went to partition
// 0, so what Finish returned is not the job's output.
func (c *PartitionCollector) Err() error { return c.err }

// put copies a record (uvarint key length, uvarint value length, key,
// value) into the slab behind room bytes left zero (a block is zero until
// written) and returns its location: block index << blockShift | offset
// in the block.
func (c *PartitionCollector) put(key, value []byte, room int) uint32 {
	var hdr [2 * binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(len(key)))
	h += binary.PutUvarint(hdr[h:], uint64(len(value)))
	bi, off := c.slab.alloc(room + h + len(key) + len(value))
	off += room
	rec := c.slab.blocks[bi][off:]
	copy(rec, hdr[:h])
	copy(rec[h:], key)
	copy(rec[h+len(key):], value)
	return uint32(bi)<<blockShift | uint32(off)
}

// header is the two fields of the headerBytes in front of the combining
// record at loc.
func (c *PartitionCollector) header(loc uint32) (head, repeats []byte) {
	off := loc & (DefaultBlockBytes - 1)
	b := c.slab.blocks[loc>>blockShift][off-headerBytes : off]
	return b[:4], b[4:]
}

// record cuts the pair at loc out of the slab or the borrowed input,
// capacity-bounded.
func (c *PartitionCollector) record(loc uint32) Pair {
	if loc&borrowedLoc != 0 {
		r := c.s.borrowed[loc&^borrowedLoc]
		k, v := r.kOff+r.kLen, r.vOff+r.vLen
		return Pair{Key: c.src[r.kOff:k:k], Value: c.src[r.vOff:v:v]}
	}
	b := c.slab.blocks[loc>>blockShift][loc&(DefaultBlockBytes-1):]
	klen, n := binary.Uvarint(b)
	b = b[n:]
	vlen, n := binary.Uvarint(b)
	b = b[n:]
	k, v := int(klen), int(klen+vlen)
	return Pair{Key: b[:k:k], Value: b[k:v:v]}
}

// compare orders entries by (partition, key prefix), then by their
// records under Compare when the prefixes tie (by key alone, in effect,
// between the distinct keys of a combining fill).
func (c *PartitionCollector) compare(a, b entry) int {
	if d := cmp.Compare(a.part, b.part); d != 0 {
		return d
	}
	if d := cmp.Compare(a.prefix, b.prefix); d != 0 {
		return d
	}
	return Compare(c.record(a.loc), c.record(b.loc))
}

// spill sorts what is buffered into one run per partition and starts a
// new fill. Given out, it builds each run there in a slice of its own
// (exact without a combiner, room for one value per key with one);
// given nil, it appends the runs to the scratch's pairs and records
// their spans.
func (c *PartitionCollector) spill(out [][]Pair) {
	s := c.s
	if s == nil || len(s.entries) == 0 {
		return
	}
	es := s.entries
	slices.SortFunc(es, c.compare)
	build := c.buildRun
	if c.combine != nil {
		build = c.combineRun
	}
	var spans []span // this fill's, when its runs go to the scratch
	if out == nil {
		n := len(s.spans)
		s.spans = append(s.spans, make([]span, c.parts)...)
		spans = s.spans[n:]
	}
	for lo := 0; lo < len(es); {
		hi := lo + 1
		for hi < len(es) && es[hi].part == es[lo].part {
			hi++
		}
		if p := es[lo].part; out != nil {
			out[p] = build(make([]Pair, 0, hi-lo), es[lo:hi])
		} else {
			start := len(s.pairs)
			s.pairs = build(s.pairs, es[lo:hi])
			spans[p] = span{lo: start, hi: len(s.pairs), reached: true}
		}
		lo = hi
	}
	s.entries, s.borrowed, s.extras, s.cells = es[:0], s.borrowed[:0], s.extras[:0], s.cells[:0]
	clear(s.table)
	c.slab.reset()
	c.buffered = 0
	c.spills++
}

// buildRun appends one partition's sorted records to run and accounts
// their bytes as spilled.
func (c *PartitionCollector) buildRun(run []Pair, es []entry) []Pair {
	for _, e := range es {
		p := c.record(e.loc)
		run = append(run, p)
		c.spillB += p.Size()
	}
	return run
}

// combineRun appends one partition's run to run, built from its sorted
// distinct keys: each key's values, in ascending byte order, go through
// the combiner.
func (c *PartitionCollector) combineRun(run []Pair, es []entry) []Pair {
	s := c.s
	vals := s.vals
	for _, e := range es {
		first := c.record(e.loc)
		head, repeats := c.header(e.loc)
		vals = append(vals[:0], first.Value)
		// Every value gets memory of its own: a combiner may rewrite any
		// of them in place.
		for n := binary.LittleEndian.Uint32(repeats); n > 0; n-- {
			vals = append(vals, c.slab.Copy(first.Value))
		}
		chain := binary.LittleEndian.Uint32(head)
		for i := chain; i != 0; {
			x := s.extras[i-1]
			vals = append(vals, c.record(x.loc).Value)
			i = x.prev
		}
		// Repeats equal the first value: only a chain can be out of order.
		if chain != 0 && !slices.IsSortedFunc(vals, bytes.Compare) {
			slices.SortFunc(vals, bytes.Compare)
		}
		for _, v := range c.combine(first.Key, vals) {
			run = append(run, Pair{Key: first.Key, Value: v})
			c.spillB += len(first.Key) + len(v)
		}
	}
	s.vals = vals
	return run
}

// Spills reports how many buffer overflows occurred.
func (c *PartitionCollector) Spills() int { return c.spills }

// Finish sorts the remaining buffer and merges runs per partition. It
// returns the sorted, combined partitions plus the bytes written during
// spills (spillBytes) and the bytes re-read by the final merge
// (mergeBytes, zero when at most one run existed per partition).
func (c *PartitionCollector) Finish() (parts [][]Pair, spillBytes, mergeBytes int) {
	parts = make([][]Pair, c.parts)
	if c.spills == 0 {
		c.spill(parts)
	} else {
		c.spill(nil)
		c.merge(parts)
	}
	spillBytes = c.spillB
	if c.spills > 1 {
		// Multi-run merge re-reads everything that was spilled.
		mergeBytes = c.spillB
	}
	c.slab = Arena{}
	if s := c.s; s != nil {
		c.s = nil
		clear(s.vals[:cap(s.vals)])
		s.table = s.table[:0] // all zero since the last spill: the next collector starts small
		if (cap(s.entries)+cap(s.borrowed))*16+cap(s.vals)*24+cap(s.extras)*8+(cap(s.table)+cap(s.cells))*8+
			cap(s.pairs)*48+cap(s.spans)*24 <= maxPooledScratch {
			scratchPool.Put(s)
		}
	}
	return parts, spillBytes, mergeBytes
}

// merge fills parts from the runs every fill left in the scratch, then
// clears them. A partition that several fills reached is merged (and
// combined again), one that a single fill reached is copied: either way
// into a slice of its own exact size.
func (c *PartitionCollector) merge(parts [][]Pair) {
	s := c.s
	runs := make([][]Pair, 0, len(s.spans)/c.parts)
	for pi := range parts {
		runs = runs[:0]
		for f := pi; f < len(s.spans); f += c.parts {
			if sp := s.spans[f]; sp.reached {
				runs = append(runs, s.pairs[sp.lo:sp.hi])
			}
		}
		switch {
		case len(runs) == 0:
		case len(runs) == 1:
			parts[pi] = append(make([]Pair, 0, len(runs[0])), runs[0]...)
		case c.combine == nil:
			// Every run is non-empty here, so MergeRuns copies.
			parts[pi] = MergeRuns(runs)
		default:
			parts[pi] = MergeCombine(runs, c.combine)
		}
	}
	clear(s.pairs)
	s.pairs, s.spans = s.pairs[:0], s.spans[:0]
}
