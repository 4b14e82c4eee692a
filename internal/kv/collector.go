package kv

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
	"sync"
)

// entry is what the collector sorts in place of a 48-byte Pair: 16
// bytes and no pointers. The record itself (uvarint key length, uvarint
// value length, key, value) sits in the collector's slab at loc.
type entry struct {
	prefix uint64 // keyPrefix of the record's key
	part   uint32 // destination partition
	loc    uint32 // slab block index << blockShift | offset in the block
}

// maxFillBlocks is how many slab blocks loc can address. A fill that
// would need more spills early, whatever the buffer threshold.
const maxFillBlocks = 1 << (32 - blockShift)

// scratch is the working memory a collector needs only between Emit and
// Finish. It holds no record bytes once cleared, so it is recycled.
type scratch struct {
	entries []entry
	vals    [][]byte // one key group's values, handed to the combiner
}

// maxPooledScratch caps what an idle scratch may pin, in bytes; a
// larger one is left to the GC.
const maxPooledScratch = 1 << 20

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// PartitionCollector accumulates emitted records into R partitions with a
// bounded total buffer, sorting (and combining) each partition into runs
// when the buffer fills — Hadoop's io.sort.mb map-output buffer, and the
// O-side partition buffers of DataMPI.
//
// Emit copies the record into the slab once and appends one entry to a
// single buffer; a spill sorts the entries by (partition, key prefix,
// Compare on a prefix tie) and only then builds each partition's []Pair,
// at its final size. The slab is ordinary garbage-collected memory, never
// pooled: the pairs Finish returns alias it for as long as they live.
type PartitionCollector struct {
	parts       int
	bufferBytes int // spill threshold over all partitions (0 = unbounded)
	combine     Combiner
	part        Partitioner
	fillBlocks  int // maxFillBlocks; tests lower it

	slab     Arena
	s        *scratch   // taken on the first Emit, returned by Finish
	spilled  [][][]Pair // per spill, the run of each partition
	buffered int        // record bytes emitted since the last spill
	spills   int
	spillB   int // total bytes spilled
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

// Emit adds one record (copying key and value, since map functions may
// reuse buffers).
func (c *PartitionCollector) Emit(key, value []byte) {
	pi := 0
	if c.parts > 1 {
		pi = c.part.Partition(key, c.parts)
	}
	if c.s == nil {
		c.s = scratchPool.Get().(*scratch)
	}
	if len(c.slab.blocks) >= c.fillBlocks {
		c.spill()
	}
	var hdr [2 * binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(len(key)))
	h += binary.PutUvarint(hdr[h:], uint64(len(value)))
	bi, off := c.slab.alloc(h + len(key) + len(value))
	rec := c.slab.blocks[bi][off:]
	copy(rec, hdr[:h])
	copy(rec[h:], key)
	copy(rec[h+len(key):], value)
	c.s.entries = append(c.s.entries, entry{
		prefix: keyPrefix(key),
		part:   uint32(pi),
		loc:    uint32(bi)<<blockShift | uint32(off),
	})
	c.buffered += len(key) + len(value)
	if c.bufferBytes > 0 && c.buffered >= c.bufferBytes {
		c.spill()
	}
}

// record cuts the pair at loc out of the slab, capacity-bounded.
func (c *PartitionCollector) record(loc uint32) Pair {
	b := c.slab.blocks[loc>>blockShift][loc&(DefaultBlockBytes-1):]
	klen, n := binary.Uvarint(b)
	b = b[n:]
	vlen, n := binary.Uvarint(b)
	b = b[n:]
	k, v := int(klen), int(klen+vlen)
	return Pair{Key: b[:k:k], Value: b[k:v:v]}
}

// compare orders entries by (partition, key prefix), then by their
// records under Compare when the prefixes tie.
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
// new fill.
func (c *PartitionCollector) spill() {
	if c.s == nil || len(c.s.entries) == 0 {
		return
	}
	es := c.s.entries
	slices.SortFunc(es, c.compare)
	runs := make([][]Pair, c.parts)
	for lo := 0; lo < len(es); {
		hi := lo + 1
		for hi < len(es) && es[hi].part == es[lo].part {
			hi++
		}
		runs[es[lo].part] = c.buildRun(es[lo:hi])
		lo = hi
	}
	c.spilled = append(c.spilled, runs)
	c.s.entries = es[:0]
	c.slab.reset()
	c.buffered = 0
	c.spills++
}

// sameKey reports whether two entries of one partition carry equal keys.
func (c *PartitionCollector) sameKey(a, b entry) bool {
	return a.prefix == b.prefix && bytes.Equal(c.record(a.loc).Key, c.record(b.loc).Key)
}

// buildRun materialises one partition's sorted entries as a run,
// combined if the collector combines, and accounts its bytes as spilled.
func (c *PartitionCollector) buildRun(es []entry) []Pair {
	if c.combine == nil {
		run := make([]Pair, len(es))
		for i, e := range es {
			run[i] = c.record(e.loc)
			c.spillB += run[i].Size()
		}
		return run
	}
	groups := 1
	for i := 1; i < len(es); i++ {
		if !c.sameKey(es[i-1], es[i]) {
			groups++
		}
	}
	run := make([]Pair, 0, groups)
	vals := c.s.vals
	for i := 0; i < len(es); {
		first := c.record(es[i].loc)
		vals = append(vals[:0], first.Value)
		j := i + 1
		for ; j < len(es) && es[j].prefix == es[i].prefix; j++ {
			p := c.record(es[j].loc)
			if !bytes.Equal(p.Key, first.Key) {
				break
			}
			vals = append(vals, p.Value)
		}
		for _, v := range c.combine(first.Key, vals) {
			run = append(run, Pair{Key: first.Key, Value: v})
			c.spillB += len(first.Key) + len(v)
		}
		i = j
	}
	c.s.vals = vals
	return run
}

// Spills reports how many buffer overflows occurred.
func (c *PartitionCollector) Spills() int { return c.spills }

// Finish sorts the remaining buffer and merges runs per partition. It
// returns the sorted, combined partitions plus the bytes written during
// spills (spillBytes) and the bytes re-read by the final merge
// (mergeBytes, zero when at most one run existed per partition).
func (c *PartitionCollector) Finish() (parts [][]Pair, spillBytes, mergeBytes int) {
	hadSpills := c.spills > 0
	c.spill()
	switch len(c.spilled) {
	case 0:
		parts = make([][]Pair, c.parts)
	case 1:
		parts = c.spilled[0]
	default:
		parts = make([][]Pair, c.parts)
		runs := make([][]Pair, 0, len(c.spilled))
		for pi := range parts {
			runs = runs[:0]
			for _, sp := range c.spilled {
				// A partition that had records in a fill has a non-nil
				// run for it, even when the combiner emptied it.
				if sp[pi] != nil {
					runs = append(runs, sp[pi])
				}
			}
			switch len(runs) {
			case 0:
			case 1:
				parts[pi] = runs[0]
			default:
				parts[pi] = CombineSorted(MergeRuns(runs), c.combine)
			}
		}
	}
	spillBytes = c.spillB
	if hadSpills && c.spills > 1 {
		// Multi-run merge re-reads everything that was spilled.
		mergeBytes = c.spillB
	}
	c.spilled = nil
	c.slab = Arena{}
	if s := c.s; s != nil {
		c.s = nil
		clear(s.vals[:cap(s.vals)])
		if cap(s.entries)*16+cap(s.vals)*24 <= maxPooledScratch {
			scratchPool.Put(s)
		}
	}
	return parts, spillBytes, mergeBytes
}
