// Package kv provides the key-value record machinery shared by every
// framework in this repository: record types, binary and text codecs,
// partitioners, the spilling partition collector, and the sort, combine
// and merge steps around it. It corresponds to the Writable/serialization
// layer of Hadoop and the key-value pair model DataMPI's communication
// is built on.
//
// The package is simulation-free: engines charge simulated resources from
// the byte and spill counts these operations report (see
// PartitionCollector.Finish).
package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// Pair is one key-value record.
type Pair struct {
	Key   []byte
	Value []byte
}

// Size returns the payload bytes of the pair (excluding framing).
func (p Pair) Size() int { return len(p.Key) + len(p.Value) }

// Clone deep-copies the pair.
func (p Pair) Clone() Pair {
	return Pair{Key: append([]byte(nil), p.Key...), Value: append([]byte(nil), p.Value...)}
}

// String renders the pair for debugging.
func (p Pair) String() string { return fmt.Sprintf("%q=%q", p.Key, p.Value) }

// Compare orders pairs by key, then value (for stable total order).
func Compare(a, b Pair) int {
	if c := bytes.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return bytes.Compare(a.Value, b.Value)
}

// keyPrefix is the first 8 bytes of key as a big-endian integer,
// zero-padded. Prefix order never contradicts key order, so a sort or
// merge compares prefixes first and falls through to Compare only when
// they tie: the keys then share 8 bytes, or are equal, or differ only in
// trailing zero bytes ("a" and "a\x00" pad to the same prefix).
func keyPrefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var p uint64
	for i, b := range key {
		p |= uint64(b) << (56 - 8*i)
	}
	return p
}

// SortPairs sorts in place by key (ties broken by value).
func SortPairs(ps []Pair) { slices.SortFunc(ps, Compare) }

// IsSorted reports whether ps is non-decreasing under Compare, the order
// every sorter produces and MergeRuns and MergeGroups require of their
// runs.
func IsSorted(ps []Pair) bool {
	return slices.IsSortedFunc(ps, Compare)
}

// Encode appends the length-prefixed binary framing of p to dst and
// returns the extended slice. Framing: uvarint keyLen, key, uvarint
// valLen, value.
func Encode(dst []byte, p Pair) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(p.Key)))
	dst = append(dst, tmp[:n]...)
	dst = append(dst, p.Key...)
	n = binary.PutUvarint(tmp[:], uint64(len(p.Value)))
	dst = append(dst, tmp[:n]...)
	dst = append(dst, p.Value...)
	return dst
}

// EncodeAll encodes a batch of pairs.
func EncodeAll(ps []Pair) []byte {
	var out []byte
	for _, p := range ps {
		out = Encode(out, p)
	}
	return out
}

// Decode reads one pair from buf, returning the pair and remaining bytes.
func Decode(buf []byte) (Pair, []byte, error) {
	klen, n := binary.Uvarint(buf)
	if n <= 0 {
		return Pair{}, nil, fmt.Errorf("kv: bad key length varint")
	}
	buf = buf[n:]
	if uint64(len(buf)) < klen {
		return Pair{}, nil, fmt.Errorf("kv: truncated key (want %d have %d)", klen, len(buf))
	}
	key := buf[:klen]
	buf = buf[klen:]
	vlen, n := binary.Uvarint(buf)
	if n <= 0 {
		return Pair{}, nil, fmt.Errorf("kv: bad value length varint")
	}
	buf = buf[n:]
	if uint64(len(buf)) < vlen {
		return Pair{}, nil, fmt.Errorf("kv: truncated value (want %d have %d)", vlen, len(buf))
	}
	val := buf[:vlen]
	buf = buf[vlen:]
	return Pair{Key: key, Value: val}, buf, nil
}

// DecodeAll decodes the full buffer into pairs.
func DecodeAll(buf []byte) ([]Pair, error) {
	var out []Pair
	for len(buf) > 0 {
		p, rest, err := Decode(buf)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		buf = rest
	}
	return out, nil
}

// Partitioner maps a key to one of n partitions.
type Partitioner interface {
	Partition(key []byte, n int) int
}

// HashPartitioner is Hadoop's default: hash(key) mod n, using FNV-1a.
type HashPartitioner struct{}

// Partition implements Partitioner. The FNV-1a round is inlined (same
// constants, same result as hash/fnv) to avoid the hasher allocation on
// the per-record emit path.
func (HashPartitioner) Partition(key []byte, n int) int {
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return int(h % uint32(n))
}

// RangePartitioner splits the key space at precomputed boundaries,
// preserving global order across partitions — what TeraSort-style total
// order sorting uses. Boundary i is the smallest key of partition i+1.
type RangePartitioner struct {
	Boundaries [][]byte
}

// Partition implements Partitioner via binary search on the boundaries.
func (r *RangePartitioner) Partition(key []byte, n int) int {
	lo, hi := 0, len(r.Boundaries)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(key, r.Boundaries[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= n {
		lo = n - 1
	}
	return lo
}

// SampleBoundaries computes n-1 range boundaries from a sample of keys so
// that partitions receive roughly equal record counts.
func SampleBoundaries(sample [][]byte, n int) [][]byte {
	if n <= 1 || len(sample) == 0 {
		return nil
	}
	sorted := make([][]byte, len(sample))
	copy(sorted, sample)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	bounds := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		idx := i * len(sorted) / n
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		bounds = append(bounds, append([]byte(nil), sorted[idx]...))
	}
	return bounds
}

// Reducer folds all values of one key into output pairs. The values
// slice is reused between keys: a reducer must not retain it after
// returning. The values themselves may alias the job's immutable input
// (a collector lent its block keeps them there, see
// PartitionCollector.Borrow), so a reducer must never write into them.
// The pairs it returns are retained as they are (they become the job's
// output), so their values must be fresh memory, never a buffer the
// reducer will write again; the key may be the one passed in. Engines
// run reduce tails ahead of their tasks, several partitions and jobs at
// once on different goroutines, so a reducer must not share mutable
// state between calls: its scratch is per goroutine (see job.Spec).
type Reducer func(key []byte, values [][]byte) []Pair

// GroupReduce walks sorted pairs, grouping equal keys and applying reduce.
// It returns the concatenated outputs in key order, sized from a count of
// the key groups: exact for a reducer that returns one pair per key.
func GroupReduce(sorted []Pair, reduce Reducer) []Pair {
	if len(sorted) == 0 {
		return nil // an empty partition stays nil, as it was when out grew from nil
	}
	out := make([]Pair, 0, countKeyRuns(sorted))
	var vals [][]byte // scratch, reused across groups
	for i := 0; i < len(sorted); {
		j := sameKeyRun(sorted, i)
		vals = vals[:0]
		for k := i; k < j; k++ {
			vals = append(vals, sorted[k].Value)
		}
		out = append(out, reduce(sorted[i].Key, vals)...)
		i = j
	}
	return out
}
