package kv

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"sync"
)

// Combiner merges the values of one key into a smaller set of values,
// used for map-side aggregation (Hadoop's combiner, Spark's map-side
// combine, DataMPI's local aggregation). The values slice (and the
// slices it holds) is reused between keys: a combiner may rewrite it in
// place but must not retain it after returning. What it returns is
// retained as it is (a collector's runs, and what its Finish returns,
// point at it): each result is one of the values passed in or fresh
// memory, never a buffer the combiner will write again. Collectors of
// different tasks run at the same time on different goroutines, so a
// combiner's scratch must be per goroutine (see job.Spec).
type Combiner func(key []byte, values [][]byte) [][]byte

// SumCombiner adds decimal-encoded integer values — the WordCount
// combiner. It rewrites the first value slot in place (records carry
// capacity-bounded byte slices, so the append cannot touch a
// neighbouring record) instead of allocating a fresh container per key.
func SumCombiner(key []byte, values [][]byte) [][]byte {
	total := int64(0)
	for _, v := range values {
		total += parseInt(v)
	}
	values[0] = AppendInt(values[0][:0], total)
	return values[:1]
}

// SumReducer adds decimal-encoded integer values into one pair per key —
// the WordCount reducer.
func SumReducer(key []byte, values [][]byte) []Pair {
	total := int64(0)
	for _, v := range values {
		total += parseInt(v)
	}
	return []Pair{{Key: key, Value: AppendInt(nil, total)}}
}

func parseInt(b []byte) int64 {
	neg := false
	i := 0
	if len(b) > 0 && b[0] == '-' {
		neg = true
		i = 1
	}
	var n int64
	for ; i < len(b); i++ {
		if b[i] < '0' || b[i] > '9' {
			break
		}
		n = n*10 + int64(b[i]-'0')
	}
	if neg {
		return -n
	}
	return n
}

// ParseInt decodes a decimal-encoded integer value.
func ParseInt(b []byte) int64 { return parseInt(b) }

// FormatInt encodes an integer as decimal bytes.
func FormatInt(n int64) []byte { return AppendInt(nil, n) }

// AppendInt appends the decimal encoding of n to dst.
func AppendInt(dst []byte, n int64) []byte { return strconv.AppendInt(dst, n, 10) }

// sameKeyRun returns the end of the group of equal keys starting at i.
func sameKeyRun(sorted []Pair, i int) int {
	j := i + 1
	for j < len(sorted) && bytes.Equal(sorted[j].Key, sorted[i].Key) {
		j++
	}
	return j
}

// countKeyRuns returns the number of groups of equal keys in sorted.
func countKeyRuns(sorted []Pair) int {
	groups := 0
	for i := 0; i < len(sorted); i = sameKeyRun(sorted, i) {
		groups++
	}
	return groups
}

// CombineSorted applies a combiner to a key-sorted run, returning the
// combined (still sorted) pairs. Without a combiner the run itself is
// returned. The output is sized from a count of the key groups, exact
// for a combiner that keeps one value per key.
func CombineSorted(sorted []Pair, combine Combiner) []Pair {
	if combine == nil {
		return sorted
	}
	out := make([]Pair, 0, countKeyRuns(sorted))
	var vals [][]byte // scratch, reused across groups
	for i := 0; i < len(sorted); {
		j := sameKeyRun(sorted, i)
		vals = vals[:0]
		for k := i; k < j; k++ {
			vals = append(vals, sorted[k].Value)
		}
		for _, v := range combine(sorted[i].Key, vals) {
			out = append(out, Pair{Key: sorted[i].Key, Value: v})
		}
		i = j
	}
	return out
}

// mergeCursor is one run's position in a merge, carrying the key prefix
// of the pair it points at so most comparisons never touch record bytes.
type mergeCursor struct {
	prefix uint64
	run    int
	idx    int
}

// MergeRuns merges runs, each sorted under Compare (see IsSorted), into
// one sorted slice (nil when every run is empty). A single non-empty run
// is returned as it is, not copied; two are merged linearly; more go
// through a hand-rolled binary heap of cursors ordered by (key prefix,
// pair, run index). Equal pairs are byte-equal, so the output bytes do
// not depend on how ties between runs break. PartitionCollector, whose
// runs live in scratch it reuses, never meets the uncopied case: it
// merges only partitions that two or more fills reached, and a fill
// without a combiner gives every partition it reached a non-empty run.
func MergeRuns(runs [][]Pair) []Pair {
	total := 0
	h := make([]mergeCursor, 0, len(runs))
	for ri, r := range runs {
		total += len(r)
		if len(r) > 0 {
			h = append(h, mergeCursor{prefix: keyPrefix(r[0].Key), run: ri})
		}
	}
	switch len(h) {
	case 0:
		return nil
	case 1:
		return runs[h[0].run]
	case 2:
		return mergeTwo(runs[h[0].run], runs[h[1].run])
	}
	less := func(a, b mergeCursor) bool {
		if a.prefix != b.prefix {
			return a.prefix < b.prefix
		}
		if c := Compare(runs[a.run][a.idx], runs[b.run][b.idx]); c != 0 {
			return c < 0
		}
		return a.run < b.run
	}
	siftDown := func(i int) {
		for {
			l, r, s := 2*i+1, 2*i+2, i
			if l < len(h) && less(h[l], h[s]) {
				s = l
			}
			if r < len(h) && less(h[r], h[s]) {
				s = r
			}
			if s == i {
				return
			}
			h[i], h[s] = h[s], h[i]
			i = s
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	out := make([]Pair, 0, total)
	for len(h) > 0 {
		top := &h[0]
		run := runs[top.run]
		out = append(out, run[top.idx])
		if top.idx++; top.idx < len(run) {
			top.prefix = keyPrefix(run[top.idx].Key)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 1 {
			siftDown(0)
		}
	}
	return out
}

// groupCursor is one run's position in a grouping merge: the prefix and
// length of the key it points at, which order most keys without touching
// their bytes (see before). An exhausted cursor has the largest prefix
// and klen -1.
type groupCursor struct {
	prefix uint64
	klen   int32
	run    int32
	idx    int
}

// groupScratch is what a grouping merge works in: the cursors and the
// loser tree over them, one key's values and, for MergeReduce and
// MergeCombine, the output before its exact-size copy. It holds no
// pointers between calls, so it is pooled.
type groupScratch struct {
	cur  []groupCursor // one per non-empty run, in run order
	tree []int32       // tree[0] is the winning cursor, tree[1:] the loser of each match
	vals [][]byte
	out  []Pair
}

var groupPool = sync.Pool{New: func() any { return new(groupScratch) }}

// MergeGroups merges runs, each sorted under Compare (see IsSorted), and
// calls fn once per distinct key, in key order, with the key's values in
// ascending byte order: exactly the groups GroupReduce(MergeRuns(runs), …)
// forms, down to which record's memory each value is, without building
// the merged slice. It returns the number of records merged. fn gets the
// values under Reducer's and Combiner's rules: the slice is reused between
// keys, and fn may rewrite the values in place.
//
// A loser tree orders the runs' cursors by key alone, ties broken by run
// index. A whole group leaves it at once: every cursor at the key hands
// over all its consecutive records with that key, lowest run first. Each
// run's values are ascending already, so only a run boundary can break
// the order; when one does, a stable sort restores it and equal values
// keep their run order, as MergeRuns's ties do.
func MergeGroups(runs [][]Pair, fn func(key []byte, values [][]byte)) int {
	s := groupPool.Get().(*groupScratch)
	n := s.mergeGroups(runs, fn)
	s.release()
	return n
}

// MergeReduce is GroupReduce(MergeRuns(runs), reduce) without the merged
// slice: the same pairs in a slice of their exact size, nil when the runs
// hold no record.
func MergeReduce(runs [][]Pair, reduce Reducer) []Pair {
	s := groupPool.Get().(*groupScratch)
	n := s.mergeGroups(runs, func(key []byte, values [][]byte) {
		s.out = append(s.out, reduce(key, values)...)
	})
	return s.result(n)
}

// MergeCombine is CombineSorted(MergeRuns(runs), combine) without the
// merged slice, for a non-nil combiner: the same pairs in a slice of their
// exact size, nil when the runs hold no record.
func MergeCombine(runs [][]Pair, combine Combiner) []Pair {
	s := groupPool.Get().(*groupScratch)
	n := s.mergeGroups(runs, func(key []byte, values [][]byte) {
		for _, v := range combine(key, values) {
			s.out = append(s.out, Pair{Key: key, Value: v})
		}
	})
	return s.result(n)
}

// result copies the output into a slice of its exact size (nil for no
// records, as GroupReduce gives) and releases the scratch.
func (s *groupScratch) result(records int) []Pair {
	var out []Pair
	if records > 0 {
		out = make([]Pair, len(s.out))
		copy(out, s.out)
	}
	s.release()
	return out
}

// release clears the scratch, so the pool pins no record, and pools it
// unless it outgrew maxPooledScratch.
func (s *groupScratch) release() {
	clear(s.vals[:cap(s.vals)])
	clear(s.out[:cap(s.out)])
	s.cur, s.tree, s.vals, s.out = s.cur[:0], s.tree[:0], s.vals[:0], s.out[:0]
	if cap(s.cur)*24+cap(s.tree)*4+cap(s.vals)*24+cap(s.out)*48 <= maxPooledScratch {
		groupPool.Put(s)
	}
}

// before orders cursors a and b by key, then by position (run order).
func (s *groupScratch) before(runs [][]Pair, a, b int32) bool {
	x, y := &s.cur[a], &s.cur[b]
	return x.prefix < y.prefix || x.prefix == y.prefix && s.tieBefore(runs, a, b)
}

// tieBefore is before for cursors whose prefixes tie. When either key is
// at most 8 bytes its whole content is in the prefix, so the shorter key
// is the smaller one (a proper prefix of the other, or zero-padded to look
// like one) and equal lengths mean equal keys. Only two longer keys need
// their bytes compared. An exhausted cursor comes after every other.
func (s *groupScratch) tieBefore(runs [][]Pair, a, b int32) bool {
	x, y := &s.cur[a], &s.cur[b]
	switch {
	case x.klen < 0 || y.klen < 0:
		return y.klen < 0 && (x.klen >= 0 || a < b)
	case x.klen <= 8 || y.klen <= 8:
		if x.klen != y.klen {
			return x.klen < y.klen
		}
	default:
		if c := bytes.Compare(runs[x.run][x.idx].Key, runs[y.run][y.idx].Key); c != 0 {
			return c < 0
		}
	}
	return a < b
}

// replay plays cursor c, just moved, from its leaf up the loser tree: one
// match per level, whose winner goes on up. Cursor i's leaf is node
// len(cur)+i, and node n's parent is n/2.
func (s *groupScratch) replay(runs [][]Pair, c int32) {
	t, cur := s.tree, s.cur
	for n := (int(c) + len(t)) / 2; n >= 1; n /= 2 {
		// before, by hand: it is too large for the compiler to inline.
		o := t[n]
		if p, q := cur[o].prefix, cur[c].prefix; p < q || p == q && s.tieBefore(runs, o, c) {
			t[n], c = c, o
		}
	}
	t[0] = c
}

func (s *groupScratch) mergeGroups(runs [][]Pair, fn func(key []byte, values [][]byte)) int {
	for ri, r := range runs {
		if len(r) > 0 {
			s.cur = append(s.cur, groupCursor{prefix: keyPrefix(r[0].Key), klen: int32(len(r[0].Key)), run: int32(ri)})
		}
	}
	k := len(s.cur)
	if k == 0 {
		return 0
	}
	// Build the tree: each cursor plays up from its leaf and waits at the
	// first node nobody holds yet, for the winner of the other subtree.
	t := slices.Grow(s.tree[:0], k)[:k]
	for n := range t {
		t[n] = -1
	}
	s.tree = t
	for c := range int32(k) {
		w := c
		for n := (int(c) + k) / 2; n >= 1 && w >= 0; n /= 2 {
			if t[n] < 0 {
				t[n], w = w, -1
			} else if s.before(runs, t[n], w) {
				t[n], w = w, t[n]
			}
		}
		if w >= 0 {
			t[0] = w
		}
	}
	records := 0
	vals := s.vals
	for w := t[0]; s.cur[w].klen >= 0; w = t[0] {
		first := s.cur[w]
		key := runs[first.run][first.idx].Key
		vals = vals[:0]
		sorted := true
		for {
			c := &s.cur[w]
			run := runs[c.run]
			i := c.idx
			if len(vals) > 0 && bytes.Compare(vals[len(vals)-1], run[i].Value) > 0 {
				sorted = false
			}
			vals = append(vals, run[i].Value)
			c.prefix, c.klen = math.MaxUint64, -1
			for i++; i < len(run); i++ {
				next := run[i].Key
				p := keyPrefix(next)
				if p != first.prefix || int32(len(next)) != first.klen || (first.klen > 8 && !bytes.Equal(next, key)) {
					c.prefix, c.klen = p, int32(len(next))
					break
				}
				vals = append(vals, run[i].Value)
			}
			records += i - c.idx
			c.idx = i
			s.replay(runs, w)
			w = t[0]
			if nx := &s.cur[w]; nx.prefix != first.prefix || nx.klen != first.klen ||
				(first.klen > 8 && !bytes.Equal(runs[nx.run][nx.idx].Key, key)) {
				break
			}
		}
		if !sorted {
			slices.SortStableFunc(vals, bytes.Compare)
		}
		fn(key, vals)
	}
	s.vals = vals
	return records
}

// mergeTwo is the two-run merge: no heap, one prefix per side.
func mergeTwo(a, b []Pair) []Pair {
	out := make([]Pair, 0, len(a)+len(b))
	i, j := 0, 0
	pa, pb := keyPrefix(a[0].Key), keyPrefix(b[0].Key)
	for {
		if pa < pb || (pa == pb && Compare(a[i], b[j]) <= 0) {
			out = append(out, a[i])
			if i++; i == len(a) {
				return append(out, b[j:]...)
			}
			pa = keyPrefix(a[i].Key)
		} else {
			out = append(out, b[j])
			if j++; j == len(b) {
				return append(out, a[i:]...)
			}
			pb = keyPrefix(b[j].Key)
		}
	}
}
