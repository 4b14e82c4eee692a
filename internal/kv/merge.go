package kv

import (
	"bytes"
	"strconv"
)

// Combiner merges the values of one key into a smaller set of values,
// used for map-side aggregation (Hadoop's combiner, Spark's map-side
// combine, DataMPI's local aggregation). The values slice (and the
// slices it holds) is reused between keys: a combiner may rewrite it in
// place but must not retain it after returning. What it returns is
// retained as it is (the collector's runs point at it): each result is
// one of the values passed in or fresh memory, never a buffer the
// combiner will write again.
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
// not depend on how ties between runs break.
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
