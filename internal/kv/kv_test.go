package kv

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	pairs := []Pair{
		{Key: []byte("hello"), Value: []byte("world")},
		{Key: []byte(""), Value: []byte("empty key")},
		{Key: []byte("k"), Value: []byte("")},
		{Key: []byte{0, 1, 2, 255}, Value: []byte{128, 0}},
	}
	buf := EncodeAll(pairs)
	got, err := DecodeAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pairs) {
		t.Fatalf("decoded %d pairs, want %d", len(got), len(pairs))
	}
	for i := range pairs {
		if !bytes.Equal(got[i].Key, pairs[i].Key) || !bytes.Equal(got[i].Value, pairs[i].Value) {
			t.Fatalf("pair %d: got %v want %v", i, got[i], pairs[i])
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	buf := EncodeAll([]Pair{{Key: []byte("abcdef"), Value: []byte("123456")}})
	for cut := 1; cut < len(buf); cut++ {
		if _, err := DecodeAll(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	prop := func(key, value []byte) bool {
		buf := Encode(nil, Pair{Key: key, Value: value})
		p, rest, err := Decode(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		return bytes.Equal(p.Key, key) && bytes.Equal(p.Value, value)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHashPartitionerRangeAndDeterminism(t *testing.T) {
	part := HashPartitioner{}
	prop := func(key []byte, n uint8) bool {
		parts := int(n)%32 + 1
		p1 := part.Partition(key, parts)
		p2 := part.Partition(key, parts)
		return p1 == p2 && p1 >= 0 && p1 < parts
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHashPartitionerSpreads(t *testing.T) {
	part := HashPartitioner{}
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		counts[part.Partition([]byte(fmt.Sprintf("key-%d", i)), 8)]++
	}
	for p, c := range counts {
		if c < 500 || c > 1500 {
			t.Fatalf("partition %d got %d of 8000 keys; poor spread %v", p, c, counts)
		}
	}
}

func TestRangePartitionerPreservesOrder(t *testing.T) {
	rp := &RangePartitioner{Boundaries: [][]byte{[]byte("g"), []byte("p")}}
	cases := map[string]int{"a": 0, "f": 0, "g": 1, "o": 1, "p": 2, "z": 2}
	for k, want := range cases {
		if got := rp.Partition([]byte(k), 3); got != want {
			t.Fatalf("Partition(%q) = %d, want %d", k, got, want)
		}
	}
}

func TestSampleBoundaries(t *testing.T) {
	var sample [][]byte
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		sample = append(sample, []byte(fmt.Sprintf("%05d", rng.Intn(100000))))
	}
	bounds := SampleBoundaries(sample, 4)
	if len(bounds) != 3 {
		t.Fatalf("got %d boundaries, want 3", len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bytes.Compare(bounds[i-1], bounds[i]) > 0 {
			t.Fatal("boundaries not sorted")
		}
	}
	// Partitioning the sample with these boundaries yields balanced parts.
	rp := &RangePartitioner{Boundaries: bounds}
	counts := make([]int, 4)
	for _, k := range sample {
		counts[rp.Partition(k, 4)]++
	}
	for p, c := range counts {
		if c < 100 || c > 500 {
			t.Fatalf("partition %d has %d of 1000 records: %v", p, c, counts)
		}
	}
}

func TestSortPairsAndIsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var ps []Pair
	for i := 0; i < 500; i++ {
		ps = append(ps, Pair{Key: []byte(fmt.Sprintf("%04d", rng.Intn(1000))), Value: []byte("v")})
	}
	if IsSorted(ps) {
		t.Fatal("random input unexpectedly sorted")
	}
	SortPairs(ps)
	if !IsSorted(ps) {
		t.Fatal("SortPairs did not sort")
	}
}

func TestGroupReduceSums(t *testing.T) {
	input := []Pair{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("a"), Value: []byte("2")},
		{Key: []byte("b"), Value: []byte("5")},
	}
	out := GroupReduce(input, SumReducer)
	if len(out) != 2 {
		t.Fatalf("got %d groups, want 2", len(out))
	}
	if string(out[0].Key) != "a" || string(out[0].Value) != "3" {
		t.Fatalf("group a = %v", out[0])
	}
	if string(out[1].Key) != "b" || string(out[1].Value) != "5" {
		t.Fatalf("group b = %v", out[1])
	}
	// One pair per key is the common reducer: the output is sized once,
	// from the count of key groups, and never regrown.
	if cap(out) != len(out) {
		t.Fatalf("%d groups in a slice of capacity %d, want it sized from the key-run count", len(out), cap(out))
	}
	// A reducer returning more than one pair per key still gets them all.
	twice := GroupReduce(input, func(key []byte, values [][]byte) []Pair {
		return []Pair{{Key: key, Value: values[0]}, {Key: key, Value: values[len(values)-1]}}
	})
	if len(twice) != 4 || string(twice[1].Value) != "2" || string(twice[3].Value) != "5" {
		t.Fatalf("two pairs per key: %v", twice)
	}
	if out := GroupReduce(nil, reemit); out != nil {
		t.Fatalf("no input reduced to %v", out)
	}
}

// reemit re-emits every value under its key.
func reemit(key []byte, values [][]byte) []Pair {
	out := make([]Pair, 0, len(values))
	for _, v := range values {
		out = append(out, Pair{Key: key, Value: v})
	}
	return out
}

func TestFormatParseIntRoundTrip(t *testing.T) {
	prop := func(n int64) bool { return ParseInt(FormatInt(n)) == n }
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if ParseInt([]byte("0")) != 0 || string(FormatInt(0)) != "0" {
		t.Fatal("zero mishandled")
	}
}

// TestAppendIntMatchesStrconv: every digit-count edge and both extremes;
// math.MinInt64 has no positive counterpart to negate into.
func TestAppendIntMatchesStrconv(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 9, -9, 10, -10, 99, -99, 100, -100, math.MaxInt64, math.MinInt64} {
		want := strconv.FormatInt(n, 10)
		if got := string(AppendInt([]byte("x"), n)); got != "x"+want {
			t.Errorf("AppendInt(\"x\", %d) = %q, want %q", n, got, "x"+want)
		}
		if got := string(FormatInt(n)); got != want {
			t.Errorf("FormatInt(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestMergeRunsProperty: merging sorted runs gives the bytes sorting
// their concatenation gives, for every run count (0, 1 and 2 take short
// cuts) and for keys that tie on their 8-byte prefix.
func TestMergeRunsProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nruns := rng.Intn(7)
		format := []string{"%04d", "longsharedprefix%04d", "%d"}[rng.Intn(3)]
		var runs [][]Pair
		var want []Pair
		for r := 0; r < nruns; r++ {
			var run []Pair
			for i := rng.Intn(50); i > 0; i-- {
				run = append(run, Pair{Key: []byte(fmt.Sprintf(format, rng.Intn(500))), Value: []byte{byte(rng.Intn(3))}})
			}
			SortPairs(run)
			runs = append(runs, run)
			want = append(want, run...)
		}
		SortPairs(want)
		return samePairs(MergeRuns(runs), want)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestIsSortedOrdersByKeyThenValue(t *testing.T) {
	if !IsSorted(pairsOf("a", "1", "a", "1", "a", "2", "b", "0")) {
		t.Fatal("a sorted run reported unsorted")
	}
	if IsSorted(pairsOf("a", "2", "a", "1")) {
		t.Fatal("equal keys with descending values reported sorted")
	}
	if IsSorted(pairsOf("b", "1", "a", "1")) {
		t.Fatal("descending keys reported sorted")
	}
}

func TestCombineSortedIdentityWithoutCombiner(t *testing.T) {
	in := []Pair{{Key: []byte("a"), Value: []byte("1")}}
	out := CombineSorted(in, nil)
	if !reflect.DeepEqual(in, out) {
		t.Fatal("nil combiner should be identity")
	}
}

func TestSumCombiner(t *testing.T) {
	got := SumCombiner([]byte("k"), [][]byte{[]byte("3"), []byte("4"), []byte("-2")})
	if len(got) != 1 || string(got[0]) != "5" {
		t.Fatalf("SumCombiner = %v", got)
	}
}
