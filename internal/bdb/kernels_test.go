package bdb

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/core"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/mr"
)

// The oracle below is the K-means codec and kernels as they were before
// the sparse accumulator: bytes.Fields, a fresh KMeansDim dense vector per
// record and per key, a walk over all 10,000 slots through fmt.Fprintf.
// One thing is added: where the old code narrowed an index with int32()
// and then indexed (or panicked) with it, the oracle calls the vector
// malformed, which is what the kernels now do with it.

func oracleParse(b []byte) (idx []int, val []float64, err error) {
	for _, tok := range bytes.Fields(b) {
		c := bytes.IndexByte(tok, ':')
		if c < 0 {
			return idx, val, fmt.Errorf("bdb: bad vector component %q", tok)
		}
		i, err := strconv.Atoi(string(tok[:c]))
		if err != nil {
			return idx, val, fmt.Errorf("bdb: bad index in %q: %v", tok, err)
		}
		x, err := strconv.ParseFloat(string(tok[c+1:]), 64)
		if err != nil {
			return idx, val, fmt.Errorf("bdb: bad value in %q: %v", tok, err)
		}
		idx = append(idx, i)
		val = append(val, x)
	}
	return idx, val, nil
}

// oracleTermVec is oracleParse for the kernels: in the term space or not
// a vector at all.
func oracleTermVec(b []byte) (SparseVec, bool) {
	idx, val, err := oracleParse(b)
	if err != nil {
		return SparseVec{}, false
	}
	v := SparseVec{Val: val}
	for _, i := range idx {
		if i < 0 || i >= KMeansDim {
			return SparseVec{}, false
		}
		v.Idx = append(v.Idx, int32(i))
	}
	return v, true
}

func oracleEncode(n int64, sum []float64) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%d|", n)
	first := true
	for i, x := range sum {
		if x == 0 {
			continue
		}
		if !first {
			buf.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&buf, "%d:%.6g", i, x)
	}
	return buf.Bytes()
}

func oracleSum(values [][]byte) (int64, []float64) {
	var total int64
	sum := make([]float64, KMeansDim)
	for _, val := range values {
		i := bytes.IndexByte(val, '|')
		if i < 0 {
			continue
		}
		n, err := strconv.ParseInt(string(val[:i]), 10, 64)
		if err != nil {
			continue
		}
		v, ok := oracleTermVec(val[i+1:])
		if !ok {
			continue
		}
		total += n
		v.AddTo(sum)
	}
	return total, sum
}

func oracleCombine(values [][]byte) []byte { return oracleEncode(oracleSum(values)) }

func oracleReduce(values [][]byte) []byte {
	total, sum := oracleSum(values)
	if total > 0 {
		for i := range sum {
			sum[i] /= float64(total)
		}
	}
	return oracleEncode(total, sum)
}

func oracleAssign(line []byte, cents [][]float64, norms []float64) (key, val []byte, ok bool) {
	v, ok := oracleTermVec(line)
	if !ok || len(v.Idx) == 0 {
		return nil, nil, false
	}
	sum := make([]float64, KMeansDim)
	v.AddTo(sum)
	return []byte(strconv.Itoa(NearestCentroid(v, cents, norms))), oracleEncode(1, sum), true
}

// testCentroids are three fixed dense centroids for the assign step.
func testCentroids() ([][]float64, []float64) {
	cents := make([][]float64, 3)
	for ci := range cents {
		cents[ci] = make([]float64, KMeansDim)
		for j := ci; j < KMeansDim; j += 7 + ci {
			cents[ci][j] = 1 / float64(1+j%13)
		}
	}
	return cents, norms2(cents)
}

// checkKernelsAgainstOracle treats each line of data as one partial value
// ("count|vector") for combine and reduce, and its vector part as one
// input record for the assign map.
func checkKernelsAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	values := bytes.Split(data, []byte("\n"))
	key := []byte("2")
	if got, want := kmeansCombine(key, values), oracleCombine(values); len(got) != 1 || !bytes.Equal(got[0], want) {
		t.Fatalf("combine: got %q, oracle %q", got, want)
	}
	got, want := kmeansReduce(key, values), oracleReduce(values)
	if len(got) != 1 || !bytes.Equal(got[0].Key, key) || !bytes.Equal(got[0].Value, want) {
		t.Fatalf("reduce: got %q, oracle %q", got, want)
	}
	cents, norms := testCentroids()
	assign := kmeansAssign(cents, norms)
	for _, val := range values {
		line := val[bytes.IndexByte(val, '|')+1:]
		checkParseAgainstOracle(t, line)
		var gotK, gotV []byte
		emitted := 0
		assign(nil, line, func(k, v []byte) {
			gotK, gotV = bytes.Clone(k), bytes.Clone(v)
			emitted++
		})
		wantK, wantV, ok := oracleAssign(line, cents, norms)
		if (emitted == 1) != ok || emitted > 1 || !bytes.Equal(gotK, wantK) || !bytes.Equal(gotV, wantV) {
			t.Fatalf("assign %q: got %d x (%q, %q), oracle %v (%q, %q)", line, emitted, gotK, gotV, ok, wantK, wantV)
		}
	}
	// Every accumulator went back to the pool empty.
	p := partialPool.Get().(*partialSum)
	defer partialPool.Put(p)
	if slices.ContainsFunc(p.sum, func(x float64) bool { return x != 0 }) || slices.ContainsFunc(p.touched, func(w uint64) bool { return w != 0 }) {
		t.Fatal("a pooled accumulator is not empty")
	}
}

// checkParseAgainstOracle: the parser gives the old parser's components
// bit for bit, or the error the old parser gives first with the same
// text, where an index outside int32 (which the old parser narrowed) is
// an error of its own (see TestParseSparseVecMatchesOldParser).
func checkParseAgainstOracle(t *testing.T, line []byte) {
	t.Helper()
	want := ""
	for _, tok := range bytes.Fields(line) {
		_, _, err := oracleParse(tok)
		if c := bytes.IndexByte(tok, ':'); c >= 0 {
			if i, aerr := strconv.Atoi(string(tok[:c])); aerr == nil && (i < 0 || i > math.MaxInt32) {
				err = fmt.Errorf("bdb: index out of range in %q", tok)
			}
		}
		if err != nil {
			want = err.Error()
			break
		}
	}
	var v SparseVec
	_, err := v.parse(line)
	if got := fmt.Sprint(err); err == nil && want != "" || err != nil && got != want {
		t.Fatalf("parse %q: error %v, want %q", line, err, want)
	}
	if err != nil {
		return
	}
	idx, val, _ := oracleParse(line)
	if len(v.Idx) != len(idx) {
		t.Fatalf("parse %q: %d components, old parser %d", line, len(v.Idx), len(idx))
	}
	for i := range idx {
		if int(v.Idx[i]) != idx[i] || math.Float64bits(v.Val[i]) != math.Float64bits(val[i]) {
			t.Fatalf("parse %q: component %d is %d:%v, old parser %d:%v", line, i, v.Idx[i], v.Val[i], idx[i], val[i])
		}
	}
}

var partialCases = []struct{ name, data string }{
	{"plain", "1|3:0.25 17:0.5 9999:0.125\n1|3:0.75 40:1"},
	{"duplicate indices in one vector", "1|5:1 5:2 5:0.5 2:1\n2|2:1 5:1 2:1"},
	{"sums cancelling to exactly 0", "1|7:0.5 8:1\n1|7:-0.5 9:2\n1|7:0.25\n1|7:-0.25"},
	{"cancelled then touched again", "1|7:1 7:-1 7:3"},
	{"negative and exponent-form values", "1|1:-0.000012345678 2:1e-5 3:-1e-7 4:123456789 5:0.00009999995\n3|1:1e21 2:5e-324 6:-0.1234567891"},
	{"unsorted indices", "1|9000:1 3:2 500:3 4:4"},
	{"empty vector", "4|\n1|1:1"},
	{"only an empty vector", "4|"},
	{"count zero", "0|1:2 3:4"},
	{"negative count", "-3|1:2 3:4\n1|1:1"},
	{"non-finite values", "1|1:Inf 2:-Inf 3:NaN 4:+Inf 5:infinity\n1|1:1 2:Inf 4:-Inf"},
	{"overflow to infinity", "1|1:1e308 2:-1e308\n1|1:1e308 2:-1e308"},
	{"last index of the term space", "1|9999:1 0:2\n1|9999:0.5"},
	{"index just outside the term space", "1|10000:1\n1|3:1"},
	{"negative index", "1|-1:1\n1|3:1"},
	{"index that int32 would wrap into range", "1|4294967297:1\n1|3:1"},
	{"index beyond int", "1|99999999999999999999:1\n1|3:1"},
	{"malformed tokens", "1|3\n1|x:1\n1|3:y\n1|3:1 4\nx|3:1\n|3:1\n3:1\n1|:1\n1|3:\n\n1|+3:1 -0:2"},
	{"runs of ASCII space", "1| 3:1\t\t4:2 \r5:3\v\f \n1|  "},
	{"second separator", "1|2|3:1\n1|3:1|4"},
	{"15 and 16 significant digits", "1|1:0.123456789012345 2:0.1234567890123456 3:123456789012345 4:1234567890123456 5:-9.99999999999999 6:0.000000000000000123456789012345 7:0.9999999999999999 8:9007199254740993 9:0.12345678901234567"},
	{"22 and 23 fraction digits", "1|1:0.0000000000000000000001 2:0.00000000000000000000001 3:0.1234567890123450000000 4:1.00000000000000000000000 5:-0.9999999999999999999999"},
	{"%.6g ties", "1|1:0.1234565 2:0.12345650 3:1234565 4:123456.5 5:0.0001234565 6:-0.1234565\n1|1:0.1234575 4:0.5"},
	{"edges of 1e-4 and 1e6", "1|1:0.0001 2:0.00009999 3:0.0000999995 4:0.00009999995 5:999999 6:1000000 7:999999.5 8:100000 9:999999.4 10:-0.0001\n1|1:0.00009999\n1|1:0.00001\n1|1:1000000\n1|1:999999\n1|1:-0.0001"},
	{"-0 and zero forms", "1|1:-0 2:0 3:-0.0 4:0.000 5:-\n1|1:. 2:-. 3:0.0\n1|1:-0 2:0.5\n1|1:1.2.3\n1|1:..5"},
	{"leading and trailing zeros", "1|01:0.25 2:000.25 3:0.2500 4:100 5:100.0 6:5. 7:.5 8:-.5 9:007\n1|0:0.25 00:1\n1|1:5.\n1|1:0.25 2:5.\n1|1:0.250\n1|01:0.25\n1|0:0.5 02:0.25"},
	{"exponent forms", "1|1:1e-4 2:1E5 3:2.5e+00 4:1e6 5:0.1e1 6:1e-05 7:-2.5E-3"},
	{"duplicate and descending indices", "1|3:0.25 3:0.5\n1|5:0.25 4:0.5\n1|4:0.5 4:-0.5\n1|0:1 1:1 1:1"},
	{"index outside int32 before a bad value", "1|-1:\n1|4294967297:x\n1|3:1 -1:\n1|3:x -1:1"},
	{"doubled spaces and tabs", "1|1:0.5  2:0.25\n1|1:0.5\t2:0.25\n1| 1:0.5\n1|1:0.5 \n1|1:0.5\r"},
}

func TestPartialMatchesDenseOracle(t *testing.T) {
	for _, c := range partialCases {
		t.Run(c.name, func(t *testing.T) { checkKernelsAgainstOracle(t, []byte(c.data)) })
	}
	t.Run("generated block", func(t *testing.T) {
		var data []byte
		for i, ln := range vectorLines(t, 29) {
			data = append(append(strconv.AppendInt(data, int64(i%3), 10), '|'), ln...)
			data = append(data, '\n')
		}
		checkKernelsAgainstOracle(t, data)
	})
}

// FuzzPartialMatchesDenseOracle pins the accumulator and the strconv
// codec to the dense fmt oracle byte for byte, on ASCII input: a
// non-ASCII space (U+0085, U+00A0) separated fields for bytes.Fields and
// is part of a — then malformed — token for the ASCII scanner, and no
// generator writes one.
func FuzzPartialMatchesDenseOracle(f *testing.F) {
	for _, c := range partialCases {
		f.Add([]byte(c.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if slices.ContainsFunc(data, func(b byte) bool { return b >= 0x80 }) {
			t.Skip("non-ASCII input")
		}
		checkKernelsAgainstOracle(t, data)
	})
}

// FuzzFormatMatchesStrconv pins the %g writer to strconv.AppendFloat at
// the codec's two precisions, for any float64 and for one in the fast
// path's range built from the same bits: mantissa and sign from bits, a
// binary exponent in [-14, 50).
func FuzzFormatMatchesStrconv(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 2.5, 1234.5, 0.1234565, 123456.5, 999999.5,
		9999.5, 1e-4, math.Nextafter(1e-4, 0), math.Nextafter(1e-4, 1), 1e-5, 1e6, math.Nextafter(1e6, 0),
		1e15, math.Nextafter(1e15, 0), 999999999999999.9, 5e-324, math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), 0.1, 0.3, 1.0 / 3, 123456789, 0.00012345, -0.00999995} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		inRange := math.Float64frombits(bits&(1<<63|(1<<52-1)) | uint64(1023-14+int(bits>>52%64))<<52)
		for _, x := range []float64{math.Float64frombits(bits), inRange} {
			for _, prec := range []int{4, 6} {
				if got, want := appendG(nil, x, prec), strconv.AppendFloat(nil, x, 'g', prec, 64); !bytes.Equal(got, want) {
					t.Fatalf("%%.%dg of %v (%#x): %q, strconv %q", prec, x, math.Float64bits(x), got, want)
				}
			}
		}
	})
}

// TestDecadesBoundExactPowers: a >= decades[i] exactly when a >= 10^(i-4),
// for every float64 a, because no float64 lies in [10^(i-4), decades[i]).
func TestDecadesBoundExactPowers(t *testing.T) {
	for i, d := range decades {
		exact := big.NewRat(1, 1)
		ten := big.NewRat(10, 1)
		for range i - 4 {
			exact.Mul(exact, ten)
		}
		for range 4 - i {
			exact.Quo(exact, ten)
		}
		below := new(big.Rat).SetFloat64(math.Nextafter(d, 0))
		if new(big.Rat).SetFloat64(d).Cmp(exact) < 0 || below.Cmp(exact) >= 0 {
			t.Fatalf("decades[%d] = %v does not bound 10^%d from above", i, d, i-4)
		}
	}
}

// TestGeneratedVectorsAreVerbatim: every generated vector takes the
// assign step's verbatim path, so a generator or codec change that turns
// it off fails here rather than only costing time.
func TestGeneratedVectorsAreVerbatim(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		in, _ := GenerateVectorFile(freshFS(64*cluster.KB, 1), "/vec", seed, 256*cluster.KB)
		var v SparseVec
		for _, blk := range in.Blocks {
			for _, ln := range bytes.Split(blk.Data, []byte("\n")) {
				if len(ln) == 0 {
					continue
				}
				if verbatim, err := v.parseTerms(ln); err != nil || !verbatim {
					t.Fatalf("seed %d: %q: verbatim %v, err %v", seed, ln, verbatim, err)
				}
			}
		}
	}
}

// TestParseReportsVerbatim: parse calls a line verbatim when it is what
// partialSum.encode(1) prints after "1|" with every value in fixed form,
// and only then.
func TestParseReportsVerbatim(t *testing.T) {
	for _, ln := range []string{"0:0.5 7:-0.0001 12:123456 13:0.25 9999:1", "5:999999", "3:100000 4:0.000123457"} {
		var v SparseVec
		verbatim, err := v.parse([]byte(ln))
		p := partialPool.Get().(*partialSum)
		p.add(v)
		enc := string(p.encode(1))
		partialPool.Put(p)
		if err != nil || !verbatim || enc != "1|"+ln {
			t.Errorf("%q: verbatim %v (err %v), encodes as %q", ln, verbatim, err, enc)
		}
	}
	for _, ln := range []string{"1:1e-05", "1:0.00001", "1:1000000", "1:0.1234567", "01:0.5", "0:0.5 00:1",
		"2:1 1:1", "1:1 1:1", "1:0.5  2:1", "1:0.5\t2:1", " 1:0.5", "1:0.5 ", "1:0", "1:-0", "1:0.50", "1:.5",
		"1:5.", "1:+5", "1:05", "-1:1", ""} {
		var v SparseVec
		if verbatim, _ := v.parse([]byte(ln)); verbatim {
			t.Errorf("%q: verbatim", ln)
		}
	}
}

// TestParseSparseVecMatchesOldParser: same components, and an error
// exactly where the old parser had one — or narrowed an index that does
// not fit in an int32.
func TestParseSparseVecMatchesOldParser(t *testing.T) {
	lines := []string{"", "  ", "1:2", "1:2 3:4.5", "+1:2", "-0:2", "1:+2", "01:1e3", "1:0x1p-2", "1:1_0",
		"1", "1:", ":1", ":", "1:2:3", "a:1", "1:a", "1:2 x", "1.5:2", "1:2,3:4", "1 :2", "0x10:1", "1_0:1",
		"2147483647:1", "2147483648:1", "-1:1", "-2147483648:1", "4294967297:1", "99999999999999999999:1",
		"1:Inf", "1:NaN", "1:-inf", "1:1e999", "\t1:2\r\n", "1:2\v3:4\f5:6"}
	for _, c := range partialCases {
		lines = append(lines, c.data)
	}
	for _, ln := range lines {
		idx, val, oldErr := oracleParse([]byte(ln))
		narrowed := slices.ContainsFunc(idx, func(i int) bool { return i < 0 || i > math.MaxInt32 })
		v, err := ParseSparseVec([]byte(ln))
		if (err != nil) != (oldErr != nil || narrowed) {
			t.Fatalf("%q: error %v, old parser %v, index outside int32 %v", ln, err, oldErr, narrowed)
		}
		if err != nil {
			continue
		}
		if len(v.Idx) != len(idx) {
			t.Fatalf("%q: %d components, old parser %d", ln, len(v.Idx), len(idx))
		}
		for i := range idx {
			if int(v.Idx[i]) != idx[i] || math.Float64bits(v.Val[i]) != math.Float64bits(val[i]) {
				t.Fatalf("%q: component %d is %d:%v, old parser %d:%v", ln, i, v.Idx[i], v.Val[i], idx[i], val[i])
			}
		}
	}
}

// TestMarshalTextMatchesFmt pins the strconv vector writer to the old
// "%d:%.4g" one.
func TestMarshalTextMatchesFmt(t *testing.T) {
	v := SparseVec{
		Idx: []int32{0, 7, 123, 9999, 5, 6, 8, 9},
		Val: []float64{1, 0.5, 0.123456789, 1e-5, -3.25e7, math.Inf(1), math.Inf(-1), math.NaN()},
	}
	var want bytes.Buffer
	for i := range v.Idx {
		if i > 0 {
			want.WriteByte(' ')
		}
		fmt.Fprintf(&want, "%d:%.4g", v.Idx[i], v.Val[i])
	}
	if got := v.MarshalText(); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("MarshalText %q, fmt %q", got, want.Bytes())
	}
	if got := (SparseVec{}).MarshalText(); len(got) != 0 {
		t.Fatalf("empty vector marshals to %q", got)
	}
}

// vectorLines generates one 32 KB block of K-means input and returns its
// lines.
func vectorLines(t testing.TB, seed int64) [][]byte {
	t.Helper()
	in, _ := GenerateVectorFile(freshFS(32*cluster.KB, 1), "/vec", seed, 32*1024)
	var lines [][]byte
	for _, ln := range bytes.Split(in.Blocks[0].Data, []byte("\n")) {
		if len(ln) > 0 {
			lines = append(lines, ln)
		}
	}
	if len(lines) < 20 {
		t.Fatalf("only %d vectors generated", len(lines))
	}
	return lines
}

// partialsOf is what a combiner sees for one cluster: each line as a
// "1|vector" partial.
func partialsOf(lines [][]byte) [][]byte {
	vals := make([][]byte, len(lines))
	for i, ln := range lines {
		vals[i] = append([]byte("1|"), ln...)
	}
	return vals
}

// medianAllocs runs f n times and returns the median heap allocations and
// bytes of one call. The median and not testing.AllocsPerRun's mean:
// under the race detector sync.Pool drops a quarter of what is Put, and a
// kernel call that finds the pool empty builds a new 90 KB accumulator.
func medianAllocs(n int, f func()) (mallocs, size uint64) {
	ms, bs := make([]uint64, n), make([]uint64, n)
	var before, after runtime.MemStats
	for i := range ms {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		ms[i], bs[i] = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	}
	slices.Sort(ms)
	slices.Sort(bs)
	return ms[n/2], bs[n/2]
}

// TestKMeansAllocs guards the steady state of the three kernels on real
// generated vectors: no 80 KB dense vector, no SparseVec and no boxed
// fmt argument per record or per key.
func TestKMeansAllocs(t *testing.T) {
	lines := vectorLines(t, 31)
	cents, norms := testCentroids()
	assign := kmeansAssign(cents, norms)
	drop := func(k, v []byte) {}
	i := 0
	mallocs, size := medianAllocs(101, func() {
		assign(nil, lines[i%len(lines)], drop)
		i++
	})
	t.Logf("assign map: %d allocs, %d B per record", mallocs, size)
	if mallocs > 2 || size >= 1024 {
		t.Errorf("assign map: %d allocs, %d B per record, want <= 2 allocs and < 1 KB", mallocs, size)
	}
	vals := partialsOf(lines[:20])
	mallocs, size = medianAllocs(101, func() { kmeansCombine(nil, vals) })
	t.Logf("combine: %d allocs, %d B per key", mallocs, size)
	if mallocs > 3 || size >= 40<<10 {
		t.Errorf("combine: %d allocs, %d B per key of 20 partials, want <= 3 allocs and well under 80 KB", mallocs, size)
	}
	mallocs, size = medianAllocs(101, func() { kmeansReduce(nil, vals) })
	t.Logf("reduce: %d allocs, %d B per key", mallocs, size)
	if mallocs > 3 || size >= 40<<10 {
		t.Errorf("reduce: %d allocs, %d B per key of 20 partials, want <= 3 allocs and well under 80 KB", mallocs, size)
	}
}

// TestKMeansIgnoresOutOfRangeIndices: vector lines whose indices the
// dense centroids cannot hold — 10000, -1, and 4294967297, which int32()
// used to turn into 1 — are skipped like any other malformed record
// (they used to panic the simulator in AddTo), and training comes out as
// the reference's on the clean lines.
func TestKMeansIgnoresOutOfRangeIndices(t *testing.T) {
	const k = 5
	cleanFS := freshFS(32*cluster.KB, 1)
	clean, _ := GenerateVectorFile(cleanFS, "/vec", 37, 96*1024)
	bad := [][]byte{[]byte("10000:1"), []byte("-1:1"), []byte("4294967297:1"), []byte("3:0.5 10000:0.5 7:0.5"), []byte("2147483648:1")}
	var dirty []byte
	n := 0
	for _, blk := range clean.Blocks {
		for _, ln := range bytes.Split(blk.Data, []byte("\n")) {
			if len(ln) == 0 {
				continue
			}
			dirty = append(append(dirty, ln...), '\n')
			if n++; n >= k && n%9 == 0 {
				dirty = append(append(dirty, bad[n/9%len(bad)]...), '\n')
			}
		}
	}
	init, err := InitialCentroids(clean, k)
	if err != nil {
		t.Fatal(err)
	}
	want, err := KMeansReference(clean, init, 2)
	if err != nil {
		t.Fatal(err)
	}
	fsys := freshFS(32*cluster.KB, 1)
	in := fsys.PreloadAligned("/dirty", dirty, '\n')
	res := KMeansMR(mr.New(fsys, mr.DefaultConfig()), fsys, in, "/km", k, 5, 2, 0)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for ci := range want {
		for j := range want[ci] {
			if math.Abs(res.Centroids[ci][j]-want[ci][j]) > 1e-6 {
				t.Fatalf("centroid %d component %d: %v, reference on the clean lines %v", ci, j, res.Centroids[ci][j], want[ci][j])
			}
		}
	}
	// The cold callers report such a line instead of panicking on it.
	if _, err := InitialCentroids(fsys.PreloadAligned("/bad", []byte("10000:1\n"), '\n'), 1); err == nil {
		t.Fatal("InitialCentroids accepted index 10000")
	}
	if _, err := KMeansReference(in, init, 1); err == nil {
		t.Fatal("KMeansReference accepted the dirty file")
	}
}

// TestKernelsConcurrently runs two K-means trainings and one Naive Bayes
// training, each on a cluster and file system of its own, first one after
// the other and then in parallel goroutines — the shape harness's parallel
// sweep runner produces, with every simulation drawing on partialPool at
// once. Run under -race.
func TestKernelsConcurrently(t *testing.T) {
	type outcome struct {
		cents   [][]float64
		model   *NBModel
		elapsed float64
		err     error
	}
	vecs := func() (*dfs.FS, *dfs.File) {
		fsys := freshFS(32*cluster.KB, 1)
		in, _ := GenerateVectorFile(fsys, "/vec", 41, 96*1024)
		return fsys, in
	}
	trainings := []func() outcome{
		func() outcome {
			fsys, in := vecs()
			r := KMeansMR(mr.New(fsys, mr.DefaultConfig()), fsys, in, "/km", 5, 5, 2, 0)
			return outcome{cents: r.Centroids, elapsed: r.Elapsed, err: r.Err}
		},
		func() outcome {
			fsys, in := vecs()
			r := KMeansDataMPI(core.New(fsys, core.DefaultConfig()), in, 5, 2, 0)
			return outcome{cents: r.Centroids, elapsed: r.Elapsed, err: r.Err}
		},
		func() outcome {
			fsys := freshFS(32*cluster.KB, 1)
			in := GenerateLabeledDocs(fsys, "/docs", 43, 96*1024)
			r := NaiveBayesTrain(core.New(fsys, core.DefaultConfig()), fsys, in, "/nb", 4)
			return outcome{model: r.Model, elapsed: r.Elapsed, err: r.Err}
		},
	}
	want := make([]outcome, len(trainings))
	for i, train := range trainings {
		if want[i] = train(); want[i].err != nil {
			t.Fatal(want[i].err)
		}
	}
	got := make([]outcome, len(trainings))
	var wg sync.WaitGroup
	for i, train := range trainings {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = train()
		}()
	}
	wg.Wait()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("training %d in parallel differs from the same training run alone (err %v)", i, got[i].err)
		}
	}
}

var benchSink int

func BenchmarkKMeansAssign(b *testing.B) {
	lines := vectorLines(b, 31)
	cents, norms := testCentroids()
	assign := kmeansAssign(cents, norms)
	emit := func(k, v []byte) { benchSink += len(k) + len(v) }
	b.ReportAllocs()
	for b.Loop() {
		for _, ln := range lines {
			assign(nil, ln, emit)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/rec")
}

func BenchmarkKMeansCombine(b *testing.B) {
	vals := partialsOf(vectorLines(b, 31))
	scratch := make([][]byte, len(vals))
	b.ReportAllocs()
	for b.Loop() {
		copy(scratch, vals)
		benchSink += len(kmeansCombine(nil, scratch)[0])
	}
}

func BenchmarkParseSparseVec(b *testing.B) {
	lines := vectorLines(b, 31)
	b.ReportAllocs()
	for b.Loop() {
		for _, ln := range lines {
			v, err := ParseSparseVec(ln)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(v.Idx)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/rec")
}

func BenchmarkSamplerDraw(b *testing.B) {
	for _, m := range []*SeedModel{LDAWiki1W(), Amazon(3)} {
		b.Run(m.Name, func(b *testing.B) {
			s := m.NewSampler(1)
			for b.Loop() {
				benchSink += s.NextWordIndex()
			}
		})
	}
}

func BenchmarkGenerateText(b *testing.B) {
	m := LDAWiki1W()
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	for b.Loop() {
		benchSink += len(m.GenerateText(1, 1<<20))
	}
}
