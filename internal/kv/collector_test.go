package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// oracleCollect is the PartitionCollector contract written the naive
// way: clone every record, one growing []Pair per partition, sort.Slice,
// group by scanning. It pins the index-sorted collector the way the
// clone-per-record path once pinned the arena.
func oracleCollect(recs []Pair, nParts, bufferBytes int, combine Combiner, part Partitioner) (parts [][]Pair, spillBytes, mergeBytes, spills int) {
	if nParts < 1 {
		nParts = 1
	}
	byKeyValue := func(ps []Pair) {
		sort.Slice(ps, func(i, j int) bool {
			if c := bytes.Compare(ps[i].Key, ps[j].Key); c != 0 {
				return c < 0
			}
			return bytes.Compare(ps[i].Value, ps[j].Value) < 0
		})
	}
	group := func(sorted []Pair) []Pair {
		if combine == nil {
			return sorted
		}
		out := []Pair{}
		for i := 0; i < len(sorted); {
			var vals [][]byte
			j := i
			for ; j < len(sorted) && string(sorted[j].Key) == string(sorted[i].Key); j++ {
				vals = append(vals, append([]byte(nil), sorted[j].Value...))
			}
			for _, v := range combine(sorted[i].Key, vals) {
				out = append(out, Pair{Key: sorted[i].Key, Value: append([]byte(nil), v...)})
			}
			i = j
		}
		return out
	}
	cur := make([][]Pair, nParts)
	runs := make([][][]Pair, nParts)
	pending, buffered := 0, 0
	flush := func() {
		if pending == 0 {
			return
		}
		for pi := range cur {
			if len(cur[pi]) == 0 {
				continue
			}
			byKeyValue(cur[pi])
			run := group(cur[pi])
			for _, p := range run {
				spillBytes += p.Size()
			}
			runs[pi] = append(runs[pi], run)
			cur[pi] = nil
		}
		pending, buffered = 0, 0
		spills++
	}
	for _, r := range recs {
		pi := 0
		if nParts > 1 {
			pi = part.Partition(r.Key, nParts)
		}
		cur[pi] = append(cur[pi], r.Clone())
		pending++
		buffered += r.Size()
		if bufferBytes > 0 && buffered >= bufferBytes {
			flush()
		}
	}
	hadSpills := spills > 0
	flush()
	parts = make([][]Pair, nParts)
	for pi, rs := range runs {
		switch len(rs) {
		case 0:
		case 1:
			parts[pi] = rs[0]
		default:
			var all []Pair
			for _, r := range rs {
				all = append(all, r...)
			}
			byKeyValue(all)
			parts[pi] = group(all)
		}
	}
	if hadSpills && spills > 1 {
		mergeBytes = spillBytes
	}
	return parts, spillBytes, mergeBytes, spills
}

// joinCombiner concatenates a key's values with a separator: unlike a
// sum, its output shows the order the values arrived in, which the
// collector promises is ascending byte order.
func joinCombiner(key []byte, values [][]byte) [][]byte {
	return [][]byte{bytes.Join(values, []byte{','})}
}

// tallyCombiner drops every key whose first byte is odd and replaces the
// values of any other key with how many there were. A fill whose records
// for a partition all have odd keys leaves that partition an empty run,
// and a run combined twice differs from one combined once, so the
// oracle comparisons see whether an emptied run still counts in the
// merge.
func tallyCombiner(key []byte, values [][]byte) [][]byte {
	if len(key) > 0 && key[0]&1 != 0 {
		return nil
	}
	return [][]byte{strconv.AppendInt(nil, int64(len(values)), 10)}
}

// combinerArms are the combiners every oracle comparison runs with, under
// the names its subtests carry. A fuzz input picks one by index.
var combinerArms = []struct {
	name    string
	combine Combiner
}{
	{"false", nil},
	{"true", SumCombiner},
	{"join", joinCombiner},
	{"tally", tallyCombiner},
}

func samePairs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

func clonePairs(ps []Pair) []Pair {
	out := make([]Pair, len(ps))
	for i, p := range ps {
		out[i] = p.Clone()
	}
	return out
}

// checkAgainstOracle runs recs through a collector and through the
// oracle and compares everything Finish and Spills report.
func checkAgainstOracle(t testing.TB, recs []Pair, nParts, bufferBytes int, combine Combiner) {
	t.Helper()
	c := NewPartitionCollector(nParts, bufferBytes, combine, HashPartitioner{})
	for _, r := range recs {
		c.Emit(r.Key, r.Value)
	}
	parts, spillB, mergeB := c.Finish()
	wantParts, wantSpillB, wantMergeB, wantSpills := oracleCollect(recs, nParts, bufferBytes, combine, HashPartitioner{})
	if c.Spills() != wantSpills || spillB != wantSpillB || mergeB != wantMergeB {
		t.Fatalf("parts=%d buffer=%d: spills/spillBytes/mergeBytes = %d/%d/%d, oracle %d/%d/%d",
			nParts, bufferBytes, c.Spills(), spillB, mergeB, wantSpills, wantSpillB, wantMergeB)
	}
	if len(parts) != len(wantParts) {
		t.Fatalf("parts=%d buffer=%d: %d partitions, oracle %d", nParts, bufferBytes, len(parts), len(wantParts))
	}
	for pi := range parts {
		if !samePairs(parts[pi], wantParts[pi]) {
			t.Fatalf("parts=%d buffer=%d: partition %d is\n%v\noracle\n%v", nParts, bufferBytes, pi, parts[pi], wantParts[pi])
		}
		if !IsSorted(parts[pi]) {
			t.Fatalf("parts=%d buffer=%d: partition %d not sorted", nParts, bufferBytes, pi)
		}
	}
}

// layOut copies recs back to back into one source buffer and returns it
// with the records as sub-slices of it: a block's records as a Reader
// hands them out. The buffer's capacity runs past its length, as a block
// cut from a larger file's bytes does.
func layOut(recs []Pair) (src []byte, laid []Pair) {
	n := 0
	for _, r := range recs {
		n += r.Size()
	}
	buf := make([]byte, 0, n+64)
	laid = make([]Pair, len(recs))
	for i, r := range recs {
		k := len(buf)
		buf = append(buf, r.Key...)
		v := len(buf)
		buf = append(buf, r.Value...)
		laid[i] = Pair{Key: buf[k:v], Value: buf[v:]}
	}
	return buf, laid
}

// aliases reports whether b's first byte lies in src's array.
func aliases(b, src []byte) bool {
	start := uintptr(unsafe.Pointer(unsafe.SliceData(src)))
	return len(b) > 0 && uintptr(unsafe.Pointer(&b[0]))-start < uintptr(cap(src))
}

// checkBorrowed runs recs through a collector lent their source buffer
// and through a copying one, the oracle, and compares everything Finish
// and Spills report. The records for which fromScratch holds are emitted
// instead from a scratch buffer overwritten after each Emit — half of
// them one of its own, half the source's array past its length — so the
// collector must copy them. Without a combiner every other record's key
// must stay in the source; with one, nothing may.
func checkBorrowed(t testing.TB, recs []Pair, nParts, bufferBytes int, combine Combiner, fromScratch func(i int) bool) {
	t.Helper()
	want := NewPartitionCollector(nParts, bufferBytes, combine, HashPartitioner{})
	for _, r := range recs {
		want.Emit(r.Key, r.Value)
	}
	wantParts, wantSpillB, wantMergeB := want.Finish()

	src, laid := layOut(recs)
	tail := src[len(src):cap(src)]
	var own []byte
	c := NewPartitionCollector(nParts, bufferBytes, combine, HashPartitioner{})
	c.Borrow(src)
	borrowable := 0
	for i, r := range laid {
		if !fromScratch(i) {
			c.Emit(r.Key, r.Value)
			if len(r.Key) > 0 {
				borrowable++
			}
			continue
		}
		buf := &own
		if i%2 == 0 && r.Size() <= len(tail) {
			buf = &tail
		}
		b := append((*buf)[:0], r.Key...)
		b = append(b, r.Value...)
		c.Emit(b[:len(r.Key)], b[len(r.Key):])
		for j := range b {
			b[j] = 0xee
		}
		*buf = b[:cap(b)]
	}
	parts, spillB, mergeB := c.Finish()
	if c.Spills() != want.Spills() || spillB != wantSpillB || mergeB != wantMergeB {
		t.Fatalf("parts=%d buffer=%d: spills/spillBytes/mergeBytes = %d/%d/%d borrowing, %d/%d/%d copying",
			nParts, bufferBytes, c.Spills(), spillB, mergeB, want.Spills(), wantSpillB, wantMergeB)
	}
	inSrc := 0
	for pi := range parts {
		if !samePairs(parts[pi], wantParts[pi]) {
			t.Fatalf("parts=%d buffer=%d: partition %d is\n%v\nborrowing, copying\n%v", nParts, bufferBytes, pi, parts[pi], wantParts[pi])
		}
		for _, p := range parts[pi] {
			if aliases(p.Key, src) {
				inSrc++
			}
		}
	}
	if combine != nil {
		borrowable = 0
	}
	if inSrc != borrowable {
		t.Fatalf("parts=%d buffer=%d: %d output keys alias the source, want %d", nParts, bufferBytes, inSrc, borrowable)
	}
}

func pairsOf(kvs ...string) []Pair {
	var out []Pair
	for i := 0; i+1 < len(kvs); i += 2 {
		out = append(out, Pair{Key: []byte(kvs[i]), Value: []byte(kvs[i+1])})
	}
	return out
}

func TestCollectorMatchesOracle(t *testing.T) {
	long := "sharedprefix-0123456789"
	cases := map[string][]Pair{
		"nothing":      nil,
		"empty keys":   pairsOf("", "2", "", "1", "", "", "a", "3"),
		"empty record": pairsOf("", "", "", ""),
		"short keys":   pairsOf("b", "1", "a", "1", "abc", "1", "ab", "1", "abcdefg", "1", "a", "1"),
		"zero padding": pairsOf("a\x00", "1", "a", "2", "a\x00\x00", "3", "a", "1", "\x00", "5", "", "4"),
		"eight bytes":  pairsOf("abcdefgh", "2", "abcdefgh", "1", "abcdefghi", "1", "abcdefg", "7"),
		"shared prefix": pairsOf(long+"b", "1", long+"a", "1", long, "1", long+"a", "1",
			long+"\x00", "1", long[:8], "9", long[:9], "9"),
		"duplicates":  pairsOf("k", "9", "k", "9", "k", "9", "j", "1", "k", "90", "j", "-4"),
		"high bytes":  pairsOf("\xff\xff", "1", "\xff", "1", "\x7f", "1", "\x80", "1", "\xff\xff\xff\xff\xff\xff\xff\xff\xff", "1"),
		"growing sum": pairsOf("n", "5", "m", "1", "n", "7", "o", "1", "n", "99999", "m", "1"),
		// At buffer 5, one fill of odd keys then one of even ones.
		"emptied fill": pairsOf("a", "1", "a", "1", "c", "1", "b", "1", "b", "1", "d", "1"),
	}
	for name, recs := range cases {
		for _, nParts := range []int{1, 2, 7, 64} {
			for _, bufferBytes := range []int{0, 1, 5, 40} {
				for _, arm := range combinerArms {
					t.Run(fmt.Sprintf("%s/p%d/b%d/combine=%s", name, nParts, bufferBytes, arm.name), func(t *testing.T) {
						checkAgainstOracle(t, recs, nParts, bufferBytes, arm.combine)
						checkBorrowed(t, recs, nParts, bufferBytes, arm.combine, func(i int) bool { return i%3 == 1 })
					})
				}
			}
		}
	}
}

// fuzzRecords decodes fuzz input into records. A control byte per record
// picks the key and value lengths and whether key bytes come from a
// four-symbol alphabet (NUL, 'a', 'b', 0xff), which makes equal padded
// prefixes and long shared prefixes likely. Values are decimal so that
// SumCombiner applies; those whose multiplier bits are both set are
// left-padded with '0' to pad bytes, which is how slab records reach
// every block size and the dedicated-block path.
func fuzzRecords(data []byte, pad int) []Pair {
	alphabet := [4]byte{0, 'a', 'b', 0xff}
	var recs []Pair
	for len(data) > 0 && len(recs) < 512 {
		ctl := data[0]
		data = data[1:]
		klen := int(ctl & 0x0f)
		if klen > len(data) {
			klen = len(data)
		}
		key := append([]byte(nil), data[:klen]...)
		data = data[klen:]
		if ctl&0x80 != 0 {
			for i, b := range key {
				key[i] = alphabet[b&3]
			}
		}
		val := []byte{}
		if ctl&0x40 != 0 && len(data) > 0 {
			val = strconv.AppendInt(nil, int64(int8(data[0]))*int64(1+ctl>>4&3), 10)
			data = data[1:]
			if ctl&0x30 == 0x30 && pad > len(val) {
				val = append(bytes.Repeat([]byte{'0'}, pad-len(val)), val...)
			}
		}
		recs = append(recs, Pair{Key: key, Value: val})
	}
	return recs
}

func FuzzCollectorMatchesOracle(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint16(0), uint8(0), uint16(0))
	f.Add([]byte("\xc1a\x05\xc2a\x00\x07\xc1a\x05\x81a\x41b\x09"), uint8(2), uint16(0), uint8(1), uint16(0))
	f.Add([]byte("\xc9abababab\x00\x63\xc8abababab\x01\xc9ababababa\x02\xc8abababab\x01"), uint8(1), uint16(0), uint8(1), uint16(0))
	f.Add([]byte("\x43the\x01\x43the\x01\x42of\x01\x43the\x01\x41a\x01\x42of\x01\x43the\x7f"), uint8(32), uint16(6), uint8(1), uint16(0))
	f.Add([]byte("\x00\x00\x40\x05\x80\xc0\x09\x4f0123456789abcde\x11"), uint8(64), uint16(1), uint8(0), uint16(0))
	f.Add(bytes.Repeat([]byte("\xcf\x00\x01\x02\x03\x00\x01\x02\x03\x00\x01\x02\x03\x00\x01\x02\x7e"), 40), uint8(7), uint16(64), uint8(1), uint16(0))
	f.Add(bytes.Repeat([]byte("\x4cwordcountkey\x01\x48sortkeys\x02"), 64), uint8(5), uint16(300), uint8(0), uint16(0))
	f.Add([]byte("\x43the\x09\x43the\x01\x42of\x01\x43the\x05\x41a\x01\x42of\x01\x43the\x7f"), uint8(3), uint16(9), uint8(2), uint16(0))
	// Values of 2-20 KB: slab blocks of every size, and records of 16 KB
	// or more in blocks of their own, with and without spills between.
	f.Add(bytes.Repeat([]byte("\x72k1\x05\x42ab\x01\x72k2\x07\x41c\x03"), 24), uint8(4), uint16(0), uint8(0), uint16(2500))
	f.Add(bytes.Repeat([]byte("\x71a\x05\x71b\x06\x42ab\x01\x71a\x15"), 24), uint8(3), uint16(0), uint8(1), uint16(3000))
	f.Add(bytes.Repeat([]byte("\x42ab\x01\x41c\x02\x73big\x09\x43the\x01"), 8), uint8(2), uint16(0), uint8(2), uint16(16500))
	f.Add(bytes.Repeat([]byte("\x71x\x04\x42of\x01\x72yy\x08"), 12), uint8(5), uint16(30000), uint8(0), uint16(20000))
	f.Add(bytes.Repeat([]byte("\x71x\x04\x41a\x01\x71z\x7f"), 40), uint8(1), uint16(9000), uint8(1), uint16(2048))
	// Seven fills over five partitions, then late keys ("z", "q") for two
	// partitions that only the last fill reaches: their runs are copied
	// out of the scratch, not merged. Under tally, "of" and "q" are
	// dropped, so partition 1 is emptied in every fill and partition 4 in
	// its only one.
	late := []byte("\x41z\x01\x41z\x01\x41q\x01")
	f.Add(append(bytes.Repeat([]byte("\x43the\x01\x42of\x01\x41a\x01"), 30), late...), uint8(4), uint16(40), uint8(0), uint16(0))
	f.Add(append(bytes.Repeat([]byte("\x43the\x01\x42of\x01\x41b\x01"), 30), late...), uint8(4), uint16(40), uint8(3), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, nParts uint8, bufferBytes uint16, arm uint8, pad uint16) {
		comb := combinerArms[int(arm)%len(combinerArms)].combine
		recs := fuzzRecords(data, int(pad))
		checkAgainstOracle(t, recs, 1+int(nParts)%64, int(bufferBytes), comb)
		checkBorrowed(t, recs, 1+int(nParts)%64, int(bufferBytes), comb, func(i int) bool { return (i+len(recs[i].Key))%3 == 0 })
	})
}

// badPartitioner is HashPartitioner except on one key, where it returns
// an index no partition has.
type badPartitioner struct {
	key string
	idx int
}

func (b badPartitioner) Partition(key []byte, n int) int {
	if string(key) == b.key {
		return b.idx
	}
	return HashPartitioner{}.Partition(key, n)
}

// TestCollectorReportsPartitionOutOfRange: a Partitioner that leaves
// [0, n) used to panic inside spill, far from its cause (and a negative
// index wrapped through uint32). The collector now keeps the first
// offence for Err, files the record under partition 0 and finishes.
func TestCollectorReportsPartitionOutOfRange(t *testing.T) {
	recs := pairsOf("a", "1", "bad", "1", "b", "1", "bad", "1", "worse", "1")
	for _, idx := range []int{4, -1, 1 << 30} {
		for _, arm := range combinerArms {
			c := NewPartitionCollector(4, 0, arm.combine, badPartitioner{"bad", idx})
			for _, r := range recs {
				c.Emit(r.Key, r.Value)
			}
			parts, _, _ := c.Finish()
			err := c.Err()
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("index %d for 4 partitions", idx)) {
				t.Fatalf("idx=%d combine=%s: Err() = %v, want the index and the partition count", idx, arm.name, err)
			}
			n, want := 0, 0
			for _, p := range parts {
				n += len(p)
			}
			oracle, _, _, _ := oracleCollect(recs, 4, 0, arm.combine, HashPartitioner{})
			for _, p := range oracle {
				want += len(p)
			}
			if len(parts) != 4 || n != want {
				t.Fatalf("idx=%d combine=%s: Finish returned %d records in %d partitions, want %d in 4", idx, arm.name, n, len(parts), want)
			}
		}
	}
	c := NewPartitionCollector(4, 0, nil, HashPartitioner{})
	c.Emit([]byte("a"), nil)
	c.Finish()
	if err := c.Err(); err != nil {
		t.Fatalf("Err() = %v after a well-behaved Partitioner", err)
	}
}

func TestEntryIsSixteenBytes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 16 {
		t.Fatalf("entry is %d bytes, want 16", n)
	}
}

// wordCountRecords is a WordCount-shaped map output: n ("word", "1")
// records over a Zipf vocabulary.
func wordCountRecords(seed int64, n int) []Pair {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 4, 20000)
	recs := make([]Pair, n)
	for i := range recs {
		recs[i] = Pair{Key: []byte("w" + strconv.FormatUint(zipf.Uint64(), 36)), Value: []byte("1")}
	}
	return recs
}

// TestCollectorSpillsEarlyWhenFillOutgrowsLoc lowers the number of slab
// blocks a location may address: the collector must spill rather than
// wrap, and the output must not change. A grouping fill stores a repeated
// key once, so its slab fills several times more slowly and it gets
// several times the records. A borrowing fill copies only the records
// emitted from outside its input (every other one, and the big one),
// which are interleaved with borrowed ones; and no slab location up to
// maxFillBlocks may carry the borrowed mark.
func TestCollectorSpillsEarlyWhenFillOutgrowsLoc(t *testing.T) {
	if last := uint32(maxFillBlocks-1)<<blockShift | (DefaultBlockBytes - 1); last&borrowedLoc != 0 {
		t.Fatalf("slab location %#x of the last addressable block carries the borrowed mark", last)
	}
	for _, tc := range []struct {
		name    string
		combine Combiner
		records int
		borrow  bool
	}{
		{"combine=false", nil, 40000, false},
		{"combine=true", SumCombiner, 200000, false},
		{"combine=false/borrow", nil, 80000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := wordCountRecords(3, tc.records)
			big := Pair{Key: []byte("big"), Value: bytes.Repeat([]byte("x"), DefaultBlockBytes)}
			recs = append(recs[:20000:20000], append([]Pair{big}, recs[20000:]...)...)
			c := NewPartitionCollector(4, 0, tc.combine, HashPartitioner{})
			c.fillBlocks = 2
			emitted := recs
			if tc.borrow {
				var src []byte
				src, emitted = layOut(recs)
				c.Borrow(src)
				for i := 0; i < len(emitted); i += 2 {
					emitted[i] = emitted[i].Clone()
				}
				emitted[20000] = big
			}
			for _, r := range emitted {
				c.Emit(r.Key, r.Value)
			}
			parts, _, _ := c.Finish()
			if c.Spills() < 3 {
				t.Fatalf("%d spills: the fill limit did not force any", c.Spills())
			}
			want, _, _, _ := oracleCollect(recs, 4, 0, tc.combine, HashPartitioner{})
			for pi := range parts {
				if !samePairs(parts[pi], want[pi]) {
					t.Fatalf("partition %d differs from the oracle after forced spills", pi)
				}
			}
		})
	}
}

// latePartitioner sends the keys that start with "late" to the last
// partition and hashes the others over the rest.
type latePartitioner struct{}

func (latePartitioner) Partition(key []byte, n int) int {
	if bytes.HasPrefix(key, []byte("late")) {
		return n - 1
	}
	return HashPartitioner{}.Partition(key, n-1)
}

// TestCollectorOutputSurvivesScratchReuse: what Finish returns aliases
// the slab and the borrowed input only. A second collector that takes the
// first one's pooled scratch, and combiners that grow values in place,
// must leave it alone.
func TestCollectorOutputSurvivesScratchReuse(t *testing.T) {
	emit := func(recs []Pair, bufferBytes int, combine Combiner, part Partitioner, borrow bool) [][]Pair {
		c := NewPartitionCollector(8, bufferBytes, combine, part)
		if borrow {
			var src []byte
			src, recs = layOut(recs)
			c.Borrow(src)
		}
		for _, r := range recs {
			c.Emit(r.Key, r.Value)
		}
		parts, _, _ := c.Finish()
		return parts
	}
	emitAll := func(recs []Pair, bufferBytes int, combine Combiner, part Partitioner) [][]Pair {
		return emit(recs, bufferBytes, combine, part, false)
	}
	// Later collectors of every kind, spilling or not, borrowing or not,
	// on this goroutine: each gets the one before's scratch back from the
	// pool.
	later := func() {
		for round := int64(0); round < 4; round++ {
			emitAll(wordCountRecords(2+round, 9000), 0, SumCombiner, HashPartitioner{})
			emitAll(wordCountRecords(9+round, 100), 0, nil, HashPartitioner{})
			emit(wordCountRecords(30+round, 4000), 0, nil, HashPartitioner{}, true)
			for _, arm := range combinerArms {
				emitAll(wordCountRecords(20+round, 3000), 1500, arm.combine, HashPartitioner{})
				emit(wordCountRecords(40+round, 3000), 1500, arm.combine, HashPartitioner{}, true)
			}
		}
	}
	for _, first := range []struct {
		name    string
		buffer  int
		combine Combiner
		borrow  bool
	}{
		{"combining", 0, SumCombiner, false},
		{"borrowing", 0, nil, true},
		{"borrowing spill", 1500, nil, true},
	} {
		a := emit(wordCountRecords(1, 5000), first.buffer, first.combine, HashPartitioner{}, first.borrow)
		snapshot := make([][]Pair, len(a))
		for pi := range a {
			snapshot[pi] = clonePairs(a[pi])
		}
		later()
		for pi := range a {
			if !samePairs(a[pi], snapshot[pi]) {
				t.Fatalf("%s: partition %d of collector A changed after later collectors ran", first.name, pi)
			}
		}
	}

	// A collector that spills keeps its runs in the scratch until Finish.
	// The late keys come after the last spill, so only the last fill
	// reaches their partition and Finish copies its run rather than
	// merging it; every other partition is merged.
	const bufferBytes = 2000
	recs := wordCountRecords(4, 3000)
	early := len(recs)
	for i := range 40 {
		recs = append(recs, Pair{Key: fmt.Appendf(nil, "late%02d", i%16), Value: []byte("1")})
	}
	buffered := 0
	for i, r := range recs {
		if buffered += r.Size(); buffered >= bufferBytes {
			if i >= early {
				t.Fatalf("record %d, a late one, ends a fill: the late keys must all be in the last", i)
			}
			buffered = 0
		}
	}
	for _, arm := range combinerArms {
		for _, borrow := range []bool{false, true} {
			got := emit(recs, bufferBytes, arm.combine, latePartitioner{}, borrow)
			later()
			want, _, _, spills := oracleCollect(recs, 8, bufferBytes, arm.combine, latePartitioner{})
			if spills < 3 {
				t.Fatalf("combine=%s: %d fills, want several", arm.name, spills)
			}
			for pi := range got {
				if !samePairs(got[pi], want[pi]) {
					t.Fatalf("combine=%s borrow=%v: partition %d of a spilling collector differs from the oracle after later collectors ran:\n%v\nwant\n%v",
						arm.name, borrow, pi, got[pi], want[pi])
				}
			}
		}
	}

	// Growing one record's value past its capacity must reallocate, not
	// run into the next record of the block or of the borrowed input.
	for _, borrow := range []bool{false, true} {
		parts := emit(pairsOf("k", "9", "l", "7", "m", "5"), 0, nil, HashPartitioner{}, borrow)
		var flat []Pair
		for _, p := range parts {
			flat = append(flat, p...)
		}
		SortPairs(flat)
		grown := SumCombiner(flat[0].Key, [][]byte{flat[0].Value, []byte("995")})
		if string(grown[0]) != "1004" {
			t.Fatalf("borrow=%v: SumCombiner = %q, want 1004", borrow, grown[0])
		}
		if got := fmt.Sprint(flat[1:]); got != `["l"="7" "m"="5"]` {
			t.Fatalf("borrow=%v: neighbouring records damaged by an in-place combine: %s", borrow, got)
		}
	}
}

// TestCollectorsConcurrently runs eight collectors at once, as the
// harness sweep runner does with eight simulations, half of them lent
// their input. Run under -race.
func TestCollectorsConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				recs := wordCountRecords(int64(10*g+round), 3000)
				combine := combinerArms[round%len(combinerArms)].combine
				c := NewPartitionCollector(1+g, 2000*(round%3), combine, HashPartitioner{})
				emitted := recs
				if g%2 == 1 {
					var src []byte
					src, emitted = layOut(recs)
					c.Borrow(src)
				}
				for _, r := range emitted {
					c.Emit(r.Key, r.Value)
				}
				parts, spillB, mergeB := c.Finish()
				want, wantSpillB, wantMergeB, wantSpills := oracleCollect(recs, 1+g, 2000*(round%3), combine, HashPartitioner{})
				if spillB != wantSpillB || mergeB != wantMergeB || c.Spills() != wantSpills {
					t.Errorf("goroutine %d round %d: byte or spill counts differ from the oracle", g, round)
				}
				for pi := range parts {
					if !samePairs(parts[pi], want[pi]) {
						t.Errorf("goroutine %d round %d: partition %d differs from the oracle", g, round, pi)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCollectAllocsPerRecord guards the steady-state allocation rate of
// the WordCount-shaped collect: slab blocks, one run per partition and
// the values SumCombiner grows, nothing per record.
func TestCollectAllocsPerRecord(t *testing.T) {
	recs := wordCountRecords(7, 40000)
	collect := func() {
		c := NewPartitionCollector(32, 0, SumCombiner, HashPartitioner{})
		for _, r := range recs {
			c.Emit(r.Key, r.Value)
		}
		c.Finish()
	}
	collect() // warm the scratch pool
	perRec := testing.AllocsPerRun(5, collect) / float64(len(recs))
	t.Logf("%.4f allocs/record", perRec)
	if perRec > 0.03 {
		t.Fatalf("%.4f allocs/record on the WordCount-shaped collect, want <= 0.03", perRec)
	}
}

// benchCollect times collecting recs into 32 partitions in one fill and,
// with a buffer a third of their bytes, in three.
func benchCollect(b *testing.B, recs []Pair, combine Combiner) {
	total := 0
	for _, r := range recs {
		total += r.Size()
	}
	for _, fills := range []int{1, 3} {
		buffer := 0
		if fills > 1 {
			buffer = total/fills + 1
		}
		b.Run(fmt.Sprintf("fills=%d", fills), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c := NewPartitionCollector(32, buffer, combine, HashPartitioner{})
				for _, r := range recs {
					c.Emit(r.Key, r.Value)
				}
				c.Finish()
				if c.Spills() != fills {
					b.Fatalf("%d fills, want %d", c.Spills(), fills)
				}
			}
		})
	}
}

func BenchmarkCollectWordCount(b *testing.B) {
	benchCollect(b, wordCountRecords(7, 40000), SumCombiner)
}

// BenchmarkCollectTextSort is the fill without a combiner: distinct
// line-sized keys, empty values, range-free hash partitioning.
func BenchmarkCollectTextSort(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	recs := make([]Pair, 40000)
	for i := range recs {
		key := make([]byte, 60+rng.Intn(40))
		for j := range key {
			key[j] = byte('a' + rng.Intn(26))
		}
		recs[i] = Pair{Key: key}
	}
	benchCollect(b, recs, nil)
}

// BenchmarkCollectDistinctCombine is the grouping fill's worst case:
// every key distinct, so the table finds nothing and the combiner folds
// nothing.
func BenchmarkCollectDistinctCombine(b *testing.B) {
	recs := make([]Pair, 40000)
	for i := range recs {
		recs[i] = Pair{Key: []byte("w" + strconv.FormatUint(uint64(i)*2654435761%(1<<32), 36)), Value: []byte("1")}
	}
	b.ReportAllocs()
	for b.Loop() {
		c := NewPartitionCollector(32, 0, SumCombiner, HashPartitioner{})
		for _, r := range recs {
			c.Emit(r.Key, r.Value)
		}
		c.Finish()
	}
}

// reducerRuns is what a reducer sees: one sorted, combined partition
// from each of k map tasks, 40,000 WordCount records in all.
func reducerRuns(k int) [][]Pair {
	runs := make([][]Pair, k)
	for i := range runs {
		c := NewPartitionCollector(1, 0, SumCombiner, HashPartitioner{})
		for _, r := range wordCountRecords(int64(i), 40000/k) {
			c.Emit(r.Key, r.Value)
		}
		parts, _, _ := c.Finish()
		runs[i] = parts[0]
	}
	return runs
}

func BenchmarkMergeRuns(b *testing.B) {
	for _, k := range []int{2, 8, 32} {
		runs := reducerRuns(k)
		b.Run(strconv.Itoa(k), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				MergeRuns(runs)
			}
		})
	}
}

// BenchmarkMergeReduce is the WordCount reduce tail two ways: the
// grouping merge, and GroupReduce over the flat merge it replaced.
func BenchmarkMergeReduce(b *testing.B) {
	for _, k := range []int{2, 8, 32, 128} {
		runs := reducerRuns(k)
		b.Run("grouped/"+strconv.Itoa(k), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				MergeReduce(runs, SumReducer)
			}
		})
		b.Run("flat/"+strconv.Itoa(k), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				GroupReduce(MergeRuns(runs), SumReducer)
			}
		})
	}
}
