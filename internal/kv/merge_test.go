package kv

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"unsafe"
)

// fuzzRunKeys is the key alphabet of fuzzRuns: with NUL in it, "a" and
// "a\x00" share a padded prefix, and short keys tie on 8 and 9 bytes.
const fuzzRunKeys = "\x00ab"

// fuzzRuns decodes fuzz input into 0-6 runs, each sorted under Compare.
// The first byte is the run count. Each record is a control byte (run
// index in the low three bits, key length 0-12 above them), one byte per
// key byte mapped onto fuzzRunKeys, and a value byte rendered as a small
// decimal, so equal values recur across runs and SumCombiner applies.
func fuzzRuns(data []byte) [][]Pair {
	if len(data) == 0 {
		return nil
	}
	runs := make([][]Pair, int(data[0])%7)
	data = data[1:]
	for n := 0; len(runs) > 0 && len(data) > 0 && n < 512; n++ {
		ctl := data[0]
		data = data[1:]
		key := make([]byte, min(int(ctl>>3)%13, len(data)))
		for i := range key {
			key[i] = fuzzRunKeys[data[i]%3]
		}
		data = data[len(key):]
		val := []byte{}
		if len(data) > 0 {
			val = strconv.AppendInt(nil, int64(data[0]%16)-3, 10)
			data = data[1:]
		}
		r := int(ctl&7) % len(runs)
		runs[r] = append(runs[r], Pair{Key: key, Value: val})
	}
	for _, r := range runs {
		SortPairs(r)
	}
	return runs
}

// fuzzRec is one record of a seed: its run, its key (over fuzzRunKeys)
// and the value byte fuzzRuns renders.
type fuzzRec struct {
	run int
	key string
	val byte
}

// encodeFuzzRuns is fuzzRuns's inverse, for writing seeds.
func encodeFuzzRuns(nRuns int, recs ...fuzzRec) []byte {
	out := []byte{byte(nRuns)}
	for _, r := range recs {
		out = append(out, byte(len(r.key)<<3|r.run))
		for i := range len(r.key) {
			out = append(out, byte(bytes.IndexByte([]byte(fuzzRunKeys), r.key[i])))
		}
		out = append(out, r.val)
	}
	return out
}

func cloneRuns(runs [][]Pair) [][]Pair {
	out := make([][]Pair, len(runs))
	for i, r := range runs {
		out[i] = clonePairs(r)
	}
	return out
}

// joinReduce is an order-sensitive reducer: one pair per key holding the
// values joined in the order they came.
func joinReduce(key []byte, values [][]byte) []Pair {
	return []Pair{{Key: key, Value: bytes.Join(values, []byte{','})}}
}

// recordingReduce re-emits every value and logs each call: the key, and
// each value's bytes and the address of the record memory it sits in.
func recordingReduce(log *[]string) Reducer {
	return func(key []byte, values [][]byte) []Pair {
		entry := fmt.Sprintf("%q:", key)
		for _, v := range values {
			entry += fmt.Sprintf(" %q@%p", v, unsafe.SliceData(v))
		}
		*log = append(*log, entry)
		return reemit(key, values)
	}
}

// checkMergeGroups compares the grouping merge with grouping the flat
// merge, for every reducer and combiner the fuzz target uses.
func checkMergeGroups(t *testing.T, runs [][]Pair) {
	t.Helper()
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	if n := MergeGroups(runs, func([]byte, [][]byte) {}); n != total {
		t.Fatalf("MergeGroups counted %d records, the runs hold %d", n, total)
	}
	// An empty partition stays nil, as GroupReduce leaves it; any other
	// result is exactly its size.
	exact := func(name string, got []Pair) {
		t.Helper()
		if (got == nil) != (total == 0) || cap(got) != len(got) {
			t.Fatalf("%s: %d records in, result nil=%v len %d cap %d", name, total, got == nil, len(got), cap(got))
		}
	}

	// Same runs on both sides: the recorder rewrites nothing, and both
	// merges must hand it the very same value memory in the same order.
	var gotLog, wantLog []string
	got := MergeReduce(runs, recordingReduce(&gotLog))
	want := GroupReduce(MergeRuns(runs), recordingReduce(&wantLog))
	exact("recording", got)
	if !samePairs(got, want) || fmt.Sprint(gotLog) != fmt.Sprint(wantLog) {
		t.Fatalf("recording reducer:\ngot  %v\n     %v\nwant %v\n     %v", got, gotLog, want, wantLog)
	}

	// joinReduce reads its values; SumCombiner and joinCombiner may
	// rewrite them, so each side works on its own copy.
	got = MergeReduce(cloneRuns(runs), joinReduce)
	want = GroupReduce(MergeRuns(cloneRuns(runs)), joinReduce)
	exact("join reduce", got)
	if !samePairs(got, want) {
		t.Fatalf("join reducer:\ngot  %v\nwant %v", got, want)
	}
	for _, arm := range combinerArms[1:] {
		got := MergeCombine(cloneRuns(runs), arm.combine)
		want := CombineSorted(MergeRuns(cloneRuns(runs)), arm.combine)
		exact("combine="+arm.name, got)
		if !samePairs(got, want) {
			t.Fatalf("combine=%s:\ngot  %v\nwant %v", arm.name, got, want)
		}
	}
}

// TestMergeGroupsConcurrently runs grouping merges on eight goroutines
// at once, as the harness sweep runner does with eight simulations, each
// taking scratch from the shared pool. Run under -race.
func TestMergeGroupsConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 4 {
				runs := reducerRuns(1 + 5*((g+round)%4))
				got, want := MergeReduce(runs, joinReduce), GroupReduce(MergeRuns(runs), joinReduce)
				if !samePairs(got, want) {
					t.Errorf("goroutine %d round %d: MergeReduce differs from GroupReduce over MergeRuns", g, round)
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzMergeGroupsMatchesFlat holds MergeReduce and MergeCombine to
// GroupReduce and CombineSorted over MergeRuns, byte for byte, on runs
// whose keys tie on their padded prefix as often as not.
func FuzzMergeGroupsMatchesFlat(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeFuzzRuns(0))
	f.Add(encodeFuzzRuns(4)) // runs, all empty
	f.Add(encodeFuzzRuns(1, fuzzRec{0, "b", 1}, fuzzRec{0, "a", 9}, fuzzRec{0, "a", 2}, fuzzRec{0, "", 4}))
	// "a" and "a\x00" pad to the same prefix; equal values across runs.
	f.Add(encodeFuzzRuns(3, fuzzRec{0, "a", 5}, fuzzRec{1, "a\x00", 5}, fuzzRec{2, "a", 2},
		fuzzRec{1, "a", 5}, fuzzRec{0, "a\x00", 7}, fuzzRec{2, "\x00", 3}, fuzzRec{1, "", 0}))
	// 8- and 9-byte keys that tie on the prefix, and 12-byte ones that
	// tie past it; later runs hold smaller values than earlier ones.
	f.Add(encodeFuzzRuns(5, fuzzRec{0, "abababab", 9}, fuzzRec{1, "abababab\x00", 1}, fuzzRec{2, "ababababa", 4},
		fuzzRec{3, "abababab", 0}, fuzzRec{4, "ababababbbbb", 8}, fuzzRec{0, "ababababbbba", 2},
		fuzzRec{1, "ababababbbbb", 3}, fuzzRec{4, "abababab", 6}, fuzzRec{2, "abababab\x00", 1}))
	// Six runs repeating one key: the whole group comes from every cursor.
	var repeats []fuzzRec
	for i := range 30 {
		repeats = append(repeats, fuzzRec{i % 6, "ab", byte(15 - i%16)}, fuzzRec{i % 5, "b\x00", byte(i % 4)})
	}
	f.Add(encodeFuzzRuns(6, repeats...))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMergeGroups(t, fuzzRuns(data))
	})
}
