package taskrt

import (
	"bytes"
	"sync/atomic"
	"testing"

	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
)

// sharedJob is a job of b for Ahead, stopped when the test ends.
func sharedJob(t *testing.T, b *Base) *Job {
	j := &Job{b: b}
	t.Cleanup(j.stopAhead)
	return j
}

// countedWords is wordsMap under a fingerprint, counting its calls.
func countedWords(b *Base, fingerprint string, calls *atomic.Int64) job.Spec {
	text := bytes.Repeat([]byte("mpi data key value pair comm rank task data key\n"), 8000)
	spec := job.Spec{
		FS: b.FS, Input: b.FS.PreloadAligned("/in-"+fingerprint, text, '\n'), Output: "/out",
		Map: func(key, value []byte, emit job.Emit) {
			calls.Add(1)
			wordsMap(key, value, emit)
		},
		Combine: kv.SumCombiner, Reduce: kv.SumReducer, Fingerprint: fingerprint,
	}
	spec.Normalize()
	return spec
}

// aheadMaps starts spec's map side as a job of b, as mr does, into
// nParts partitions.
func aheadMaps(t *testing.T, b *Base, spec *job.Spec, nParts int) *Pending[Mapped] {
	blocks, scale := spec.Input.Blocks, b.Scale()
	return Ahead(sharedJob(t, b), spec.Fingerprint, blocks, nParts, 0, spec.EmitScale(),
		func(i int) Mapped { return MapBlock(spec, blocks[i], nParts, 0, scale) })
}

// TestAheadSharesOneFingerprintsMapSide: two jobs whose Ahead carries one
// fingerprint call Map once per record of every block between them,
// however their workers and takes interleave, and take the same
// partitions; a different partition count or fingerprint maps afresh.
func TestAheadSharesOneFingerprintsMapSide(t *testing.T) {
	withProcs(t, 4)
	_, b := testBase()
	var calls atomic.Int64
	spec := countedWords(b, "words", &calls)
	lines := int64(bytes.Count(spec.Input.Blocks[0].Data, []byte("\n")))
	records := int64(0)
	for _, blk := range spec.Input.Blocks {
		records += int64(bytes.Count(blk.Data, []byte("\n")))
	}
	if len(spec.Input.Blocks) < 4 || lines == 0 {
		t.Fatalf("%d blocks, %d lines in the first: the test needs more", len(spec.Input.Blocks), lines)
	}

	first, second := aheadMaps(t, b, &spec, 4), aheadMaps(t, b, &spec, 4)
	for i := range spec.Input.Blocks {
		m1, m2 := first.Take(i), second.Take(i)
		if m1.Err != nil || len(m1.Out.Parts[0]) == 0 || &m1.Out.Parts[0][0] != &m2.Out.Parts[0][0] {
			t.Fatalf("block %d: the jobs took different partitions (err %v)", i, m1.Err)
		}
	}
	// A backup's later Take is a lookup too.
	first.Take(0)
	if got := calls.Load(); got != records {
		t.Fatalf("Map ran %d times over %d records", got, records)
	}

	eight := aheadMaps(t, b, &spec, 8)
	other := spec
	other.Fingerprint = "other words"
	renamed := aheadMaps(t, b, &other, 4)
	for i := range spec.Input.Blocks {
		eight.Take(i)
		renamed.Take(i)
	}
	if got := calls.Load(); got != 3*records {
		t.Fatalf("Map ran %d times over %d records, want three passes", got, records)
	}
}

// countedReduces wraps spec's reducer to count its calls in reduces.
func countedReduces(spec *job.Spec, reduces *int) {
	reduce := spec.Reduce
	spec.Reduce = func(key []byte, values [][]byte) []kv.Pair {
		*reduces++
		return reduce(key, values)
	}
}

// TestMergeReduceSharesOnlyTableRuns: Base.ReduceTail, called with no
// simulation, hands a stored tail only to a task whose runs are all
// partitions of map results the record table holds; a run built outside
// it, or a prefix of a held one, gets a fresh merge.
func TestMergeReduceSharesOnlyTableRuns(t *testing.T) {
	_, b := testBase()
	var calls atomic.Int64
	spec := countedWords(b, "words", &calls)
	var reduces int
	countedReduces(&spec, &reduces)
	// The second job's takes register the partitions the first computed.
	var runs [][]kv.Pair
	for range 2 {
		p := aheadMaps(t, b, &spec, 2)
		runs = runs[:0]
		for i := range spec.Input.Blocks {
			runs = append(runs, p.Take(i).Out.Parts[1])
		}
	}
	copied := append([][]kv.Pair(nil), runs...)
	copied[1] = append([]kv.Pair(nil), runs[1]...)
	prefix := append([][]kv.Pair(nil), runs...)
	prefix[0] = runs[0][:len(runs[0])-1]

	var texts [][]byte
	var merges []int
	discard := spec
	discard.Output = ""
	// A job that writes no output stores a tail without text, which one
	// that does must not take.
	discarded, _ := b.ReduceTail(&discard, runs)
	for _, rs := range [][][]kv.Pair{runs, runs, copied, copied, prefix} {
		before := reduces
		text, _ := b.ReduceTail(&spec, rs)
		texts, merges = append(texts, text), append(merges, reduces-before)
	}
	if discarded != nil || len(texts[0]) == 0 {
		t.Fatalf("discarded %d bytes of text, then wrote %d", len(discarded), len(texts[0]))
	}
	if merges[0] == 0 || merges[1] != 0 || &texts[0][0] != &texts[1][0] {
		t.Fatalf("held runs: merged %v keys, the second task got its own text: %v", merges[:2], &texts[0][0] != &texts[1][0])
	}
	if merges[2] == 0 || merges[3] == 0 || &texts[2][0] == &texts[0][0] {
		t.Fatalf("a copied run: merged %v keys, want a fresh merge each time", merges[2:4])
	}
	if !bytes.Equal(texts[2], texts[0]) {
		t.Fatalf("the copied run's tail %q differs from the held one's %q", texts[2], texts[0])
	}
	if merges[4] == 0 {
		t.Fatal("a prefix of a held run took the whole run's tail")
	}
}

// TestReduceTailSharesOwnResultTypes: a kept entry whose type is an
// engine's own, not Mapped, but embeds Partitioned (as rdd's task results
// do) registers its partitions: a second tail over them is a lookup.
func TestReduceTailSharesOwnResultTypes(t *testing.T) {
	_, b := testBase()
	var calls atomic.Int64
	spec := countedWords(b, "words", &calls)
	var reduces int
	countedReduces(&spec, &reduces)
	type own struct {
		Partitioned
		err error
	}
	blocks, scale := spec.Input.Blocks, b.Scale()
	var runs [][]kv.Pair
	for range 2 {
		p := Ahead(sharedJob(t, b), spec.Fingerprint, blocks, 2, 0, spec.EmitScale(), func(i int) own {
			m := MapBlock(&spec, blocks[i], 2, 0, scale)
			return own{m.Out, m.Err}
		})
		runs = runs[:0]
		for i := range blocks {
			o := p.Take(i)
			if o.err != nil {
				t.Fatal(o.err)
			}
			runs = append(runs, o.Parts[0])
		}
	}
	first, _ := b.ReduceTail(&spec, runs)
	merged := reduces
	second, _ := b.ReduceTail(&spec, runs)
	if merged == 0 || len(first) == 0 || reduces != merged || &second[0] != &first[0] {
		t.Fatalf("merged %d keys, then %d more: the second tail was not a lookup", merged, reduces-merged)
	}
}
