package taskrt

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/datampi/datampi-go/internal/dfs"
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
func countedReduces(spec *job.Spec, reduces *atomic.Int64) {
	reduce := spec.Reduce
	spec.Reduce = func(key []byte, values [][]byte) []kv.Pair {
		reduces.Add(1)
		return reduce(key, values)
	}
}

// tailJob starts spec's map side over blocks as a job of b into two
// partitions, with its reduce tails, as mr does.
func tailJob(t *testing.T, b *Base, spec *job.Spec, blocks []*dfs.Block) (*Job, *Pending[Mapped]) {
	scale := b.Scale()
	j := sharedJob(t, b)
	p := Ahead(j, spec.Fingerprint, blocks, 2, 0, spec.EmitScale(),
		func(i int) Mapped { return MapBlock(spec, blocks[i], 2, 0, scale) })
	Tails(spec, p, 2)
	return j, p
}

// allTails takes every map result of p, then each reducer's tail over
// them.
func allTails[T any, PT interface {
	*T
	partitioned() *Partitioned
}](t *testing.T, p *Pending[T]) (texts [][]byte, records int64) {
	t.Helper()
	outs := make([]*Partitioned, len(p.items))
	for i := range outs {
		v := p.Take(i)
		if outs[i] = PT(&v).partitioned(); len(outs[i].Parts) == 0 {
			t.Fatalf("map %d failed", i)
		}
	}
	for ri := range int(p.reduce.n) {
		var runs [][]kv.Pair
		for _, o := range outs {
			runs = append(runs, o.Parts[ri])
		}
		text, n := p.Tail(ri, runs)
		texts, records = append(texts, text), records+int64(n)
	}
	return texts, records
}

// TestMergeReduceSharesOnlyTableRuns: jobs of one fingerprint share each
// reduce tail over the same record table entries, whatever order their
// blocks come in, and only when they also agree on writing text: a job
// with no fingerprint or no output merges its own. Reduce, one call per
// output record here, runs once per tail computed, on a worker or on the
// caller. The tails of entries no second job asked for go when their job
// ends.
func TestMergeReduceSharesOnlyTableRuns(t *testing.T) {
	_, b := testBase()
	var calls, reduces atomic.Int64
	spec := countedWords(b, "words", &calls)
	countedReduces(&spec, &reduces)
	blocks := spec.Input.Blocks
	reversed := slices.Clone(blocks)
	slices.Reverse(reversed)
	discard, own := spec, spec
	discard.Output, own.Fingerprint = "", ""

	// Four jobs at once over one input; the first three share entries.
	_, first := tailJob(t, b, &spec, blocks)
	_, backwards := tailJob(t, b, &spec, reversed)
	_, discarding := tailJob(t, b, &discard, blocks)
	_, alone := tailJob(t, b, &own, blocks)
	texts, n := allTails(t, first)
	again, _ := allTails(t, backwards)
	discarded, nd := allTails(t, discarding)
	mine, _ := allTails(t, alone)
	for ri, text := range texts {
		if len(text) == 0 || &again[ri][0] != &text[0] {
			t.Fatalf("partition %d: the job with its blocks reversed did not take the first one's tail", ri)
		}
		if discarded[ri] != nil {
			t.Fatalf("partition %d: a job that writes no output has %d bytes of text", ri, len(discarded[ri]))
		}
		if !bytes.Equal(mine[ri], text) || &mine[ri][0] == &text[0] {
			t.Fatalf("partition %d: a job with no fingerprint took another's tail, or merged other text", ri)
		}
	}
	if bytes.Equal(texts[0], texts[1]) || nd != n {
		t.Fatalf("partition 0 took partition 1's tail, or a job that writes no output counted %d records of %d", nd, n)
	}
	if got := reduces.Load(); got != 3*n {
		t.Fatalf("Reduce ran %d times, want %d: once for each tail of three", got, 3*n)
	}

	// A job no other joined keeps nothing once it ends.
	lone := spec
	lone.Fingerprint = "lone words"
	j, p := tailJob(t, b, &lone, blocks)
	allTails(t, p)
	j.stopAhead()
	before := reduces.Load()
	_, later := tailJob(t, b, &lone, blocks)
	allTails(t, later)
	if reduces.Load() != before+n {
		t.Fatal("a later job took the tails of a job that had ended alone")
	}
}

// TestReduceTailSharesOwnResultTypes: a map result whose type is an
// engine's own, not Mapped, but embeds Partitioned (as rdd's task results
// do) carries tails too: a second job's tails over the same entries are
// lookups.
func TestReduceTailSharesOwnResultTypes(t *testing.T) {
	_, b := testBase()
	var calls, reduces atomic.Int64
	spec := countedWords(b, "words", &calls)
	countedReduces(&spec, &reduces)
	type own struct {
		Partitioned
		err error
	}
	blocks, scale := spec.Input.Blocks, b.Scale()
	var ps []*Pending[own]
	for range 2 {
		p := Ahead(sharedJob(t, b), spec.Fingerprint, blocks, 2, 0, spec.EmitScale(), func(i int) own {
			m := MapBlock(&spec, blocks[i], 2, 0, scale)
			return own{m.Out, m.Err}
		})
		Tails(&spec, p, 2)
		ps = append(ps, p)
	}
	first, n := allTails(t, ps[0])
	second, _ := allTails(t, ps[1])
	if len(first[0]) == 0 || &second[0][0] != &first[0][0] || reduces.Load() != n {
		t.Fatalf("Reduce ran %d times for %d keys: the second job's tails were not lookups", reduces.Load(), n)
	}
}

// TestAheadOnTwoEnginesAtOnce: two engines run jobs of one
// fingerprint on two goroutines at once, as the harness's sweep workers
// run points, under the one record-plane lock. Each engine's table
// computes its own entries — Map runs once per record of the input per
// engine, between two jobs — and every tail equals the one a job with no
// fingerprint merges.
func TestAheadOnTwoEnginesAtOnce(t *testing.T) {
	withProcs(t, 4)
	var ready sync.WaitGroup
	ready.Add(2)
	for _, name := range []string{"first", "second"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			_, b := testBase()
			var calls, alone atomic.Int64
			spec := countedWords(b, "words", &calls)
			own := countedWords(b, "", &alone)
			blocks := spec.Input.Blocks
			ready.Done()
			ready.Wait() // both engines' jobs start together
			_, p := tailJob(t, b, &spec, blocks)
			_, q := tailJob(t, b, &spec, blocks)
			_, mine := tailJob(t, b, &own, own.Input.Blocks)
			texts, n := allTails(t, p)
			again, _ := allTails(t, q)
			want, wantN := allTails(t, mine)
			if got, records := calls.Load(), alone.Load(); got != records {
				t.Fatalf("Map ran %d times for two jobs of one fingerprint, %d for one job", got, records)
			}
			for ri := range texts {
				if !bytes.Equal(texts[ri], want[ri]) || !bytes.Equal(again[ri], want[ri]) || n != wantN {
					t.Fatalf("partition %d: the shared tails differ from a job's own", ri)
				}
			}
		})
	}
}
