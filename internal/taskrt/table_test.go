package taskrt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
)

// emptyStore runs the rest of the test on an empty record store of the
// given budget, and puts the process's store back when it ends.
func emptyStore(t *testing.T, budget int) *recordStore {
	s := newRecordStore(budget)
	t.Cleanup(swapStore(s))
	return s
}

// sharedJob is a job of b for Ahead, stopped when the test ends.
func sharedJob(t *testing.T, b *Base) *Job {
	j := &Job{b: b}
	t.Cleanup(j.stopAhead)
	return j
}

// countedWords is wordsMap under a fingerprint, counting its calls, over
// a file whose blocks all differ: the store would share one entry between
// equal blocks.
func countedWords(b *Base, fingerprint string, calls *atomic.Int64) job.Spec {
	var text []byte
	for i := range 8000 {
		text = fmt.Appendf(text, "mpi data key value pair comm rank task data key %d\n", i%1000)
	}
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
	emptyStore(t, storeBudget)
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
// reduce tail over the same record store entries, whatever order their
// blocks come in, and only when they also agree on writing text: a job
// with no fingerprint or no output merges its own. Reduce, one call per
// output record here, runs once per tail computed, on a worker or on the
// caller. A job that ended leaves its entries and tails idle for a later
// one, as far as the store's budget has room: with none, they go when
// the job ends.
func TestMergeReduceSharesOnlyTableRuns(t *testing.T) {
	emptyStore(t, storeBudget)
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

	// A job no other joined leaves its tails idle, and a later job takes
	// them; on a store with no room for idle bytes it keeps nothing once
	// it ends.
	lone := spec
	lone.Fingerprint = "lone words"
	for _, budget := range []int{storeBudget, 0} {
		emptyStore(t, budget)
		j, p := tailJob(t, b, &lone, blocks)
		allTails(t, p)
		j.stopAhead()
		before := reduces.Load()
		_, later := tailJob(t, b, &lone, blocks)
		allTails(t, later)
		if kept := reduces.Load() == before; kept != (budget > 0) {
			t.Fatalf("budget %d: a later job took the tails of a job that had ended alone: %v", budget, kept)
		}
	}
}

// TestReduceTailSharesOwnResultTypes: a map result whose type is an
// engine's own, not Mapped, but embeds Partitioned (as rdd's task results
// do) carries tails too: a second job's tails over the same entries are
// lookups.
func TestReduceTailSharesOwnResultTypes(t *testing.T) {
	emptyStore(t, storeBudget)
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
// run points, under the one record-plane lock and over one record store.
// The store computes each entry once for both engines — Map runs once
// per record of the input between their four jobs, as often as for one
// job with no fingerprint — and every tail equals the one a job with no
// fingerprint merges.
func TestAheadOnTwoEnginesAtOnce(t *testing.T) {
	withProcs(t, 4)
	emptyStore(t, storeBudget)
	var ready sync.WaitGroup
	ready.Add(2)
	var calls, alone [2]atomic.Int64
	t.Cleanup(func() { // once both engines' subtests are over
		if got, records := calls[0].Load()+calls[1].Load(), alone[0].Load(); got != records || alone[1].Load() != records {
			t.Errorf("Map ran %d times for four jobs of one fingerprint on two engines, %d for one job", got, records)
		}
	})
	for e, name := range []string{"first", "second"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			_, b := testBase()
			spec := countedWords(b, "words", &calls[e])
			own := countedWords(b, "", &alone[e])
			blocks := spec.Input.Blocks
			ready.Done()
			ready.Wait() // both engines' jobs start together
			_, p := tailJob(t, b, &spec, blocks)
			_, q := tailJob(t, b, &spec, blocks)
			_, mine := tailJob(t, b, &own, own.Input.Blocks)
			texts, n := allTails(t, p)
			again, _ := allTails(t, q)
			want, wantN := allTails(t, mine)
			for ri := range texts {
				if !bytes.Equal(texts[ri], want[ri]) || !bytes.Equal(again[ri], want[ri]) || n != wantN {
					t.Fatalf("partition %d: the shared tails differ from a job's own", ri)
				}
			}
		})
	}
}

// storeHead is the entryHead of a store entry of the result types these
// tests use.
func storeHead(t *testing.T, v any) *entryHead {
	switch e := v.(type) {
	case *mapEntry[Mapped]:
		return &e.entryHead
	case *mapEntry[int]:
		return &e.entryHead
	}
	t.Fatalf("a store entry of type %T", v)
	return nil
}

// checkStore fails the test unless s's idle bytes, counted afresh — every
// idle entry's size and the bytes of each content whose entries are all
// idle — equal its running count and stay within its budget, and every
// tail in s over some entry's records belongs to exactly one live entry,
// its anchor.
func checkStore(t *testing.T, s *recordStore) {
	t.Helper()
	ahead.mu.Lock()
	defer ahead.mu.Unlock()
	idle := 0
	for h := s.idle.next; h != &s.idle; h = h.next {
		idle += h.size
	}
	entries, parked := map[*content]int{}, map[*content]int{}
	anchored := map[string]int{}
	for k, v := range s.maps {
		h := storeHead(t, v)
		if h.key != k || s.contents[k.contentKey] != h.in {
			t.Fatalf("entry %+v under key %+v", h.key, k)
		}
		entries[h.in]++
		if h.prev != nil {
			parked[h.in]++
		}
		for _, tk := range h.tails {
			anchored[tk]++
		}
	}
	for _, c := range s.contents {
		if c.entries != entries[c] || c.parked != parked[c] {
			t.Fatalf("content counts %d entries, %d idle; the store holds %d, %d", c.entries, c.parked, entries[c], parked[c])
		}
		if c.entries == c.parked {
			idle += len(c.data)
		}
	}
	if idle != s.idleBytes || idle > s.budget {
		t.Fatalf("%d idle bytes counted afresh, %d kept count, budget %d", idle, s.idleBytes, s.budget)
	}
	for k := range s.tails {
		if want := min(len(tailIDs(k)), 1); anchored[k] != want {
			t.Fatalf("a tail over %d entries with %d anchors", len(tailIDs(k)), anchored[k])
		}
	}
	for k := range anchored {
		if s.tails[k] == nil {
			t.Fatal("an entry anchors a tail the store does not hold")
		}
	}
}

// tailIDs decodes the entry ids from a reduce tail's key (see reduceTail).
func tailIDs(key string) []uint64 {
	b := []byte(key)
	n, w := binary.Uvarint(b)
	b = b[w+int(n):]
	_, w = binary.Uvarint(b) // the partition and encode flag
	var ids []uint64
	for b = b[w:]; len(b) > 0; b = b[w:] {
		var id uint64
		id, w = binary.Uvarint(b)
		ids = append(ids, id)
	}
	return ids
}

// TestStoreEvictsTheOldestIdleEntries: on a store whose budget holds half
// of what one job's entries and tails keep, a job's entries go idle when
// it ends and the oldest go first — with the tails anchored on them —
// until the idle bytes fit the budget, while an entry a running job asked
// for stays whatever its age. A later job maps exactly the blocks whose
// entries went.
func TestStoreEvictsTheOldestIdleEntries(t *testing.T) {
	_, b := testBase()
	var calls atomic.Int64
	spec := countedWords(b, "words", &calls)
	blocks := spec.Input.Blocks
	full := emptyStore(t, math.MaxInt)
	j, p := tailJob(t, b, &spec, blocks)
	allTails(t, p)
	j.stopAhead()
	checkStore(t, full)

	s := emptyStore(t, full.idleBytes/2)
	held := Ahead(sharedJob(t, b), spec.Fingerprint, blocks[:2], 2, 0, spec.EmitScale(), // runs to the end of the test
		func(i int) Mapped { return MapBlock(&spec, blocks[i], 2, 0, b.Scale()) })
	for i := range 2 {
		held.Take(i)
	}
	j, p = tailJob(t, b, &spec, blocks[2:])
	allTails(t, p)
	ahead.mu.Lock()
	anchored := len(s.tails)
	ahead.mu.Unlock()
	if anchored == 0 {
		t.Fatal("no tail in the store")
	}
	j.stopAhead()
	checkStore(t, s)

	ahead.mu.Lock()
	evicted := 0
	for evicted < len(p.es) && !p.es[evicted].live(s) {
		evicted++
	}
	for i, e := range p.es[evicted:] {
		if !e.live(s) {
			t.Errorf("block %d went before block %d, which went idle first", 2+evicted+i, 2+evicted)
		}
	}
	for i, e := range held.es {
		if !e.live(s) || e.prev != nil {
			t.Errorf("block %d, which a running job asked for, left the store or went idle", i)
		}
	}
	tails := len(s.tails)
	ahead.mu.Unlock()
	if evicted == 0 || evicted == len(p.es) {
		t.Fatalf("%d of %d idle entries evicted, want some", evicted, len(p.es))
	}
	if tails != 0 {
		t.Fatalf("%d tails stayed after their anchor, block 2's entry, went", tails)
	}

	before := calls.Load()
	later := aheadMaps(t, b, &spec, 2)
	for i := range blocks {
		later.Take(i)
	}
	records := int64(0)
	for _, blk := range blocks[2 : 2+evicted] {
		records += int64(bytes.Count(blk.Data, []byte("\n")))
	}
	if got := calls.Load() - before; got != records {
		t.Fatalf("a later job ran Map %d times, want %d: once per record of the evicted blocks", got, records)
	}
	checkStore(t, s)
}

// TestStoreCollisionSharesNothing: two blocks of different bytes whose
// keys collide (a forced hash) share nothing. The second job's result is
// its own, its entry and its tails never enter the store, and a later job
// over the same block computes afresh.
func TestStoreCollisionSharesNothing(t *testing.T) {
	s := emptyStore(t, storeBudget)
	hash := contentHash
	contentHash = func(*dfs.Block) uint64 { return 42 }
	t.Cleanup(func() { contentHash = hash })
	_, b := testBase()
	var calls atomic.Int64
	spec := countedWords(b, "words", &calls)
	own := spec
	own.Fingerprint = ""
	one := []*dfs.Block{{ID: 1, Data: []byte("mpi data key\nrank\n")}}
	other := []*dfs.Block{{ID: 2, Data: []byte("task pair com\nmpi\n")}}
	if len(one[0].Data) != len(other[0].Data) {
		t.Fatal("the blocks' lengths differ: their keys would too")
	}

	_, p := tailJob(t, b, &spec, one)
	_, q := tailJob(t, b, &spec, other)
	allTails(t, p)
	got, n := allTails(t, q)
	before := calls.Load()
	_, ref := tailJob(t, b, &own, other)
	want, wantN := allTails(t, ref)
	if mapped := calls.Load() - before; mapped != 2 {
		t.Fatalf("Map ran %d times for a job of no fingerprint over 2 records", mapped)
	}
	if before != 4 {
		t.Fatalf("Map ran %d times for two jobs of 2 records each, want 4", before)
	}
	for ri := range want {
		if !bytes.Equal(got[ri], want[ri]) || n != wantN {
			t.Fatalf("partition %d: %q, want %q: the colliding block took another's result", ri, got[ri], want[ri])
		}
	}
	ahead.mu.Lock()
	private, entries, tails := q.es[0].live(s), len(s.maps), len(s.tails)
	ahead.mu.Unlock()
	if private || entries != 1 || tails != 2 {
		t.Fatalf("the colliding entry is live: %v; %d entries and %d tails in the store, want the first job's 1 and 2", private, entries, tails)
	}
	checkStore(t, s)

	_, again := tailJob(t, b, &spec, other)
	allTails(t, again)
	if mapped := calls.Load() - before - 2; mapped != 2 {
		t.Fatalf("a later job over the colliding block ran Map %d times, want 2", mapped)
	}
}
