package bdb

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
)

// emptyStage gives the test a staging store of its own, with the given
// budget, for its duration.
func emptyStage(t *testing.T, budget int) *stageStore {
	s := newStageStore(budget)
	t.Cleanup(swapStage(s))
	return s
}

// sameFiles fails the test unless a and b, on twin FSes, have equal
// blocks: bytes, boundaries, IDs, replica locations and nominal sizes.
func sameFiles(t *testing.T, what string, a, b *dfs.File) {
	t.Helper()
	if len(a.Blocks) != len(b.Blocks) || a.Nominal != b.Nominal {
		t.Fatalf("%s: %d blocks, %g B and %d blocks, %g B", what, len(a.Blocks), a.Nominal, len(b.Blocks), b.Nominal)
	}
	for i, x := range a.Blocks {
		y := b.Blocks[i]
		if !bytes.Equal(x.Data, y.Data) || x.ID != y.ID || x.Nominal != y.Nominal || !slices.Equal(x.Locations, y.Locations) {
			t.Fatalf("%s: block %d differs: id %d / %d, %d / %d B, locations %v / %v",
				what, i, x.ID, y.ID, len(x.Data), len(y.Data), x.Locations, y.Locations)
		}
		if cap(x.Data) != len(x.Data) {
			t.Fatalf("%s: block %d has capacity %d past its %d bytes", what, i, cap(x.Data), len(x.Data))
		}
	}
}

// TestStagedFilesEqualFreshGeneration: every generator, staged on an
// empty store and then again from what it holds, on twin FSes, gives the
// files and disk accounting of a generation that bypasses the store, on a
// third twin — and the two staged copies share one buffer.
func TestStagedFilesEqualFreshGeneration(t *testing.T) {
	s := emptyStage(t, stageBudget)
	const scale = 64
	stageAll := func(fsys *dfs.FS) []*dfs.File {
		text := GenerateTextFile(fsys, "/text", LDAWiki1W(), 3, 256*cluster.KB*scale)
		seq, err := ToSeqFile(fsys, "/text", "/seq")
		if err != nil {
			t.Fatal(err)
		}
		vec, _ := GenerateVectorFile(fsys, "/vec", 3, 64*cluster.KB*scale)
		docs := GenerateLabeledDocs(fsys, "/docs", 3, 64*cluster.KB*scale)
		return []*dfs.File{text, seq, vec, docs}
	}
	fresh := freshFS(32*cluster.KB*scale, scale)
	text := fresh.PreloadAligned("/text", LDAWiki1W().GenerateText(3, 256*cluster.KB), '\n')
	var seqParts [][]byte
	for _, blk := range text.Blocks {
		seqParts = append(seqParts, oldSeqBlock(t, blk.Data))
	}
	want := []*dfs.File{text, fresh.PreloadParts("/seq", seqParts),
		fresh.PreloadAligned("/vec", generateVectors(3, 64*cluster.KB).data, '\n'),
		fresh.PreloadAligned("/docs", generateDocs(3, 64*cluster.KB), '\n')}

	made, hit := freshFS(32*cluster.KB*scale, scale), freshFS(32*cluster.KB*scale, scale)
	first := stageAll(made)
	kept := len(s.entries)
	if kept != 3+len(text.Blocks) {
		t.Fatalf("the store keeps %d values, want 3 files and %d seq members", kept, len(text.Blocks))
	}
	second := stageAll(hit)
	if len(s.entries) != kept {
		t.Fatalf("staging again made %d new values", len(s.entries)-kept)
	}
	for i, name := range []string{"text", "seq", "vectors", "docs"} {
		sameFiles(t, name+", made", first[i], want[i])
		sameFiles(t, name+", from the store", second[i], want[i])
		if &first[i].Blocks[0].Data[0] != &second[i].Blocks[0].Data[0] {
			t.Fatalf("%s: the second FS did not get the store's bytes", name)
		}
	}
	for n := range fresh.Cluster().N() {
		if made.DiskUsed(n) != fresh.DiskUsed(n) || hit.DiskUsed(n) != fresh.DiskUsed(n) {
			t.Fatalf("node %d: disk used %g and %g, fresh %g", n, made.DiskUsed(n), hit.DiskUsed(n), fresh.DiskUsed(n))
		}
	}
}

// TestStageKeysSeparateInputs: inputs that differ in generator, seed
// model, seed or size, staged one after another on one store, each get
// the bytes of their own generation.
func TestStageKeysSeparateInputs(t *testing.T) {
	emptyStage(t, stageBudget)
	joined := func(f *dfs.File) []byte {
		var b []byte
		for _, blk := range f.Blocks {
			b = append(b, blk.Data...)
		}
		return b
	}
	for _, seed := range []int64{1, 2} {
		for _, n := range []int{32 * cluster.KB, 64 * cluster.KB} {
			fsys := freshFS(16*cluster.KB, 1)
			for _, m := range []*SeedModel{LDAWiki1W(), Amazon(1)} {
				if got := joined(GenerateTextFile(fsys, "/text", m, seed, float64(n))); !bytes.Equal(got, m.GenerateText(seed, n)) {
					t.Fatalf("%s text, seed %d, %d B: not its own bytes", m.Name, seed, n)
				}
			}
			vec, truth := GenerateVectorFile(fsys, "/vec", seed, float64(n))
			if want := generateVectors(seed, n); !bytes.Equal(joined(vec), want.data) || !slices.Equal(truth, want.truth) {
				t.Fatalf("vector file, seed %d, %d B: not its own bytes", seed, n)
			}
			if got := joined(GenerateLabeledDocs(fsys, "/docs", seed, float64(n))); !bytes.Equal(got, generateDocs(seed, n)) {
				t.Fatalf("labeled docs, seed %d, %d B: not its own bytes", seed, n)
			}
		}
	}
}

// TestStageComputesEachKeyOnce: goroutines asking for one key while its
// value is being computed wait for that computation; those asking later
// get what it kept. A computation that panics raises the panic on its
// caller and keeps nothing, and the next caller computes afresh.
func TestStageComputesEachKeyOnce(t *testing.T) {
	s := emptyStage(t, stageBudget)
	k := stageKey{kind: docFile, seed: 1, size: 3}
	var runs atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	compute := func() staged {
		if runs.Add(1) == 1 {
			close(entered)
			<-release
		}
		return staged{data: []byte("abc")}
	}
	const n = 8
	got := make([][]byte, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i > 0 {
				<-entered
			}
			got[i] = staging(k, nil, compute).data
		}()
	}
	<-entered
	// The count below holds whether the others reach the wait before the
	// release or find the kept value after it; the pause makes the wait
	// the likely path.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("%d goroutines ran the generator %d times", n, runs.Load())
	}
	for i, b := range got {
		if &b[0] != &got[0][0] || string(b) != "abc" || cap(b) != len(b) {
			t.Fatalf("goroutine %d got %q (cap %d), not the one value", i, b, cap(b))
		}
	}

	boom := stageKey{kind: docFile, seed: 2, size: 3}
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the generator's panic", r)
			}
		}()
		staging(boom, nil, func() staged { panic("boom") })
	}()
	if s.entries[boom] != nil {
		t.Fatal("the store kept a value whose computation panicked")
	}
	if b := staging(boom, nil, func() staged { return staged{data: []byte("ok")} }).data; string(b) != "ok" {
		t.Fatalf("after a panic the store served %q", b)
	}
}

// TestStageEvictsTheLeastRecentlyUsed: kept bytes never exceed the
// budget, the entry used longest ago goes first, a hit makes an entry the
// newest, and an entry larger than the whole budget is served but not
// kept, and evicts nothing.
func TestStageEvictsTheLeastRecentlyUsed(t *testing.T) {
	const size = 1000
	s := emptyStage(t, 3*(stageEntryBytes+size))
	runs := map[int64]int{}
	get := func(seed int64, n int) []byte {
		return staging(stageKey{kind: docFile, seed: seed, size: n}, nil, func() staged {
			runs[seed]++
			return staged{data: bytes.Repeat([]byte{byte(seed)}, n)}
		}).data
	}
	kept := func() (seeds []int64) {
		for e := s.recent.next; e != &s.recent; e = e.next {
			seeds = append(seeds, e.key.seed)
		}
		return seeds
	}
	for seed := range int64(3) {
		get(seed, size)
	}
	get(0, size) // now the newest
	get(3, size)
	if want := []int64{2, 0, 3}; !slices.Equal(kept(), want) || s.bytes > s.budget {
		t.Fatalf("kept %v (%d of %d B), want %v, oldest first", kept(), s.bytes, s.budget, want)
	}
	if b := get(9, s.budget); len(b) != s.budget || b[0] != 9 {
		t.Fatal("an entry larger than the budget was not served")
	}
	if want := []int64{2, 0, 3}; !slices.Equal(kept(), want) || s.entries[stageKey{kind: docFile, seed: 9, size: s.budget}] != nil {
		t.Fatalf("after an entry larger than the budget the store keeps %v", kept())
	}
	get(1, size)
	get(9, s.budget)
	if runs[1] != 2 || runs[9] != 2 || runs[0] != 1 || runs[3] != 1 {
		t.Fatalf("generator runs %v, want the evicted and the oversized twice, the kept once", runs)
	}
}

// TestStageCollisionSharesNothing: two text blocks of one length but
// different bytes, under a hash forced equal, each get the seq member of
// their own bytes; the second one's is not kept.
func TestStageCollisionSharesNothing(t *testing.T) {
	s := emptyStage(t, stageBudget)
	hash := contentHash
	contentHash = func(*dfs.Block) uint64 { return 1 }
	t.Cleanup(func() { contentHash = hash })
	seqOf := func(line string) []byte {
		fsys := freshFS(cluster.MB, 1)
		fsys.Preload("/text", bytes.Repeat([]byte(line), 100))
		seq, err := ToSeqFile(fsys, "/text", "/seq")
		if err != nil {
			t.Fatal(err)
		}
		return seq.Blocks[0].Data
	}
	a, b := seqOf("alpha\n"), seqOf("omega\n")
	if !bytes.Equal(a, oldSeqBlock(t, bytes.Repeat([]byte("alpha\n"), 100))) ||
		!bytes.Equal(b, oldSeqBlock(t, bytes.Repeat([]byte("omega\n"), 100))) {
		t.Fatal("a collision handed one block's seq member to the other")
	}
	if len(s.entries) != 1 {
		t.Fatalf("the store keeps %d members after a collision, want the first one alone", len(s.entries))
	}
}

// TestGenerateVectorFileTruthIsTheCallers: the ground truth comes from the
// staging store, but a caller that writes into it changes no other
// caller's.
func TestGenerateVectorFileTruthIsTheCallers(t *testing.T) {
	emptyStage(t, stageBudget)
	_, a := GenerateVectorFile(freshFS(64*cluster.KB, 1), "/vec", 7, 256*cluster.KB)
	want := slices.Clone(a)
	for i := range a {
		a[i] = -1
	}
	_, b := GenerateVectorFile(freshFS(64*cluster.KB, 1), "/vec", 7, 256*cluster.KB)
	if !slices.Equal(b, want) || !slices.Equal(b, generateVectors(7, 256*cluster.KB).truth) {
		t.Fatal("a caller's write into its ground truth reached the next caller's")
	}
}

// TestStageKeysNameTheirValues: the freeze check names a changed value by
// its key.
func TestStageKeysNameTheirValues(t *testing.T) {
	for _, c := range []struct {
		k    stageKey
		want string
	}{
		{stageKey{kind: textStream, model: *LDAWiki1W(), seed: 5, size: 1024}, "lda_wiki1w text, seed 5, 1024 B"},
		{stageKey{kind: vectorFile, seed: 2, size: 10}, "vector file, seed 2, 10 B"},
		{stageKey{kind: docFile, seed: 2, size: 10}, "labeled docs, seed 2, 10 B"},
		{stageKey{kind: seqMember, size: 10, hash: 255}, "seq member of a 10 B text block, hash 0xff"},
	} {
		if got := fmt.Sprint(c.k); got != c.want {
			t.Errorf("key %+v prints %q, want %q", c.k, got, c.want)
		}
	}
}
