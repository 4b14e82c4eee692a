package rdd

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/enginetest"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
)

func testSetup(blockSize float64, scale float64) (*cluster.Cluster, *dfs.FS, *Engine) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: blockSize, Replication: 3, Scale: scale, Seed: 1, PerBlockOverhead: 0.05})
	return c, fs, New(fs, DefaultConfig())
}

func genText(seed int64, nBytes int) []byte {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	for buf.Len() < nBytes {
		n := 4 + rng.Intn(8)
		for i := 0; i < n; i++ {
			if i > 0 {
				buf.WriteByte(' ')
			}
			buf.WriteString(words[rng.Intn(len(words))])
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func wcSpec(fs *dfs.FS, in *dfs.File, out string, reducers int) job.Spec {
	return job.Spec{
		Name: "wordcount", FS: fs, Input: in, InputFormat: job.Text,
		Output: out, Reducers: reducers,
		Map: func(key, value []byte, emit job.Emit) {
			for _, w := range bytes.Fields(value) {
				emit(w, []byte("1"))
			}
		},
		Combine:      kv.SumCombiner,
		Reduce:       kv.SumReducer,
		MapCPUFactor: 3.5,
	}
}

func TestWordCountViaAdapter(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(1, 64*1024)
	in := fs.PreloadAligned("/in", data, '\n')
	res := eng.Run(wcSpec(fs, in, "/out", 8))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want := map[string]int64{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		for _, w := range bytes.Fields(line) {
			want[string(w)]++
		}
	}
	got := map[string]int64{}
	for _, p := range job.ReadTextOutput(fs, "/out") {
		got[string(p.Key)] += kv.ParseInt(p.Value)
	}
	if len(got) != len(want) {
		t.Fatalf("distinct words: got %d want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			t.Fatalf("count[%s]=%d want %d", w, got[w], n)
		}
	}
	if res.Phases["stage0"] <= 0 || res.Phases["stage1"] <= 0 {
		t.Fatalf("stage phases missing: %v", res.Phases)
	}
	enginetest.AssertQuiesced(t, eng)
}

func TestSortByKeyTotalOrder(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(2, 32*1024)
	in := fs.PreloadAligned("/in", data, '\n')
	spec := job.Spec{
		Name: "textsort", FS: fs, Input: in, InputFormat: job.Text,
		Output: "/out", Reducers: 4,
		Map:  func(key, value []byte, emit job.Emit) { emit(value, nil) },
		Part: &kv.RangePartitioner{Boundaries: [][]byte{[]byte("d"), []byte("f"), []byte("g")}},
	}
	res := eng.Run(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	out := job.ReadTextOutput(fs, "/out")
	for i := 1; i < len(out); i++ {
		if bytes.Compare(out[i-1].Key, out[i].Key) > 0 {
			t.Fatalf("not sorted at %d: %q > %q", i, out[i-1].Key, out[i].Key)
		}
	}
	nLines := 0
	for _, l := range bytes.Split(data, []byte("\n")) {
		if len(l) > 0 {
			nLines++
		}
	}
	if len(out) != nLines {
		t.Fatalf("output lines %d, want %d", len(out), nLines)
	}
}

// sampledBoundaries builds balanced range-partition boundaries over the
// given text's lines, the way the sort workload samples its input.
func sampledBoundaries(data []byte, parts int) [][]byte {
	var sample [][]byte
	for i, l := range bytes.Split(data, []byte("\n")) {
		if len(l) > 0 && i%7 == 0 {
			sample = append(sample, l)
		}
	}
	return kv.SampleBoundaries(sample, parts)
}

func TestSortOOMOnLargePartitions(t *testing.T) {
	// 16 GB nominal text sorted into 32 partitions = 512 MB/partition.
	// With expansion 4.5 and sort overhead 1.6 the working set is ~3.7 GB
	// per worker > 3.5 GB heap -> OutOfMemoryError, matching the paper's
	// Text Sort failures above 8 GB.
	_, fs, eng := testSetup(256*cluster.MB, 1<<16)
	actual := int(16 * cluster.GB / (1 << 16))
	data := genText(3, actual)
	in := fs.PreloadAligned("/in", data, '\n')
	spec := job.Spec{
		Name: "textsort16g", FS: fs, Input: in, InputFormat: job.Text,
		Output: "/out", Reducers: 32,
		Map:  func(key, value []byte, emit job.Emit) { emit(value, nil) },
		Part: &kv.RangePartitioner{Boundaries: sampledBoundaries(data, 32)},
	}
	res := eng.Run(spec)
	if res.Err == nil {
		t.Fatal("expected OOM for 16GB sort")
	}
	var oom *sim.OOMError
	if !errorsAs(res.Err, &oom) {
		t.Fatalf("error = %v, want OOMError", res.Err)
	}
	enginetest.AssertQuiesced(t, eng)
}

func errorsAs(err error, target **sim.OOMError) bool {
	if e, ok := err.(*sim.OOMError); ok {
		*target = e
		return true
	}
	return false
}

func TestSort8GBSucceeds(t *testing.T) {
	// 8 GB into 32 partitions = 256 MB/partition -> working set ~1.8 GB
	// per worker < 3.5 GB heap: succeeds, as the paper's 8 GB case does.
	_, fs, eng := testSetup(256*cluster.MB, 1<<16)
	actual := int(8 * cluster.GB / (1 << 16))
	data := genText(4, actual)
	in := fs.PreloadAligned("/in", data, '\n')
	spec := job.Spec{
		Name: "textsort8g", FS: fs, Input: in, InputFormat: job.Text,
		Output: "/out", Reducers: 32,
		Map:  func(key, value []byte, emit job.Emit) { emit(value, nil) },
		Part: &kv.RangePartitioner{Boundaries: sampledBoundaries(data, 32)},
	}
	res := eng.Run(spec)
	if res.Err != nil {
		t.Fatalf("8GB sort should fit: %v", res.Err)
	}
}

func TestCacheSpeedsUpSecondAction(t *testing.T) {
	_, fs, eng := testSetup(16*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(5, 128*1024), '\n')
	eng.Cache(in)
	spec := wcSpec(fs, in, "", 4)
	_, r1 := eng.Collect(spec)
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	_, r2 := eng.Collect(spec)
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if r2.Elapsed >= r1.Elapsed {
		t.Fatalf("cached action (%.2fs) not faster than first (%.2fs)", r2.Elapsed, r1.Elapsed)
	}
	// The first action fills the cache, maps it and reduces; the second
	// maps the cache and reduces.
	if len(r1.Phases) != 3 || len(r2.Phases) != 2 || r1.Phases["stage2"] <= 0 || r2.Phases["stage1"] <= 0 {
		t.Fatalf("phases %v then %v, want stage0..stage2 then stage0..stage1", r1.Phases, r2.Phases)
	}
}

// TestCacheLossRecompute: a node failure drops every cache holding a
// partition on it (frees the pins, drops the partitions) and the next
// action over the input transparently fills it again, tallying the lost
// partitions for the recovery counters.
func TestCacheLossRecompute(t *testing.T) {
	c, fs, eng := testSetup(16*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(11, 128*1024), '\n')
	eng.Cache(in)
	eng.Cache(in) // marking twice keeps one cache
	spec := wcSpec(fs, in, "", 4)
	cache := eng.cacheOf(in)

	p1, r1 := eng.Collect(spec)
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	if cache.parts == nil || len(eng.caches) != 1 {
		t.Fatalf("cache not filled or marked twice: resident=%v caches=%d", cache.parts != nil, len(eng.caches))
	}
	pinned := 0.0
	for i := 0; i < c.N(); i++ {
		pinned += c.Node(i).Mem.Used()
	}
	if pinned == 0 {
		t.Fatal("no cache pins held between actions")
	}

	victim := cache.parts[0].node
	fs.NodeDown(victim)
	if cache.parts != nil {
		t.Fatal("node failure did not drop the cache")
	}
	if cache.lost == 0 {
		t.Fatal("lost partitions not tallied")
	}
	for i := 0; i < c.N(); i++ {
		if used := c.Node(i).Mem.Used(); used != 0 {
			t.Fatalf("node %d still pins %.0f bytes after cache drop", i, used)
		}
	}

	// The next action fills the cache again.
	fs.NodeUp(victim)
	p2, r2 := eng.Collect(spec)
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if len(p2) != len(p1) {
		t.Fatalf("recomputed action returned %d records, want %d", len(p2), len(p1))
	}
	if cache.parts == nil {
		t.Fatal("recompute did not refill the cache")
	}
	if cache.lost != 0 {
		t.Fatalf("lost-partition tally not charged on refill: %d", cache.lost)
	}
	// And the cache works again: a third action reads it.
	_, r3 := eng.Collect(spec)
	if r3.Err != nil {
		t.Fatal(r3.Err)
	}
	if r3.Elapsed >= r2.Elapsed {
		t.Fatalf("re-cached action (%.2fs) not faster than recompute (%.2fs)", r3.Elapsed, r2.Elapsed)
	}
}

// TestCacheTooSmallFeedsTheSameAction: a cached input whose partitions do
// not fit the executor cache is silently not cached, and the map stage
// of the same action reads what the fill stage decoded instead of
// failing on a missing cache; nothing stays pinned, and the next action
// fills the cache again.
func TestCacheTooSmallFeedsTheSameAction(t *testing.T) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: 16 * cluster.KB, Replication: 3, Scale: 1, Seed: 1, PerBlockOverhead: 0.05})
	cfg := DefaultConfig()
	cfg.WorkerHeap = 1 // no partition fits
	eng := New(fs, cfg)
	in := fs.PreloadAligned("/in", genText(5, 128*1024), '\n')
	eng.Cache(in)
	spec := wcSpec(fs, in, "", 4)
	want, err := job.RunSequential(spec)
	if err != nil {
		t.Fatal(err)
	}
	for action := 0; action < 2; action++ {
		pairs, res := eng.Collect(spec)
		if res.Err != nil {
			t.Fatalf("action %d: %v", action, res.Err)
		}
		if len(pairs) != len(want) {
			t.Fatalf("action %d returned %d counts, want %d", action, len(pairs), len(want))
		}
		if _, ok := res.Phases["stage2"]; !ok {
			t.Fatalf("action %d did not run the fill, map and reduce stages: %v", action, res.Phases)
		}
		if eng.cacheOf(in).parts != nil {
			t.Fatalf("action %d cached an input that does not fit", action)
		}
		for i := 0; i < c.N(); i++ {
			if used := c.Node(i).Mem.Used(); used != 0 {
				t.Fatalf("action %d left %.0f bytes pinned on node %d", action, used, i)
			}
		}
	}
}

// TestCachedRDDFeedingAShuffleKeepsItsRecords: the cache holds the
// input's records, not what the map or the shuffle's combiner made of
// them, so a later action with another map reads the input's lines.
func TestCachedRDDFeedingAShuffleKeepsItsRecords(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(8, 32*1024)
	in := fs.PreloadAligned("/in", data, '\n')
	eng.Cache(in)
	counts, res := eng.Collect(wcSpec(fs, in, "", 4))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want := len(bytes.Fields(data))
	total := int64(0)
	for _, p := range counts {
		total += kv.ParseInt(p.Value)
	}
	if len(counts) != 8 || total != int64(want) {
		t.Fatalf("%d distinct words counting %d, want 8 counting %d", len(counts), total, want)
	}
	if eng.cacheOf(in).parts == nil {
		t.Fatal("the cached input was not filled")
	}
	lines := wcSpec(fs, in, "", 1)
	lines.Map = func(k, v []byte, emit job.Emit) { emit([]byte("lines"), []byte("1")) }
	got, res := eng.Collect(lines)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if n := bytes.Count(data, []byte("\n")); len(got) != 1 || kv.ParseInt(got[0].Value) != int64(n) {
		t.Fatalf("the cache holds %v, want its %d lines", got, n)
	}
}

// TestSpecOverACachedInputMatchesSequential: a spec saved over a cached
// input — filling the cache, then reading it — writes what the
// sequential reference computes.
func TestSpecOverACachedInputMatchesSequential(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(12, 64*1024), '\n')
	eng.Cache(in)
	for i, phases := range []int{3, 2} {
		out := fmt.Sprintf("/out%d", i)
		spec := wcSpec(fs, in, out, 4)
		res := eng.Run(spec)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if len(res.Phases) != phases {
			t.Fatalf("action %d: phases %v, want %d", i, res.Phases, phases)
		}
		enginetest.AssertMatchesSequential(t, fs, out+"/", spec)
	}
}

// TestLostShuffleOutputRefetchedFromARegeneratedCopy: when a node dies
// under a wide stage, the first consumer that needs one of its map outputs
// regenerates it and the others refetch that copy.
func TestLostShuffleOutputRefetchedFromARegeneratedCopy(t *testing.T) {
	_, fs, eng := testSetup(64*cluster.MB, 8192)
	spec := wcSpec(fs, fs.PreloadAligned("/in", genText(21, 1024*1024), '\n'), "/out", 8)
	res, st := enginetest.RunQueued(t, fs, eng, spec, "/out/part-", func(q *sched.Queue) {
		enginetest.FailNodeAt(q, fs, eng, 30, 3)
	})
	if st.Recomputes == 0 || res.Counters["shuffle_refetches"] == 0 {
		t.Fatalf("%d regenerations, %d refetches; want both", st.Recomputes, res.Counters["shuffle_refetches"])
	}
}

// TestFailedJobRegeneratesNothing: at replication 1 a lost map output
// cannot be regenerated (its input block died with the same node), so the
// first consumer's regeneration fails the job, and no consumer regenerates
// anything after that.
func TestFailedJobRegeneratesNothing(t *testing.T) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: 64 * cluster.MB, Replication: 1, Scale: 8192, Seed: 1, PerBlockOverhead: 0.05})
	eng := New(fs, DefaultConfig())
	spec := wcSpec(fs, fs.PreloadAligned("/in", genText(21, 1024*1024), '\n'), "/out", 8)
	q := sched.NewQueue(c.Eng, c.N(), sched.FIFO)
	// The map stage ends at 35.65 s of the 36.85 s clean run; the wide
	// stage's tasks are being dispatched at 35.7.
	enginetest.FailNodeAt(q, fs, eng, 35.7, 3)
	q.Admit("", q.Now(), 1, eng, spec)
	if res := q.Run()[0]; res.Err == nil {
		t.Fatal("the job survived losing its only input replicas")
	}
	if n := q.TrackerStats().Recomputes; n != 1 {
		t.Fatalf("%d regenerations, want the one that failed the job", n)
	}
	enginetest.AssertQuiesced(t, eng)
}

func TestCollectReturnsData(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	spec := wcSpec(fs, fs.PreloadAligned("/in", genText(6, 8*1024), '\n'), "/out", 4)
	pairs, res := eng.Collect(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want, err := job.RunSequential(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := slices.SortedFunc(slices.Values(pairs), kv.Compare)
	if !reflect.DeepEqual(got, slices.SortedFunc(slices.Values(want), kv.Compare)) {
		t.Fatalf("collected %v, want %v", got, want)
	}
	if files := fs.ListPrefix("/out"); len(files) != 0 {
		t.Fatalf("a collect wrote %d files", len(files))
	}
}

func TestAppLaunchOnlyOnce(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	spec := wcSpec(fs, fs.PreloadAligned("/in", genText(8, 8*1024), '\n'), "", 4)
	_, r1 := eng.Collect(spec)
	_, r2 := eng.Collect(spec)
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	if r2.Elapsed >= r1.Elapsed {
		t.Fatalf("second job (%.2f) should skip app launch of first (%.2f)", r2.Elapsed, r1.Elapsed)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() float64 {
		_, fs, eng := testSetup(8*cluster.KB, 1)
		in := fs.PreloadAligned("/in", genText(10, 32*1024), '\n')
		res := eng.Run(wcSpec(fs, in, "/out", 4))
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

// seqGzipFile loads lines as a seq+gzip file (key = value = line, one
// gzip member per block), the way bdb.ToSeqFile writes the Normal Sort
// input.
func seqGzipFile(t *testing.T, fs *dfs.FS, name string, blocks [][]string) *dfs.File {
	t.Helper()
	var parts [][]byte
	for _, lines := range blocks {
		var pairs []kv.Pair
		for _, ln := range lines {
			pairs = append(pairs, kv.Pair{Key: []byte(ln), Value: []byte(ln)})
		}
		var zbuf bytes.Buffer
		zw := gzip.NewWriter(&zbuf)
		if _, err := zw.Write(kv.EncodeAll(pairs)); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, zbuf.Bytes())
	}
	return fs.PreloadParts(name, parts)
}

// TestCachedSeqGzipInputKeepsItsBytes is the no-Close rule of
// job.Reader: a cached seq+gzip input's records live in their blocks'
// inflate buffers, which the cache then holds. They must survive every
// later block of the same format that other tasks decode, recycle and
// decode again.
func TestCachedSeqGzipInputKeepsItsBytes(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	var kept, other [][]string
	var want []string
	for b := 0; b < 4; b++ {
		var k, o []string
		for i := 0; i < 200; i++ {
			k = append(k, fmt.Sprintf("keep-%d-%03d %s", b, i, strings.Repeat("k", i%17)))
			o = append(o, fmt.Sprintf("over-%d-%03d %s", b, i, strings.Repeat("o", i%19)))
		}
		kept, other = append(kept, k), append(other, o)
		for i, ln := range k {
			if i%2 == 0 {
				want = append(want, ln)
			}
		}
	}
	// even keeps the even lines of each block, as they are.
	even := func(k, v []byte, emit job.Emit) {
		if (k[len("keep-0-00")]-'0')%2 == 0 {
			emit(k, v)
		}
	}
	in := seqGzipFile(t, fs, "/kept", kept)
	eng.Cache(in)
	spec := job.Spec{Name: "even", FS: fs, Input: in, InputFormat: job.SeqGzip, Reducers: 3, Map: even}
	check := func(when string) {
		t.Helper()
		got, res := eng.Collect(spec)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		var lines []string
		for _, p := range got {
			if !bytes.Equal(p.Key, p.Value) {
				t.Fatalf("%s: record %q has value %q", when, p.Key, p.Value)
			}
			lines = append(lines, string(p.Key))
		}
		sort.Strings(lines)
		if !reflect.DeepEqual(lines, want) {
			t.Fatalf("%s: collected %d records %q..., want %d %q...", when, len(lines), lines[:3], len(want), want[:3])
		}
	}
	check("first action")
	if eng.cacheOf(in).parts == nil {
		t.Fatal("the input was not cached")
	}
	// Blocks of the same size and format, through map tasks that do
	// close their readers: collected, and written.
	overwrite := spec
	overwrite.Input = seqGzipFile(t, fs, "/other", other)
	overwrite.Map = func(k, v []byte, emit job.Emit) { emit(k, v) }
	for i := 0; i < 3; i++ {
		if _, res := eng.Collect(overwrite); res.Err != nil {
			t.Fatal(res.Err)
		}
		overwrite.Output = fmt.Sprintf("/other-out%d", i)
		if res := eng.Run(overwrite); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	check("after later blocks were decoded")
}

// TestCorruptSeqBlockFailsTheJob: a malformed record in the middle of a
// block surfaces while the task streams it (or, filling a cache, decodes
// it). The job must fail with the decode error and leave nothing
// allocated or parked, on every stage that reads the block: each takes
// the error from its record half, run ahead, whether the action collects,
// writes, or fills a cache.
func TestCorruptSeqBlockFailsTheJob(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	good := kv.EncodeAll([]kv.Pair{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}})
	bad := append(append([]byte(nil), good...), 0x05, 'x') // a key of 5 bytes, 1 present
	in := fs.PreloadParts("/in", [][]byte{good, bad, good})
	spec := job.Spec{Name: "ident", FS: fs, Input: in, InputFormat: job.Seq, Reducers: 2,
		Map: func(k, v []byte, emit job.Emit) { emit(k, v) }}
	saved := spec
	saved.Output = "/out"
	for _, action := range []struct {
		name string
		run  func() job.Result
	}{
		{"collected", func() job.Result { _, res := eng.Collect(spec); return res }},
		{"into part files", func() job.Result { return eng.Run(saved) }},
		{"filling a cache", func() job.Result { eng.Cache(in); _, res := eng.Collect(spec); return res }},
	} {
		res := action.run()
		if res.Err == nil || !strings.Contains(res.Err.Error(), "truncated key") {
			t.Fatalf("%s: err = %v, want the block's decode error", action.name, res.Err)
		}
		enginetest.AssertQuiesced(t, eng)
	}
}

// TestPartitionerOutOfRangeFailsTheJob: an index outside [0, partitions)
// used to panic inside the shuffle writer's collector. The action now
// fails with it.
func TestPartitionerOutOfRangeFailsTheJob(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	spec := wcSpec(fs, fs.PreloadAligned("/in", genText(4, 32*1024), '\n'), "/out", 4)
	spec.Part = enginetest.OutOfRange{}
	enginetest.AssertPartitionError(t, eng, eng.Run(spec), 4)
}
