package rdd

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/enginetest"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/taskrt"
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
	rdd := eng.TextFile(in).FlatMapKV(func(k, v []byte, emit job.Emit) {
		emit(v, nil)
	}, 1).Cache()

	_, r1 := rdd.Collect()
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	t1 := r1.Elapsed
	_, r2 := rdd.Collect()
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	t2 := r2.Elapsed
	if t2 >= t1 {
		t.Fatalf("cached action (%.2fs) not faster than first (%.2fs)", t2, t1)
	}
}

// TestCacheLossRecompute: a node failure drops every cached RDD holding a
// partition on it (frees the pins, invalidates the cache) and the next
// action transparently recomputes and re-materializes through lineage,
// tallying the lost partitions for the recovery counters.
func TestCacheLossRecompute(t *testing.T) {
	c, fs, eng := testSetup(16*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(11, 128*1024), '\n')
	rdd := eng.TextFile(in).FlatMapKV(func(k, v []byte, emit job.Emit) {
		emit(v, nil)
	}, 1).Cache()

	p1, r1 := rdd.Collect()
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	if !rdd.inCache || len(eng.cachedRDDs) != 1 {
		t.Fatalf("cache not materialized/registered: inCache=%v registered=%d", rdd.inCache, len(eng.cachedRDDs))
	}
	pinned := 0.0
	for i := 0; i < c.N(); i++ {
		pinned += c.Node(i).Mem.Used()
	}
	if pinned == 0 {
		t.Fatal("no cache pins held between actions")
	}

	victim := rdd.cacheData[0].node
	fs.NodeDown(victim)
	if rdd.inCache || rdd.cacheData != nil {
		t.Fatal("node failure did not invalidate the cached RDD")
	}
	if rdd.lostParts == 0 {
		t.Fatal("lost partitions not tallied")
	}
	for i := 0; i < c.N(); i++ {
		if used := c.Node(i).Mem.Used(); used != 0 {
			t.Fatalf("node %d still pins %.0f bytes after cache drop", i, used)
		}
	}

	// Next action recomputes through lineage and re-materializes.
	fs.NodeUp(victim)
	p2, r2 := rdd.Collect()
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if len(p2) != len(p1) {
		t.Fatalf("recomputed action returned %d records, want %d", len(p2), len(p1))
	}
	if !rdd.inCache {
		t.Fatal("recompute did not re-materialize the cache")
	}
	if rdd.lostParts != 0 {
		t.Fatalf("lost-partition tally not charged on refill: %d", rdd.lostParts)
	}
	if len(eng.cachedRDDs) != 1 {
		t.Fatalf("re-registration duplicated the RDD: %d entries", len(eng.cachedRDDs))
	}
	// And the cache works again: a third action reads it.
	_, r3 := rdd.Collect()
	if r3.Err != nil {
		t.Fatal(r3.Err)
	}
	if r3.Elapsed >= r2.Elapsed {
		t.Fatalf("re-cached action (%.2fs) not faster than recompute (%.2fs)", r3.Elapsed, r2.Elapsed)
	}
}

// TestCacheTooSmallFeedsTheSameAction: a cached RDD whose partitions do
// not fit the executor cache is silently not cached, and a from-cache
// stage later in the same action reads the producing stage's output
// instead of failing on a missing snapshot; nothing stays pinned, and
// the next action recomputes the RDD from lineage.
func TestCacheTooSmallFeedsTheSameAction(t *testing.T) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: 16 * cluster.KB, Replication: 3, Scale: 1, Seed: 1, PerBlockOverhead: 0.05})
	cfg := DefaultConfig()
	cfg.WorkerHeap = 1 // no partition fits
	eng := New(fs, cfg)
	in := fs.PreloadAligned("/in", genText(5, 128*1024), '\n')
	cached := eng.TextFile(in).FlatMapKV(func(k, v []byte, emit job.Emit) {
		emit(v, nil)
	}, 1).Cache()
	derived := cached.FlatMapKV(func(k, v []byte, emit job.Emit) {
		emit(k, nil)
	}, 1)

	var want int
	for action := 0; action < 2; action++ {
		pairs, res := derived.Collect()
		if res.Err != nil {
			t.Fatalf("action %d: %v", action, res.Err)
		}
		if action == 0 {
			want = len(pairs)
		}
		if len(pairs) == 0 || len(pairs) != want {
			t.Fatalf("action %d returned %d records, want %d (non-zero)", action, len(pairs), want)
		}
		if _, ok := res.Phases["stage1"]; !ok {
			t.Fatalf("action %d did not run the producing stage and the from-cache stage: %v", action, res.Phases)
		}
		if cached.inCache || cached.cacheData != nil || len(eng.cachedRDDs) != 0 {
			t.Fatalf("action %d cached an RDD that does not fit", action)
		}
		for i := 0; i < c.N(); i++ {
			if used := c.Node(i).Mem.Used(); used != 0 {
				t.Fatalf("action %d left %.0f bytes pinned on node %d", action, used, i)
			}
		}
	}
}

// TestCachedRDDFeedingAShuffleKeepsItsRecords: a cached RDD that feeds a
// shuffle directly is materialized by a stage of its own, so a later
// action reads the RDD's records, not the shuffle's combined output.
func TestCachedRDDFeedingAShuffleKeepsItsRecords(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(8, 32*1024)
	spec := wcSpec(fs, fs.PreloadAligned("/in", data, '\n'), "", 4)
	words := eng.TextFile(spec.Input).FlatMapKV(spec.Map, 1).Cache()
	counts, res := words.ReduceByKey(kv.SumCombiner, spec.Reduce, 4).Collect()
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
	if !words.inCache {
		t.Fatal("the cached RDD was not materialized")
	}
	got, res := words.Collect()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(got) != want {
		t.Fatalf("the cached RDD holds %d records, want its %d words", len(got), want)
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

// TestChainedShufflesFailCleanlyAtReplicationOne: node 3 dies while the
// last of two chained wide stages pulls. Its consumers regenerate the lost
// middle-stage outputs, whose own pulls need first-stage outputs that
// cannot be regenerated (their input blocks died too). One regeneration
// fails the job; the others wake to the failed job with no output, and the
// job must end with that error, not crash the simulation.
func TestChainedShufflesFailCleanlyAtReplicationOne(t *testing.T) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: 64 * cluster.MB, Replication: 1, Scale: 8192, Seed: 1, PerBlockOverhead: 0.05})
	eng := New(fs, DefaultConfig())
	spec := wcSpec(fs, fs.PreloadAligned("/in", genText(21, 1024*1024), '\n'), "", 24)
	sorted := eng.TextFile(spec.Input).FlatMapKV(spec.Map, 1).ReduceByKey(spec.Combine, spec.Reduce, 24).
		SortByKey(kv.HashPartitioner{}, nil, 24)
	var tr *sched.TaskTracker
	res := eng.RunSolo(func(ctl *sched.JobControl) *taskrt.Job {
		tr = ctl.Tracker()
		// The clean run's last wide stage pulls from 17.0 s to 17.17 s.
		c.Eng.Schedule(17.08, func() {
			fs.NodeDown(3)
			c.NodeDown(3)
			tr.NodeDown(3)
		})
		return eng.submitAction("action", sorted, nil, nil, ctl, nil)
	})
	if res.Err == nil {
		t.Fatal("the job survived losing its only input replicas")
	}
	if n := tr.Stats().Recomputes; n < 2 {
		t.Fatalf("%d regenerations, want the middle stage's and the failed first stage's", n)
	}
	enginetest.AssertQuiesced(t, eng)
}

func TestCollectReturnsData(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(6, 8*1024)
	in := fs.PreloadAligned("/in", data, '\n')
	pairs, res := eng.TextFile(in).Collect()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	nLines := 0
	for _, l := range bytes.Split(data, []byte("\n")) {
		if len(l) > 0 {
			nLines++
		}
	}
	if len(pairs) != nLines {
		t.Fatalf("collected %d records, want %d", len(pairs), nLines)
	}
}

func TestFilter(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(7, 8*1024), '\n')
	pairs, res := eng.TextFile(in).Filter(func(p kv.Pair) bool {
		return bytes.Contains(p.Value, []byte("alpha"))
	}).Collect()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(pairs) == 0 {
		t.Fatal("filter dropped everything")
	}
	for _, p := range pairs {
		if !bytes.Contains(p.Value, []byte("alpha")) {
			t.Fatalf("filter leaked %q", p.Value)
		}
	}
}

func TestAppLaunchOnlyOnce(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(8, 8*1024), '\n')
	_, r1 := eng.TextFile(in).Collect()
	_, r2 := eng.TextFile(in).Collect()
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	if r2.Elapsed >= r1.Elapsed {
		t.Fatalf("second job (%.2f) should skip app launch of first (%.2f)", r2.Elapsed, r1.Elapsed)
	}
}

// TestStageNamesPastNine: an 11-stage lineage (ten chained ReduceByKey)
// reports its phases as stage0..stage10 — the decimal index the task
// groups already use, not a rune offset from '0' (which made stage 10
// "stage:").
func TestStageNamesPastNine(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(15, 32*1024), '\n')
	spec := wcSpec(fs, in, "", 4)
	chain := eng.TextFile(in).FlatMapKV(spec.Map, 1)
	for i := 0; i < 10; i++ {
		chain = chain.ReduceByKey(kv.SumCombiner, kv.SumReducer, 4)
	}
	_, res := chain.Collect()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Phases) != 11 {
		t.Fatalf("%d phases for 11 stages: %v", len(res.Phases), res.Phases)
	}
	for i := 0; i <= 10; i++ {
		if d, ok := res.Phases[fmt.Sprintf("stage%d", i)]; !ok || d <= 0 {
			t.Fatalf("phase stage%d missing or empty: %v", i, res.Phases)
		}
	}
	enginetest.AssertQuiesced(t, eng)
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

// TestNarrowChainCopiesWhatMapFunctionsReuse chains narrow ops whose map
// function emits from a reused buffer and overwrites it right after. An
// op in the middle of a chain must copy what it is handed, a Filter may
// pass its input through, and the last op of a stage that feeds a shuffle
// emits straight into the partition collector: all three must see every
// record intact. The buffers come from a sync.Pool, because map functions
// of different blocks may run at once (see job.Spec).
func TestNarrowChainCopiesWhatMapFunctionsReuse(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(9, 32*1024)
	in := fs.PreloadAligned("/in", data, '\n')
	var scratch sync.Pool
	emitFrom := func(emit job.Emit, v []byte, parts ...[]byte) {
		buf, _ := scratch.Get().(*[]byte)
		if buf == nil {
			buf = new([]byte)
		}
		*buf = (*buf)[:0]
		for _, p := range parts {
			*buf = append(*buf, p...)
		}
		emit(*buf, v)
		for i := range *buf {
			(*buf)[i] = '#'
		}
		scratch.Put(buf)
	}
	words := func(k, v []byte, emit job.Emit) {
		for _, w := range bytes.Fields(v) {
			emitFrom(emit, []byte("1"), w)
		}
	}
	double := func(k, v []byte, emit job.Emit) { emitFrom(emit, v, k, k) }
	notBeta := func(p kv.Pair) bool { return !bytes.HasPrefix(p.Key, []byte("beta")) }
	want := map[string]int64{}
	for _, w := range bytes.Fields(data) {
		if !bytes.Equal(w, []byte("beta")) {
			want[string(w)+string(w)]++
		}
	}
	chains := map[string]*RDD{
		"filter last":   eng.TextFile(in).FlatMapKV(words, 1).FlatMapKV(double, 1).Filter(notBeta),
		"flat-map last": eng.TextFile(in).FlatMapKV(words, 1).Filter(notBeta).FlatMapKV(double, 1),
	}
	for name, chain := range chains {
		counted, res := chain.ReduceByKey(kv.SumCombiner, kv.SumReducer, 4).Collect()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		got := map[string]int64{}
		for _, p := range counted {
			got[string(p.Key)] += kv.ParseInt(p.Value)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, into a shuffle: counts %v, want %v", name, got, want)
		}
		// The same chain with no shuffle behind it: every op materialises.
		flat, res := chain.Collect()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		got = map[string]int64{}
		for _, p := range flat {
			got[string(p.Key)] += kv.ParseInt(p.Value)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, collected: counts %v, want %v", name, got, want)
		}
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

// TestCachedFilterOverSeqGzipKeepsItsBytes is the no-Close rule of
// job.Reader: a Filter's output is the input records themselves, which
// for a seq+gzip source live in the block's inflate buffer. Cached, they
// must survive every later block of the same format that other tasks
// decode, recycle and decode again.
func TestCachedFilterOverSeqGzipKeepsItsBytes(t *testing.T) {
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
	even := func(p kv.Pair) bool { return (p.Key[len("keep-0-00")]-'0')%2 == 0 }
	cached := eng.SequenceFile(seqGzipFile(t, fs, "/kept", kept), job.SeqGzip).Filter(even).Cache()
	check := func(when string) {
		t.Helper()
		got, res := cached.Collect()
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
			t.Fatalf("%s: the cached partitions hold %d records %q..., want %d %q...", when, len(lines), lines[:3], len(want), want[:3])
		}
	}
	check("first action")
	if !cached.inCache {
		t.Fatal("the filtered RDD was not cached")
	}
	// Blocks of the same size and format, through chains that do close
	// their readers: a flat-map into the arena, and one into a shuffle.
	overwrite := eng.SequenceFile(seqGzipFile(t, fs, "/other", other), job.SeqGzip)
	ident := func(k, v []byte, emit job.Emit) { emit(k, v) }
	for i := 0; i < 3; i++ {
		if _, res := overwrite.FlatMapKV(ident, 1).Collect(); res.Err != nil {
			t.Fatal(res.Err)
		}
		if _, res := overwrite.FlatMapKV(ident, 1).GroupByKey(nil, 3).Collect(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	check("after later blocks were decoded")
}

// TestCorruptSeqBlockFailsTheJob: a malformed record in the middle of a
// block now surfaces while the stage streams it (Records used to refuse
// the whole block before the task charged anything). The job must still
// fail with the decode error and leave nothing allocated or parked, on
// every stage rooted at the block: each takes the error from its record
// half, run ahead, whether it feeds a shuffle, the collect or a cache.
func TestCorruptSeqBlockFailsTheJob(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	good := kv.EncodeAll([]kv.Pair{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}})
	bad := append(append([]byte(nil), good...), 0x05, 'x') // a key of 5 bytes, 1 present
	in := fs.PreloadParts("/in", [][]byte{good, bad, good})
	ident := func(k, v []byte, emit job.Emit) { emit(k, v) }
	for name, r := range map[string]*RDD{
		"collected":      eng.SequenceFile(in, job.Seq).FlatMapKV(ident, 1),
		"into a shuffle": eng.SequenceFile(in, job.Seq).FlatMapKV(ident, 1).GroupByKey(nil, 2),
		"source only":    eng.SequenceFile(in, job.Seq),
		"cached source":  eng.SequenceFile(in, job.Seq).Cache(),
	} {
		_, res := r.Collect()
		if res.Err == nil || !strings.Contains(res.Err.Error(), "truncated key") {
			t.Fatalf("%s: err = %v, want the block's decode error", name, res.Err)
		}
		enginetest.AssertQuiesced(t, eng)
	}
}

// TestPartitionerOutOfRangeFailsTheJob: an index outside [0, partitions)
// used to panic inside the shuffle writer's collector. The action now
// fails with it.
func TestPartitionerOutOfRangeFailsTheJob(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(4, 32*1024), '\n')
	_, res := eng.TextFile(in).SortByKey(enginetest.OutOfRange{}, nil, 4).Collect()
	enginetest.AssertPartitionError(t, eng, res, 4)
}
