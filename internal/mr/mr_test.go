package mr

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/enginetest"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/metrics"
)

func testSetup(blockSize float64, scale float64) (*cluster.Cluster, *dfs.FS, *Engine) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: blockSize, Replication: 3, Scale: scale, Seed: 1, PerBlockOverhead: 0.05})
	eng := New(fs, DefaultConfig())
	return c, fs, eng
}

func genText(seed int64, nBytes int) []byte {
	words := []string{"the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog", "data", "mpi"}
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

func wordCountSpec(fs *dfs.FS, in *dfs.File, out string, reducers int) job.Spec {
	return job.Spec{
		Name:        "wordcount",
		FS:          fs,
		Input:       in,
		InputFormat: job.Text,
		Output:      out,
		Reducers:    reducers,
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

func refWordCount(data []byte) map[string]int64 {
	counts := map[string]int64{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		for _, w := range bytes.Fields(line) {
			counts[string(w)]++
		}
	}
	return counts
}

func TestWordCountCorrectness(t *testing.T) {
	_, fs, eng := testSetup(4*cluster.KB, 1)
	data := genText(1, 64*1024)
	in := fs.PreloadAligned("/in/text", data, '\n')
	res := eng.Run(wordCountSpec(fs, in, "/out/wc", 8))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	got := map[string]int64{}
	for _, p := range job.ReadTextOutput(fs, "/out/wc") {
		got[string(p.Key)] += kv.ParseInt(p.Value)
	}
	want := refWordCount(data)
	if len(got) != len(want) {
		t.Fatalf("got %d distinct words, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			t.Fatalf("count[%s] = %d, want %d", w, got[w], n)
		}
	}
	if res.Elapsed <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	if res.Phases["map"] <= 0 || res.Phases["reduce"] <= 0 {
		t.Fatalf("phases not recorded: %v", res.Phases)
	}
	enginetest.AssertQuiesced(t, eng)
}

func TestWordCountMatchesSequentialReference(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(2, 32*1024)
	in := fs.PreloadAligned("/in/text", data, '\n')
	spec := wordCountSpec(fs, in, "/out/wc", 4)
	res := eng.Run(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	ref, err := job.RunSequential(spec)
	if err != nil {
		t.Fatal(err)
	}
	refCounts := map[string]string{}
	for _, p := range ref {
		refCounts[string(p.Key)] = string(p.Value)
	}
	for _, p := range job.ReadTextOutput(fs, "/out/wc") {
		if refCounts[string(p.Key)] != string(p.Value) {
			t.Fatalf("key %s: engine %s, reference %s", p.Key, p.Value, refCounts[string(p.Key)])
		}
	}
}

func sortSpec(fs *dfs.FS, in *dfs.File, out string, reducers int) job.Spec {
	return job.Spec{
		Name:        "textsort",
		FS:          fs,
		Input:       in,
		InputFormat: job.Text,
		Output:      out,
		Reducers:    reducers,
		Map: func(key, value []byte, emit job.Emit) {
			emit(value, nil)
		},
		Part: &kv.RangePartitioner{Boundaries: [][]byte{[]byte("g"), []byte("p")}},
	}
}

func TestTextSortGlobalOrder(t *testing.T) {
	_, fs, eng := testSetup(4*cluster.KB, 1)
	data := genText(3, 32*1024)
	in := fs.PreloadAligned("/in/text", data, '\n')
	res := eng.Run(sortSpec(fs, in, "/out/sort", 3))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	out := job.ReadTextOutput(fs, "/out/sort")
	var lines []string
	for _, p := range out {
		lines = append(lines, string(p.Key))
	}
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			t.Fatalf("output not globally sorted at %d: %q > %q", i, lines[i-1], lines[i])
		}
	}
	// Same multiset of lines as input.
	var want []string
	for _, l := range bytes.Split(data, []byte("\n")) {
		if len(l) > 0 {
			want = append(want, string(l))
		}
	}
	if len(lines) != len(want) {
		t.Fatalf("output has %d lines, want %d", len(lines), len(want))
	}
}

func TestMapOnlyJob(t *testing.T) {
	_, fs, eng := testSetup(4*cluster.KB, 1)
	data := genText(4, 16*1024)
	in := fs.PreloadAligned("/in/text", data, '\n')
	spec := job.Spec{
		Name:        "grep-maponly",
		FS:          fs,
		Input:       in,
		InputFormat: job.Text,
		Output:      "/out/grep",
		Reducers:    0,
		Reduce:      nil,
		Map: func(key, value []byte, emit job.Emit) {
			if bytes.Contains(value, []byte("fox")) {
				emit(value, nil)
			}
		},
	}
	res := eng.Run(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	out := job.ReadTextOutput(fs, "/out/grep")
	if len(out) == 0 {
		t.Fatal("map-only job produced no output")
	}
	for _, p := range out {
		if !strings.Contains(string(p.Key), "fox") {
			t.Fatalf("non-matching line in output: %q", p.Key)
		}
	}
}

func TestScaledRunFasterInputIdenticalResults(t *testing.T) {
	// Same nominal job at scale 1 and scale 16 must produce identical
	// word counts (the data generator is seeded) and comparable times.
	run := func(scale float64) (map[string]int64, float64) {
		_, fs, eng := testSetup(64*cluster.KB, scale)
		data := genText(5, int(64*1024/scale))
		in := fs.PreloadAligned("/in", data, '\n')
		res := eng.Run(wordCountSpec(fs, in, "/out", 4))
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		got := map[string]int64{}
		for _, p := range job.ReadTextOutput(fs, "/out") {
			got[string(p.Key)] += kv.ParseInt(p.Value)
		}
		return got, res.Elapsed
	}
	_, t1 := run(1)
	_, t16 := run(16)
	// Nominal work identical: elapsed should be within 2x of each other
	// (granularity effects allowed).
	ratio := t1 / t16
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("scaled run time ratio %v (t1=%v t16=%v)", ratio, t1, t16)
	}
}

func TestJobOverheadDominatesSmallJobs(t *testing.T) {
	_, fs, eng := testSetup(256*cluster.MB, 4096)
	data := genText(6, int(128*cluster.MB/4096))
	in := fs.PreloadAligned("/in", data, '\n')
	res := eng.Run(wordCountSpec(fs, in, "/out", 8))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	cfg := DefaultConfig()
	minOverhead := cfg.JobInit + cfg.TaskLaunch + cfg.JobCommit
	if res.Elapsed < minOverhead {
		t.Fatalf("small job took %.1fs, below overhead floor %.1fs", res.Elapsed, minOverhead)
	}
	if res.Elapsed > 120 {
		t.Fatalf("small job took %.1fs, absurdly slow", res.Elapsed)
	}
}

func TestProfilerCapturesActivity(t *testing.T) {
	c, fs, eng := testSetup(4*cluster.MB, 64)
	in := fs.PreloadAligned("/in", genText(8, 512*1024), '\n')
	prof := metrics.NewProfiler(c, 0.2)
	fs.SetProfiler(prof)
	eng.Prof = prof
	res := eng.Run(wordCountSpec(fs, in, "/out", 8))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	series := prof.Series()
	if len(series.Samples) == 0 {
		t.Fatal("profiler collected no samples")
	}
	w := series.Aggregate(0)
	if w.AvgCPUPct <= 0 {
		t.Fatal("no CPU activity recorded")
	}
	if w.AvgDiskRead <= 0 {
		t.Fatal("no disk reads recorded")
	}
	if w.PeakMem <= 0 {
		t.Fatal("no memory footprint recorded")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		_, fs, eng := testSetup(8*cluster.KB, 1)
		in := fs.PreloadAligned("/in", genText(9, 32*1024), '\n')
		res := eng.Run(wordCountSpec(fs, in, "/out", 4))
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Elapsed
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic elapsed: %v vs %v", a, b)
	}
}

func TestSpillingOnTinySortBuffer(t *testing.T) {
	_, fs, _ := testSetup(16*cluster.KB, 1)
	cfg := DefaultConfig()
	cfg.SortBufferBytes = 2 * cluster.KB // force spills
	eng := New(fs, cfg)
	data := genText(10, 64*1024)
	in := fs.PreloadAligned("/in", data, '\n')
	res := eng.Run(wordCountSpec(fs, in, "/out", 4))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	got := map[string]int64{}
	for _, p := range job.ReadTextOutput(fs, "/out") {
		got[string(p.Key)] += kv.ParseInt(p.Value)
	}
	want := refWordCount(data)
	for w, n := range want {
		if got[w] != n {
			t.Fatalf("with spilling, count[%s] = %d, want %d", w, got[w], n)
		}
	}
}

func TestManyReducersBalanced(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(11, 128*1024), '\n')
	res := eng.Run(wordCountSpec(fs, in, "/out", 16))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	files := fs.ListPrefix("/out/part-r-")
	if len(files) != 16 {
		t.Fatalf("got %d part files, want 16", len(files))
	}
}

func TestEmptyInputFails(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	in := fs.Preload("/in", nil)
	res := eng.Run(wordCountSpec(fs, in, "/out", 2))
	if res.Err == nil {
		t.Fatal("expected error for empty input")
	}
	enginetest.AssertQuiesced(t, eng)
}

// TestPartitionerOutOfRangeFailsTheJob: an index outside [0, reducers)
// used to panic inside the collector's spill. With a combiner and
// without one (the collector's two fills), the job now fails with it.
func TestPartitionerOutOfRangeFailsTheJob(t *testing.T) {
	for _, mk := range []func(*dfs.FS, *dfs.File, string, int) job.Spec{wordCountSpec, sortSpec} {
		_, fs, eng := testSetup(8*cluster.KB, 1)
		in := fs.PreloadAligned("/in", genText(4, 32*1024), '\n')
		spec := mk(fs, in, "/out", 4)
		spec.Part, spec.Fingerprint = enginetest.OutOfRange{}, ""
		enginetest.AssertPartitionError(t, eng, eng.Run(spec), 4)
	}
}

func TestMapPhaseShorterThanJob(t *testing.T) {
	_, fs, eng := testSetup(256*cluster.MB, 8192)
	in := fs.PreloadAligned("/in", genText(12, int(2*cluster.GB/8192)), '\n')
	res := eng.Run(sortSpec(fs, in, "/out", 32))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Phases["map"] >= res.Elapsed {
		t.Fatalf("map phase %.1fs >= job %.1fs", res.Phases["map"], res.Elapsed)
	}
}

func BenchmarkEngineWordCount1GB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, fs, eng := testSetup(256*cluster.MB, 16384)
		in := fs.PreloadAligned("/in", genText(13, int(1*cluster.GB/16384)), '\n')
		res := eng.Run(wordCountSpec(fs, in, "/out", 32))
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		b.ReportMetric(res.Elapsed, "simsec/job")
	}
}

var _ = fmt.Sprintf // keep fmt for debug edits

func TestJobCounters(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(14, 64*1024), '\n')
	res := eng.Run(wordCountSpec(fs, in, "/out", 4))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Counters["maps"] != int64(len(in.Blocks)) {
		t.Fatalf("maps counter = %d, want %d", res.Counters["maps"], len(in.Blocks))
	}
	if res.Counters["reduces"] != 4 {
		t.Fatalf("reduces counter = %d", res.Counters["reduces"])
	}
	if res.Counters["data_local_maps"] == 0 {
		t.Fatal("no data-local maps recorded")
	}
	if res.Counters["data_local_maps"] > res.Counters["maps"] {
		t.Fatal("locality counter exceeds map counter")
	}
	if res.Counters["shuffle_bytes_nominal"] <= 0 {
		t.Fatal("no shuffle bytes recorded")
	}
}
