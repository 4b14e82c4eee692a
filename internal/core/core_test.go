package core

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
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
)

func testSetup(blockSize float64, scale float64) (*cluster.Cluster, *dfs.FS, *Engine) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: blockSize, Replication: 3, Scale: scale, Seed: 1, PerBlockOverhead: 0.05})
	return c, fs, New(fs, DefaultConfig())
}

func genText(seed int64, nBytes int) []byte {
	words := []string{"mpi", "data", "key", "value", "pair", "comm", "rank", "task"}
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

func refCounts(data []byte) map[string]int64 {
	counts := map[string]int64{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		for _, w := range bytes.Fields(line) {
			counts[string(w)]++
		}
	}
	return counts
}

func TestWordCountCorrectness(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(1, 64*1024)
	in := fs.PreloadAligned("/in", data, '\n')
	res := eng.Run(wcSpec(fs, in, "/out", 8))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	got := map[string]int64{}
	for _, p := range job.ReadTextOutput(fs, "/out") {
		got[string(p.Key)] += kv.ParseInt(p.Value)
	}
	want := refCounts(data)
	for w, n := range want {
		if got[w] != n {
			t.Fatalf("count[%s]=%d want %d", w, got[w], n)
		}
	}
	if res.Phases["O"] <= 0 || res.Phases["A"] <= 0 {
		t.Fatalf("phases missing: %v", res.Phases)
	}
	enginetest.AssertQuiesced(t, eng)
}

func TestSortGlobalOrder(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(2, 32*1024)
	in := fs.PreloadAligned("/in", data, '\n')
	spec := job.Spec{
		Name: "textsort", FS: fs, Input: in, InputFormat: job.Text,
		Output: "/out", Reducers: 4,
		Map:  func(key, value []byte, emit job.Emit) { emit(value, nil) },
		Part: &kv.RangePartitioner{Boundaries: [][]byte{[]byte("k"), []byte("p"), []byte("t")}},
	}
	res := eng.Run(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	out := job.ReadTextOutput(fs, "/out")
	for i := 1; i < len(out); i++ {
		if bytes.Compare(out[i-1].Key, out[i].Key) > 0 {
			t.Fatalf("not sorted at %d", i)
		}
	}
	nLines := 0
	for _, l := range bytes.Split(data, []byte("\n")) {
		if len(l) > 0 {
			nLines++
		}
	}
	if len(out) != nLines {
		t.Fatalf("output %d lines, want %d", len(out), nLines)
	}
}

func TestFasterThanHadoopOverheads(t *testing.T) {
	// DataMPI's startup overheads must be well under Hadoop's: a tiny job
	// completes in a few seconds of simulated time.
	_, fs, eng := testSetup(256*cluster.MB, 4096)
	in := fs.PreloadAligned("/in", genText(3, int(128*cluster.MB/4096)), '\n')
	res := eng.Run(wcSpec(fs, in, "/out", 8))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Elapsed > 30 {
		t.Fatalf("small DataMPI job took %.1fs, want under Hadoop's ~35s", res.Elapsed)
	}
	cfg := DefaultConfig()
	if res.Elapsed < cfg.JobLaunch+cfg.JobTeardown {
		t.Fatalf("job faster than launch overheads: %.2fs", res.Elapsed)
	}
}

func TestMapOnlyJob(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(4, 16*1024)
	in := fs.PreloadAligned("/in", data, '\n')
	spec := job.Spec{
		Name: "grep", FS: fs, Input: in, InputFormat: job.Text,
		Output: "/out", Reducers: 0,
		Map: func(key, value []byte, emit job.Emit) {
			if bytes.Contains(value, []byte("mpi")) {
				emit(value, nil)
			}
		},
	}
	res := eng.Run(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	out := job.ReadTextOutput(fs, "/out")
	if len(out) == 0 {
		t.Fatal("no output")
	}
	for _, p := range out {
		if !bytes.Contains(p.Key, []byte("mpi")) {
			t.Fatalf("non-matching output %q", p.Key)
		}
	}
}

// TestPartitionerOutOfRangeFailsTheJob: an index outside [0, A tasks)
// used to panic inside the O side's collector. The job now fails with it.
func TestPartitionerOutOfRangeFailsTheJob(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(4, 32*1024), '\n')
	spec := wcSpec(fs, in, "/out", 4)
	spec.Part, spec.Fingerprint = enginetest.OutOfRange{}, ""
	enginetest.AssertPartitionError(t, eng, eng.Run(spec), 4)
}

func TestABufferSpill(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	data := genText(8, 128*1024)
	in := fs.PreloadAligned("/in", data, '\n')
	eng.Cfg.ABufferBytes = 4 * cluster.KB // force A-side spills
	res := eng.Run(wcSpec(fs, in, "/out", 4))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	got := map[string]int64{}
	for _, p := range job.ReadTextOutput(fs, "/out") {
		got[string(p.Key)] += kv.ParseInt(p.Value)
	}
	want := refCounts(data)
	for w, n := range want {
		if got[w] != n {
			t.Fatalf("with spills, count[%s]=%d want %d", w, got[w], n)
		}
	}
}

func TestProfilerSeesPipelinedNetwork(t *testing.T) {
	c, fs, eng := testSetup(2*cluster.MB, 256)
	in := fs.PreloadAligned("/in", genText(10, 1024*1024), '\n')
	prof := metrics.NewProfiler(c, 0.2)
	fs.SetProfiler(prof)
	eng.Prof = prof
	spec := job.Spec{
		Name: "sort", FS: fs, Input: in, InputFormat: job.Text,
		Output: "/out", Reducers: 32,
		Map:  func(key, value []byte, emit job.Emit) { emit(value, nil) },
		Part: kv.HashPartitioner{},
	}
	res := eng.Run(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	w := prof.Series().Aggregate(0)
	if w.AvgNet <= 0 {
		t.Fatal("no network activity profiled during shuffle")
	}
}

func TestDeterministic(t *testing.T) {
	run := func() float64 {
		_, fs, eng := testSetup(8*cluster.KB, 1)
		in := fs.PreloadAligned("/in", genText(11, 32*1024), '\n')
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

func TestIterationModeConverges(t *testing.T) {
	// A toy iterative computation: global state is a sum target; each
	// round every O task emits its local count, A aggregates, and the
	// state accumulates until round 3 stops it.
	_, fs, eng := testSetup(8*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(12, 32*1024), '\n')
	it := IterationJob[int]{
		Name: "toy", Input: in, InputFormat: job.Text, Rounds: 5,
		LoadO: func(records []kv.Pair) any { return len(records) },
		RunO: func(round int, state int, cached any, emit job.Emit) {
			emit([]byte("n"), kv.FormatInt(int64(cached.(int))))
		},
		RunA: func(round int, grouped []kv.Pair) []kv.Pair {
			var sum int64
			for _, p := range grouped {
				sum += kv.ParseInt(p.Value)
			}
			return []kv.Pair{{Key: []byte("n"), Value: kv.FormatInt(sum)}}
		},
		MergeState: func(round int, state int, aggs []kv.Pair) (int, bool) {
			var sum int64
			for _, p := range aggs {
				sum += kv.ParseInt(p.Value)
			}
			return state + int(sum), round >= 3
		},
		StateNominalBytes: 1024,
	}
	res := RunIteration(eng, it, 0)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
	nLines := 0
	for _, l := range bytes.Split(genText(12, 32*1024), []byte("\n")) {
		if len(l) > 0 {
			nLines++
		}
	}
	if res.State != 3*nLines {
		t.Fatalf("state = %d, want %d", res.State, 3*nLines)
	}
	if res.FirstRound <= 0 || res.FirstRound > res.Elapsed {
		t.Fatalf("first round %v vs elapsed %v", res.FirstRound, res.Elapsed)
	}
}

// TestIterationFailedLoadReleasesMemory: at replication 1 with the only
// replica's node down, an O-load rank fails its first read after charging
// its process memory; the failed job must hand back every rank's
// TaskMem and every cache already pinned, so the engine is reusable.
func TestIterationFailedLoadReleasesMemory(t *testing.T) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: 8 * cluster.KB, Replication: 1, Scale: 1, Seed: 1})
	eng := New(fs, DefaultConfig())
	in := fs.PreloadAligned("/in", genText(14, 64*1024), '\n')
	lost := in.Blocks[len(in.Blocks)-1].Locations[0]
	fs.NodeDown(lost)
	c.NodeDown(lost)
	it := IterationJob[int]{
		Name: "lossy", Input: in, InputFormat: job.Text, Rounds: 2,
		LoadO:      func(records []kv.Pair) any { return len(records) },
		RunO:       func(round, state int, cached any, emit job.Emit) { emit([]byte("n"), []byte("1")) },
		RunA:       func(round int, grouped []kv.Pair) []kv.Pair { return grouped },
		MergeState: func(round, state int, aggs []kv.Pair) (int, bool) { return state, false },
	}
	res := RunIteration(eng, it, 0)
	if res.Err == nil {
		t.Fatal("reading a block whose only replica is down should fail the job")
	}
	if res.Rounds != 0 {
		t.Fatalf("%d rounds ran after a failed load", res.Rounds)
	}
	for i := 0; i < c.N(); i++ {
		if used := c.Node(i).Mem.Used(); used != 0 {
			t.Fatalf("node %d still has %.0f bytes charged after the failed job", i, used)
		}
	}
}

func TestIterationLaterRoundsFasterThanFirst(t *testing.T) {
	// Rounds after the first skip the input load: they must be faster.
	_, fs, eng := testSetup(1*cluster.MB, 64)
	in := fs.PreloadAligned("/in", genText(13, 2*1024*1024), '\n')
	it := IterationJob[int]{
		Name: "toy2", Input: in, InputFormat: job.Text, Rounds: 3,
		CPUFactorO: 2,
		LoadO:      func(records []kv.Pair) any { return len(records) },
		RunO: func(round, state int, cached any, emit job.Emit) {
			emit([]byte("x"), []byte("1"))
		},
		RunA: func(round int, grouped []kv.Pair) []kv.Pair {
			if len(grouped) == 0 {
				return nil
			}
			return grouped[:1]
		},
		MergeState: func(round, state int, aggs []kv.Pair) (int, bool) {
			return state, false
		},
		StateNominalBytes: 1024,
	}
	res := RunIteration(eng, it, 0)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.RoundTimes) != 3 {
		t.Fatalf("round times: %v", res.RoundTimes)
	}
	if res.RoundTimes[1] >= res.RoundTimes[0] {
		t.Fatalf("round 2 (%.2fs) should beat round 1 (%.2fs) thanks to caching",
			res.RoundTimes[1], res.RoundTimes[0])
	}
}

var _ = fmt.Sprintf

func TestJobCounters(t *testing.T) {
	_, fs, eng := testSetup(8*cluster.KB, 1)
	in := fs.PreloadAligned("/in", genText(14, 64*1024), '\n')
	res := eng.Run(wcSpec(fs, in, "/out", 4))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Counters["o_tasks"] == 0 || res.Counters["a_tasks"] != 4 {
		t.Fatalf("task counters = %v", res.Counters)
	}
	if res.Counters["pipelined_bytes_nominal"] <= 0 {
		t.Fatal("no pipelined bytes recorded")
	}
}

// lossyInput stages 64 KB of text at replication 1 and fails the node
// holding the last block's only replica, on the filesystem and the
// cluster, before any job is submitted.
func lossyInput() (*cluster.Cluster, *dfs.FS, *Engine, *dfs.File, int) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: 8 * cluster.KB, Replication: 1, Scale: 1, Seed: 1})
	in := fs.PreloadAligned("/in", genText(14, 64*1024), '\n')
	lost := in.Blocks[len(in.Blocks)-1].Locations[0]
	fs.NodeDown(lost)
	c.NodeDown(lost)
	return c, fs, New(fs, DefaultConfig()), in, lost
}

// TestPermanentOFailureEndsTheJob: an O rank that cannot read a split
// fails for good and never sends that split's tags, which every A rank
// waits for. The failure must reach the A ranks: the job ends with the O
// rank's error at a finite time, not in the kernel's deadlock report
// (solo) or unfinished (queued), and gives everything back.
func TestPermanentOFailureEndsTheJob(t *testing.T) {
	for _, queued := range []bool{false, true} {
		t.Run(fmt.Sprintf("queued=%v", queued), func(t *testing.T) {
			c, fs, eng, in, lost := lossyInput()
			spec := wcSpec(fs, in, "/out", 8)
			var res job.Result
			if queued {
				q := sched.NewQueue(c.Eng, c.N(), sched.FIFO)
				q.NodeDown(lost)
				q.Admit("", q.Now(), 1, eng, spec)
				res = q.Run()[0]
			} else {
				res = eng.Run(spec)
			}
			if res.Err == nil {
				t.Fatal("a job with an unreadable split succeeded")
			}
			if msg := res.Err.Error(); strings.Contains(msg, "deadlock") || strings.Contains(msg, "did not complete") {
				t.Fatalf("the A ranks were left waiting: %v", res.Err)
			}
			if res.End <= res.Start || res.Elapsed != res.End-res.Start {
				t.Fatalf("failed job not stamped: start %v end %v elapsed %v", res.Start, res.End, res.Elapsed)
			}
			enginetest.AssertQuiesced(t, eng)
		})
	}
}

// toyIteration is a two-round Iteration job that counts records.
func toyIteration(in *dfs.File) IterationJob[int] {
	return IterationJob[int]{
		Name: "toy", Input: in, InputFormat: job.Text, Rounds: 2,
		LoadO:             func(records []kv.Pair) any { return len(records) },
		RunO:              func(round, state int, cached any, emit job.Emit) { emit([]byte("n"), []byte("1")) },
		RunA:              func(round int, grouped []kv.Pair) []kv.Pair { return grouped },
		MergeState:        func(round, state int, aggs []kv.Pair) (int, bool) { return state + len(aggs), false },
		StateNominalBytes: 1024,
	}
}

// TestIterationIsAJobLikeAnyOther: Iteration mode lives between Begin and
// Finish. A converged run, a failed load and a run the kernel reports as
// deadlocked (a rank that dies without sending, so the A ranks and the
// driver wait for ever) each leave no residency holder, no memory charged and no proc parked; and the
// profiler's refcount carries over to a Common-mode job on the same engine.
func TestIterationIsAJobLikeAnyOther(t *testing.T) {
	t.Run("converged", func(t *testing.T) {
		c, fs, eng := testSetup(8*cluster.KB, 1)
		eng.AttachProfiler(metrics.NewProfiler(c, 0.5))
		in := fs.PreloadAligned("/in", genText(12, 32*1024), '\n')
		if res := RunIteration(eng, toyIteration(in), 0); res.Err != nil || res.Rounds != 2 {
			t.Fatalf("rounds %d, err %v", res.Rounds, res.Err)
		}
		enginetest.AssertQuiesced(t, eng)
		if len(eng.Prof.Series().Samples) == 0 || eng.Prof.WaitIOFunc == nil {
			t.Fatal("the Iteration job did not start the profiler the way Begin does (sampling, wait-I/O attribution)")
		}
		// Back to back with a Common job under a fresh profiler: it starts
		// only if the Iteration job gave its hold on the refcount back, and
		// Run returns only if the Common job's own hold stops it.
		eng.AttachProfiler(metrics.NewProfiler(c, 0.5))
		if res := eng.Run(wcSpec(fs, in, "/out", 4)); res.Err != nil {
			t.Fatal(res.Err)
		}
		if len(eng.Prof.Series().Samples) == 0 {
			t.Fatal("the profiler did not sample the Common job that followed")
		}
		enginetest.AssertQuiesced(t, eng)
	})
	t.Run("failed load", func(t *testing.T) {
		_, _, eng, in, _ := lossyInput()
		if res := RunIteration(eng, toyIteration(in), 0); res.Err == nil || res.Rounds != 0 {
			t.Fatalf("rounds %d, err %v", res.Rounds, res.Err)
		}
		enginetest.AssertQuiesced(t, eng)
	})
	t.Run("deadlock", func(t *testing.T) {
		c, fs, eng := testSetup(8*cluster.KB, 1)
		in := fs.PreloadAligned("/in", genText(12, 32*1024), '\n')
		it := toyIteration(in)
		// Rank 1's round-1 process dies as it is spawned — cancelled, from
		// inside rank 0's task, before it first runs.
		it.RunO = func(round, state int, cached any, emit job.Emit) {
			c.Eng.CountBlocked(func(q *sim.Proc) bool {
				if q.Name() == "O-r1-1" {
					q.Cancel()
				}
				return false
			})
			emit([]byte("n"), []byte("1"))
		}
		res := RunIteration(eng, it, 0)
		if res.Err == nil || !strings.Contains(res.Err.Error(), "deadlock") {
			t.Fatalf("err = %v, want the kernel's deadlock report", res.Err)
		}
		enginetest.AssertQuiesced(t, eng)
	})
}

// TestIterationEmptyInputIsRejected: like a Common-mode job with no input,
// it is charged nothing and runs nothing.
func TestIterationEmptyInputIsRejected(t *testing.T) {
	c, fs, eng := testSetup(8*cluster.KB, 1)
	eng.AttachProfiler(metrics.NewProfiler(c, 0.5))
	res := RunIteration(eng, toyIteration(fs.Preload("/empty", nil)), 0)
	if res.Err == nil || res.Elapsed != 0 || len(eng.Prof.Series().Samples) != 0 {
		t.Fatalf("err %v, elapsed %v, %d profiler samples", res.Err, res.Elapsed, len(eng.Prof.Series().Samples))
	}
	enginetest.AssertQuiesced(t, eng)
}
