package sched_test

import (
	"sort"
	"strings"
	"testing"

	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/core"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/mr"
	"github.com/datampi/datampi-go/internal/rdd"
	"github.com/datampi/datampi-go/internal/sched"
)

// testRig builds a small testbed with two WordCount-able inputs staged
// and returns the filesystem plus the two job specs.
func testRig(t *testing.T, seed int64) (*dfs.FS, []job.Spec) {
	t.Helper()
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: 4 * cluster.MB, Replication: 3, Scale: 64, Seed: seed})
	in1 := bdb.GenerateTextFile(fs, "/in/one", bdb.LDAWiki1W(), seed+1, 64*cluster.MB)
	in2 := bdb.GenerateTextFile(fs, "/in/two", bdb.LDAWiki1W(), seed+2, 64*cluster.MB)
	return fs, []job.Spec{
		bdb.WordCountSpec(fs, in1, "/out/one", 8),
		bdb.GrepSpec(fs, in2, "/out/two", `th[ae]`, 8),
	}
}

func engineFor(name string, fs *dfs.FS) sched.Engine {
	switch name {
	case "Hadoop":
		return mr.New(fs, mr.DefaultConfig())
	case "Spark":
		return rdd.New(fs, rdd.DefaultConfig())
	default:
		return core.New(fs, core.DefaultConfig())
	}
}

func sortedPairs(ps []kv.Pair) []kv.Pair {
	out := append([]kv.Pair(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if string(out[i].Key) != string(out[j].Key) {
			return string(out[i].Key) < string(out[j].Key)
		}
		return string(out[i].Value) < string(out[j].Value)
	})
	return out
}

func pairsEqual(a, b []kv.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(a[i].Key) != string(b[i].Key) || string(a[i].Value) != string(b[i].Value) {
			return false
		}
	}
	return true
}

// TestQueueTwoJobsAllEngines runs two jobs concurrently on each engine
// type and checks both complete with correct output.
func TestQueueTwoJobsAllEngines(t *testing.T) {
	for _, name := range []string{"Hadoop", "Spark", "DataMPI"} {
		t.Run(name, func(t *testing.T) {
			fs, specs := testRig(t, 11)
			eng := engineFor(name, fs)
			q := sched.NewQueue(fs.Cluster().Eng, fs.Cluster().N(), sched.FIFO)
			for _, spec := range specs {
				q.Admit("", q.Now(), 1, eng, spec)
			}
			results := q.Run()
			for i, res := range results {
				if res.Err != nil {
					t.Fatalf("job %d failed: %v", i, res.Err)
				}
				if res.Elapsed <= 0 {
					t.Fatalf("job %d has non-positive elapsed %v", i, res.Elapsed)
				}
				want, err := job.RunSequential(specs[i])
				if err != nil {
					t.Fatal(err)
				}
				got := job.ReadTextOutput(fs, specs[i].Output)
				if !pairsEqual(sortedPairs(got), sortedPairs(want)) {
					t.Fatalf("job %d output mismatch: got %d pairs, want %d", i, len(got), len(want))
				}
			}
		})
	}
}

// TestQueueMixedSlotWidthsRefused: for every engine, a second engine of
// the same kind configured with a different slot width shares the queue's
// pool names. Its job must fail with an error naming the pool and the
// width it wanted, uncharged, while the first engine's job completes.
func TestQueueMixedSlotWidthsRefused(t *testing.T) {
	for _, tc := range []struct{ name, pool string }{
		{"Hadoop", `"mr-map"`}, {"Spark", `"spark-worker"`}, {"DataMPI", `"dm-o"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, specs := testRig(t, 11)
			var wide sched.Engine
			switch tc.name {
			case "Hadoop":
				cfg := mr.DefaultConfig()
				cfg.TasksPerNode = 6
				wide = mr.New(fs, cfg)
			case "Spark":
				cfg := rdd.DefaultConfig()
				cfg.TasksPerNode = 6
				wide = rdd.New(fs, cfg)
			default:
				cfg := core.DefaultConfig()
				cfg.TasksPerNode = 6
				wide = core.New(fs, cfg)
			}
			q := sched.NewQueue(fs.Cluster().Eng, fs.Cluster().N(), sched.FIFO)
			q.Admit("", q.Now(), 1, engineFor(tc.name, fs), specs[0])
			q.Admit("", q.Now(), 1, wide, specs[1])
			res := q.Run()
			if res[0].Err != nil {
				t.Fatalf("first job failed: %v", res[0].Err)
			}
			if err := res[1].Err; err == nil || !strings.Contains(err.Error(), "pool "+tc.pool) ||
				!strings.Contains(err.Error(), "wants 6") {
				t.Fatalf("second job error = %v, want it to name pool %s and the 6 slots/node it wanted", err, tc.pool)
			}
			if n := len(job.ReadTextOutput(fs, specs[1].Output)); n != 0 {
				t.Fatalf("the refused job wrote %d pairs", n)
			}
		})
	}
}

// TestQueueSlotContention checks that two concurrent jobs really contend:
// co-scheduled, each job takes at least as long as alone, and the
// makespan beats running them back to back.
func TestQueueSlotContention(t *testing.T) {
	alone := make([]float64, 2)
	for i := range alone {
		fs, specs := testRig(t, 23)
		eng := engineFor("Hadoop", fs)
		q := sched.NewQueue(fs.Cluster().Eng, fs.Cluster().N(), sched.FIFO)
		q.Admit("", q.Now(), 1, eng, specs[i])
		res := q.Run()[0]
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		alone[i] = res.Elapsed
	}

	fs, specs := testRig(t, 23)
	eng := engineFor("Hadoop", fs)
	q := sched.NewQueue(fs.Cluster().Eng, fs.Cluster().N(), sched.FIFO)
	for _, spec := range specs {
		q.Admit("", q.Now(), 1, eng, spec)
	}
	results := q.Run()
	makespan := 0.0
	for i, res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.End > makespan {
			makespan = res.End
		}
		// Sharing the testbed can only slow a job down (tiny float slack).
		if res.Elapsed < alone[i]*0.999 {
			t.Fatalf("job %d co-scheduled elapsed %.2f < isolated %.2f", i, res.Elapsed, alone[i])
		}
	}
	if makespan >= alone[0]+alone[1] {
		t.Fatalf("makespan %.2f not better than serial sum %.2f", makespan, alone[0]+alone[1])
	}
}

// TestQueueDeterministicSchedules runs the same mix twice per policy and
// requires bit-identical timing — the fixed-seed determinism the figure
// harness depends on.
func TestQueueDeterministicSchedules(t *testing.T) {
	run := func(policy sched.Policy) []float64 {
		fs, specs := testRig(t, 31)
		eng := engineFor("DataMPI", fs)
		q := sched.NewQueue(fs.Cluster().Eng, fs.Cluster().N(), policy)
		for _, spec := range specs {
			q.Admit("", q.Now(), 1, eng, spec)
		}
		var times []float64
		for _, res := range q.Run() {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			times = append(times, res.Start, res.End, res.Elapsed)
		}
		return times
	}
	for _, policy := range []sched.Policy{sched.FIFO, sched.Fair} {
		first := run(policy)
		second := run(policy)
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("%v schedule not deterministic: run1 %v != run2 %v", policy, first, second)
			}
		}
	}
}

// TestQueueSubmitAfter admits a second job 30 s after the first and
// checks it still completes and starts at its admission time.
func TestQueueSubmitAfter(t *testing.T) {
	fs, specs := testRig(t, 41)
	eng := engineFor("DataMPI", fs)
	q := sched.NewQueue(fs.Cluster().Eng, fs.Cluster().N(), sched.Fair)
	q.Admit("", q.Now(), 1, eng, specs[0])
	q.Admit("", q.Now()+30, 1, eng, specs[1])
	results := q.Run()
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d failed: %v", i, res.Err)
		}
	}
	if results[1].Start != 30 {
		t.Fatalf("staggered job started at %v, want 30", results[1].Start)
	}
}
