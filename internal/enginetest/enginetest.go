// Package enginetest holds what the tests of the three engine packages
// (mr, rdd, core) share.
package enginetest

import (
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/taskrt"
)

// Engine is what mr, rdd and core engines are to these helpers: queueable,
// and reporting how many jobs still hold their runtime's residency.
type Engine interface {
	sched.Engine
	ActiveJobs() int
}

// AssertQuiesced drains the simulation (trailing lazy heap frees, DFS
// repairs) and checks that the engine gave back everything its jobs took:
// no job still holds the daemon residency, every node's memory account is
// back at zero, and no proc is left parked. It is the first slice of the
// conservation audit: call it after success, after a speculative race,
// after node-loss recovery and after a failed job. The engine must hold
// no cached data (a pinned rdd cache is residency by design).
func AssertQuiesced(t *testing.T, eng Engine) {
	t.Helper()
	c := eng.Cluster()
	if err := c.Eng.Run(); err != nil {
		t.Fatalf("draining the simulation: %v", err)
	}
	if n := eng.ActiveJobs(); n != 0 {
		t.Fatalf("%d jobs still hold the engine's daemon residency", n)
	}
	for i := 0; i < c.N(); i++ {
		if used := c.Node(i).Mem.Used(); used != 0 {
			t.Fatalf("node %d still has %.0f bytes allocated", i, used)
		}
	}
	if n := c.Eng.CountBlocked(func(*sim.Proc) bool { return true }); n != 0 {
		t.Fatalf("%d procs still live after the run", n)
	}
}

// OutOfRange is a kv.Partitioner that is wrong on purpose: it answers n,
// one past the last partition.
type OutOfRange struct{}

// Partition implements kv.Partitioner.
func (OutOfRange) Partition(key []byte, n int) int { return n }

// AssertPartitionError checks what a job partitioned by OutOfRange into
// nParts partitions must come to on every engine: no panic (the caller
// got here), a Result.Err that names the index and the partition count,
// and a quiesced engine.
func AssertPartitionError(t *testing.T, eng Engine, res job.Result, nParts int) {
	t.Helper()
	want := fmt.Sprintf("index %d for %d partitions", nParts, nParts)
	if res.Err == nil || !strings.Contains(res.Err.Error(), want) {
		t.Fatalf("Result.Err = %v, want it to say %q", res.Err, want)
	}
	AssertQuiesced(t, eng)
}

// RunQueued runs spec on eng through a FIFO scheduling queue, so that the
// task tracker can speculate and fail nodes; arm (optional) configures
// the queue and schedules faults before the job is submitted. The job
// must succeed, its output under outPrefix must match the sequential
// reference, and the engine must end quiesced.
func RunQueued(t *testing.T, fs *dfs.FS, eng Engine, spec job.Spec, outPrefix string, arm func(q *sched.Queue)) (job.Result, sched.TrackerStats) {
	t.Helper()
	c := eng.Cluster()
	q := sched.NewQueue(c.Eng, c.N(), sched.FIFO)
	if arm != nil {
		arm(q)
	}
	q.Admit("", q.Now(), 1, eng, spec)
	res := q.Run()[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	AssertMatchesSequential(t, fs, outPrefix, spec)
	AssertQuiesced(t, eng)
	return res, q.TrackerStats()
}

// FailNodeAt schedules the failure of node at simulated time at, as the
// scenario API's NodeDown event applies it: to the DFS, the cluster and
// the task tracker together.
func FailNodeAt(q *sched.Queue, fs *dfs.FS, eng sched.Engine, at float64, node int) {
	q.At(at, "node-down", func() {
		fs.NodeDown(node)
		eng.Cluster().NodeDown(node)
		q.NodeDown(node)
	})
}

// CheckMerges installs, at the runtime's merge seam (taskrt.MergeSeam,
// behind every engine's reduce side), a check of the merges'
// precondition — every run sorted under kv.Compare — on each set of runs
// handed to taskrt.MergeRuns, taskrt.MergeReduce or taskrt.ReduceTail, or
// pulled by a reducer that takes its tail computed ahead, and removes it
// when the test ends. The check runs on the Ahead workers too, so the
// returned counter, how many non-empty runs have been checked so far, is
// atomic.
func CheckMerges(t *testing.T) *atomic.Int64 {
	t.Helper()
	checked := new(atomic.Int64)
	seam := taskrt.MergeSeam()
	orig := *seam
	t.Cleanup(func() { *seam = orig })
	*seam = func(runs [][]kv.Pair) {
		for i, r := range runs {
			if !kv.IsSorted(r) {
				t.Errorf("run %d of %d handed to a merge is not sorted (%d pairs)", i, len(runs), len(r))
			}
			if len(r) > 0 {
				checked.Add(1)
			}
		}
	}
	return checked
}

// StagingSeam is bdb.FrozenSeam. bdb drives the engines whose tests
// import this package, so the caller passes it in.
type StagingSeam = func(f func(key string, data []byte)) (old func(key string, data []byte))

// CheckFrozen installs, at the runtime's freeze seam (taskrt.FrozenSeam),
// a record of every record store cell as it turns done — an FNV-64 hash
// of a map entry's partitions, every key and value, or of a reduce
// tail's text — and, when the test ends, removes it, hashes each cell
// again and fails the test for each that changed, naming the fingerprint
// and the block or partition: nobody may write into what the store
// shares. A test that must see every cell its jobs share runs them on an
// empty store (taskrt.EmptyStore).
// The returned counter is how many cells have been recorded so far.
//
// It does the same, at staging's freeze seam (bdb.FrozenSeam), for the
// staged inputs: every generated file and seq+gzip member the staging
// store holds when the test starts or makes during it, which every FS
// that stages it shares, is hashed then and again at the end, and a
// change fails the test naming the staged value's key. Those are not
// counted.
func CheckFrozen(t *testing.T, staging StagingSeam) *atomic.Int64 {
	t.Helper()
	type frozen struct {
		fingerprint, what string
		parts             [][]kv.Pair
		text              []byte
		sum               uint64
	}
	var mu sync.Mutex
	var cells []frozen
	type stagedBytes struct {
		key  string
		data []byte
		sum  uint64
	}
	var staged []stagedBytes
	seed := maphash.MakeSeed()
	origStage := staging(func(key string, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		staged = append(staged, stagedBytes{key, data, maphash.Bytes(seed, data)})
	})
	recorded := new(atomic.Int64)
	orig := taskrt.FrozenSeam(func(fingerprint, what string, parts [][]kv.Pair, text []byte) {
		mu.Lock()
		defer mu.Unlock()
		cells = append(cells, frozen{fingerprint, what, parts, text, hashCell(parts, text)})
		recorded.Add(1)
	})
	t.Cleanup(func() {
		taskrt.FrozenSeam(orig)
		staging(origStage)
		mu.Lock()
		defer mu.Unlock()
		for _, c := range cells {
			if hashCell(c.parts, c.text) != c.sum {
				t.Errorf("fingerprint %q, %s: shared bytes changed after the store handed them out", c.fingerprint, c.what)
			}
		}
		for _, s := range staged {
			if maphash.Bytes(seed, s.data) != s.sum {
				t.Errorf("staged %s: bytes changed after the staging store handed them out", s.key)
			}
		}
	})
	return recorded
}

// hashCell is the FNV-64 hash of every key and value of parts, then of
// text.
func hashCell(parts [][]kv.Pair, text []byte) uint64 {
	h := fnv.New64a()
	for _, run := range parts {
		for _, p := range run {
			h.Write(p.Key)
			h.Write(p.Value)
		}
	}
	h.Write(text)
	return h.Sum64()
}

func sortedStrings(ps []kv.Pair) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	sort.Strings(out)
	return out
}

// AssertMatchesSequential compares, as multisets, the records of the DFS
// files under outPrefix with what job.RunSequential computes for spec.
func AssertMatchesSequential(t *testing.T, fs *dfs.FS, outPrefix string, spec job.Spec) {
	t.Helper()
	ref, err := job.RunSequential(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, want := sortedStrings(job.ReadTextOutput(fs, outPrefix)), sortedStrings(ref)
	if len(got) != len(want) {
		t.Fatalf("%d output records, sequential reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("output record %d is %s, sequential reference has %s", i, got[i], want[i])
		}
	}
}
