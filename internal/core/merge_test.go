package core

import (
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/enginetest"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/sched"
)

// TestEveryMergedRunIsSorted: the A side merges the O tasks' partitions
// instead of sorting them, so each must arrive sorted — on a clean run,
// when a speculative backup streams a split a second time, when an A rank
// restarts on another node and the O side replays, and in iteration mode.
func TestEveryMergedRunIsSorted(t *testing.T) {
	checked := enginetest.CheckMerges(t)
	// queued runs one WordCount through a scheduling queue.
	queued := func(t *testing.T, arm func(c *cluster.Cluster, fs *dfs.FS, eng *Engine, q *sched.Queue)) job.Result {
		c, fs, eng := testSetup(64*cluster.MB, 8192)
		spec := wcSpec(fs, fs.PreloadAligned("/in", genText(21, 1024*1024), '\n'), "/out", 8)
		res, _ := enginetest.RunQueued(t, fs, eng, spec, "/out/part-", func(q *sched.Queue) { arm(c, fs, eng, q) })
		return res
	}
	scenarios := map[string]func(t *testing.T){
		"clean": func(t *testing.T) {
			_, fs, eng := testSetup(8*cluster.KB, 1)
			spec := wcSpec(fs, fs.PreloadAligned("/in", genText(1, 64*1024), '\n'), "/out", 8)
			if res := eng.Run(spec); res.Err != nil {
				t.Fatal(res.Err)
			}
			enginetest.AssertMatchesSequential(t, fs, "/out/part-", spec)
		},
		"duplicate speculative streams": func(t *testing.T) {
			res := queued(t, func(c *cluster.Cluster, fs *dfs.FS, eng *Engine, q *sched.Queue) {
				q.SetSpeculation(sched.SpeculationConfig{Enabled: true})
				c.SlowNode(c.N()-1, 4)
			})
			if res.Counters["duplicate_bytes_nominal"] == 0 {
				t.Fatal("no split was streamed twice: the scenario did not exercise tag dedup")
			}
		},
		"A rank restart": func(t *testing.T) {
			res := queued(t, func(c *cluster.Cluster, fs *dfs.FS, eng *Engine, q *sched.Queue) {
				enginetest.FailNodeAt(q, fs, eng, 8, 3)
			})
			if res.Counters["a_restarts"] == 0 {
				t.Fatal("no A rank restarted: the scenario did not exercise the O-side replay")
			}
		},
		"iteration": func(t *testing.T) {
			_, fs, eng := testSetup(8*cluster.KB, 1)
			in := fs.PreloadAligned("/in", genText(12, 32*1024), '\n')
			it := IterationJob[int]{
				Name: "toy", Input: in, InputFormat: job.Text, Rounds: 2,
				LoadO: func(records []kv.Pair) any { return records },
				RunO: func(round int, state int, cached any, emit job.Emit) {
					for _, r := range cached.([]kv.Pair) {
						emit(r.Value, kv.FormatInt(int64(round)))
					}
				},
				RunA:              func(round int, grouped []kv.Pair) []kv.Pair { return grouped },
				MergeState:        func(round int, state int, aggs []kv.Pair) (int, bool) { return state + len(aggs), false },
				StateNominalBytes: 1024,
			}
			if res := RunIteration(eng, it, 0); res.Err != nil {
				t.Fatal(res.Err)
			}
		},
	}
	for name, run := range scenarios {
		t.Run(name, func(t *testing.T) {
			before := *checked
			run(t)
			if *checked == before {
				t.Fatal("no run reached a merge")
			}
		})
	}
}
