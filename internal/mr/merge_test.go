package mr

import (
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/enginetest"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/sched"
)

// TestEveryMergedRunIsSorted: the reduce side merges map-output
// partitions, so every one must be sorted however the reducer came by it
// — fetched, adopted from a stream it already pulled block by block,
// refetched from a surviving copy, or regenerated inside the reducer after
// the map's node died.
func TestEveryMergedRunIsSorted(t *testing.T) {
	checked := enginetest.CheckMerges(t)
	// queued runs one job over 128 splits through a scheduling queue.
	queued := func(t *testing.T, mkSpec func(*dfs.FS, *dfs.File, string, int) job.Spec,
		arm func(c *cluster.Cluster, fs *dfs.FS, eng *Engine, q *sched.Queue)) (job.Result, sched.TrackerStats) {
		c, fs, eng := testSetup(64*cluster.MB, 8192)
		spec := mkSpec(fs, fs.PreloadAligned("/in", genText(21, 1024*1024), '\n'), "/out", 8)
		return enginetest.RunQueued(t, fs, eng, spec, "/out/part-", func(q *sched.Queue) { arm(c, fs, eng, q) })
	}
	scenarios := map[string]func(t *testing.T){
		"clean wordcount": func(t *testing.T) {
			queued(t, wordCountSpec, func(*cluster.Cluster, *dfs.FS, *Engine, *sched.Queue) {})
		},
		"clean sort": func(t *testing.T) {
			queued(t, func(fs *dfs.FS, in *dfs.File, out string, _ int) job.Spec { return sortSpec(fs, in, out, 3) },
				func(*cluster.Cluster, *dfs.FS, *Engine, *sched.Queue) {})
		},
		"speculative duplicates": func(t *testing.T) {
			_, st := queued(t, wordCountSpec, func(c *cluster.Cluster, fs *dfs.FS, eng *Engine, q *sched.Queue) {
				q.SetSpeculation(sched.SpeculationConfig{Enabled: true})
				c.SlowNode(c.N()-1, 4)
			})
			if st.Backups == 0 {
				t.Fatal("no speculative backup ran")
			}
		},
		"lost map output": func(t *testing.T) {
			res, st := queued(t, wordCountSpec, func(c *cluster.Cluster, fs *dfs.FS, eng *Engine, q *sched.Queue) {
				enginetest.FailNodeAt(q, fs, eng, 40, 3)
			})
			if res.Counters["shuffle_refetches"]+int64(st.Recomputes) == 0 {
				t.Fatal("no reducer had to replace a dead map output")
			}
		},
	}
	for name, scenario := range scenarios {
		t.Run(name, func(t *testing.T) {
			before := checked.Load()
			scenario(t)
			if checked.Load() == before {
				t.Fatal("no run reached a merge")
			}
		})
	}
}
