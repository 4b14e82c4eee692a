package rdd

import (
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/enginetest"
	"github.com/datampi/datampi-go/internal/sched"
)

// TestEveryMergedRunIsSorted: a wide stage merges the shuffle partitions
// it fetches, so each must be sorted — as the producing task wrote it,
// and as the consumer regenerates it when the producer's node died.
func TestEveryMergedRunIsSorted(t *testing.T) {
	checked := enginetest.CheckMerges(t)
	// queued runs one WordCount over 128 splits through a scheduling
	// queue; failAt > 0 fails node 3 at that simulated second.
	queued := func(t *testing.T, failAt float64) sched.TrackerStats {
		_, fs, eng := testSetup(64*cluster.MB, 8192)
		spec := wcSpec(fs, fs.PreloadAligned("/in", genText(21, 1024*1024), '\n'), "/out", 8)
		_, st := enginetest.RunQueued(t, fs, eng, spec, "/out/part-", func(q *sched.Queue) {
			if failAt > 0 {
				enginetest.FailNodeAt(q, fs, eng, failAt, 3)
			}
		})
		return st
	}
	scenarios := map[string]func(t *testing.T){
		"clean": func(t *testing.T) { queued(t, 0) },
		"lost shuffle output": func(t *testing.T) {
			// The clean run takes 37 simulated seconds: at 30 the map
			// stage is done and the wide stage is fetching.
			if st := queued(t, 30); st.Recomputes == 0 {
				t.Fatal("no consumer regenerated a lost shuffle output")
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
