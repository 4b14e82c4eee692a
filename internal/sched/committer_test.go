package sched

import (
	"fmt"
	"strings"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/sim"
)

// committerRig builds a tracker testbed with a real DFS so attempt-scoped
// writes charge simulated I/O and land in real block metadata.
func committerRig(scale float64) (*sim.Engine, *cluster.Cluster, *dfs.FS, *SlotPool) {
	eng := sim.NewEngine()
	c := cluster.NewOn(eng, cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: 64 * cluster.MB, Replication: 1, Scale: scale, Seed: 1})
	return eng, c, fs, NewSlotPool(Fair, c.N(), 1)
}

// TestCommitterSpeculativeRaceExactlyOnce is the golden committer race: 8
// DFS-writing tasks, one straggling on a slow node, speculation on. The
// backup must win the straggler's task and the task's output file must be
// committed exactly once, with no temp leftovers and the loser's partial
// state deleted.
func TestCommitterSpeculativeRaceExactlyOnce(t *testing.T) {
	eng, c, fs, pool := committerRig(1)
	tr := NewTaskTracker(eng, SpeculationConfig{
		Enabled:       true,
		SlowFraction:  0.5,
		MinRuntime:    1,
		CheckInterval: 1,
		MinCompleted:  3,
	}, PreemptionConfig{})
	h := &JobHandle{name: "job", weight: 1}

	payload := make([]byte, 8*cluster.MB)
	winners := make([]int, 8)
	for i := 0; i < 8; i++ {
		i := i
		tr.Launch(TaskSpec{
			Name: fmt.Sprintf("writer-%d", i), Node: i, Pool: pool, Handle: h,
			Group: "write", Restartable: true, CommitFS: fs,
			Body: func(p *sim.Proc, att *Attempt) (any, error) {
				if att.Node() == 0 && att.Index() == 0 {
					p.Sleep(100) // straggler
				} else {
					p.Sleep(10)
				}
				w := fs.Create(att.ScopedPath(fmt.Sprintf("/out/part-%d", i)), att.Node())
				if err := w.Write(p, payload); err != nil {
					return nil, err
				}
				return nil, w.Close(p)
			},
			Done: func(p *sim.Proc, v any, att *Attempt) error {
				winners[i] = att.Index()
				return nil
			},
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Backups != 1 || st.BackupWins != 1 || st.Kills != 1 {
		t.Fatalf("stats = %+v, want exactly one backup racing and winning", st)
	}
	if winners[0] != 1 {
		t.Fatalf("straggler task won by attempt %d, want the backup (1)", winners[0])
	}
	for i := 0; i < 8; i++ {
		if !fs.Exists(fmt.Sprintf("/out/part-%d", i)) {
			t.Fatalf("committed output /out/part-%d missing", i)
		}
	}
	for _, name := range fs.List() {
		if strings.HasPrefix(name, "/_tmp/") {
			t.Fatalf("temp leftover after commit: %s", name)
		}
	}
	if n := len(fs.List()); n != 8 {
		t.Fatalf("fs holds %d files, want exactly the 8 committed outputs: %v", n, fs.List())
	}
	// The cancelled straggler never reached its write; every stored byte
	// belongs to a committed file.
	total := 0.0
	for n := 0; n < c.N(); n++ {
		total += fs.DiskUsed(n)
	}
	if want := float64(8 * len(payload)); total != want {
		t.Fatalf("disk holds %v bytes, want %v (discarded attempts released)", total, want)
	}
}

// TestCommitterDiscardsKilledPartialWrite: an attempt cancelled in the
// middle of a scoped DFS write must have its partial temp file deleted
// and its disk usage released.
func TestCommitterDiscardsKilledPartialWrite(t *testing.T) {
	// 2 GB nominal in 32 blocks, held as 2 MB of real bytes.
	eng, c, fs, pool := committerRig(1024)
	tr := NewTaskTracker(eng, SpeculationConfig{}, PreemptionConfig{})
	h := &JobHandle{name: "job", weight: 1}
	tr.Launch(TaskSpec{
		Name: "bigwrite", Node: 2, Pool: pool, Handle: h, Group: "g",
		Restartable: false, CommitFS: fs,
		Body: func(p *sim.Proc, att *Attempt) (any, error) {
			w := fs.Create(att.ScopedPath("/out/big"), att.Node())
			if err := w.Write(p, make([]byte, 2*cluster.MB)); err != nil {
				return nil, err
			}
			return nil, w.Close(p)
		},
		Fail: func(err error) {},
	})
	// Fail the node mid-write: the attempt dies at its next park point
	// with blocks already flushed to the pipeline.
	eng.Schedule(5, func() {
		if fs.DiskUsed(2) == 0 {
			t.Error("no block flushed by t=5: the kill is not mid-write")
		}
		tr.NodeDown(2)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fs.List()) != 0 {
		t.Fatalf("killed attempt left files: %v", fs.List())
	}
	for n := 0; n < c.N(); n++ {
		if fs.DiskUsed(n) != 0 {
			t.Fatalf("node %d still charges %v bytes after discard", n, fs.DiskUsed(n))
		}
	}
}

// TestCommitterRequiresCommitFS: writing through ScopedPath on a spec
// with no CommitFS must fail the task with a wiring error, not commit.
func TestCommitterRequiresCommitFS(t *testing.T) {
	eng, _, fs, pool := committerRig(1)
	tr := NewTaskTracker(eng, SpeculationConfig{}, PreemptionConfig{})
	h := &JobHandle{name: "job", weight: 1}
	var failErr error
	tr.Launch(TaskSpec{
		Name: "miswired", Node: 0, Pool: pool, Handle: h, Group: "g",
		Body: func(p *sim.Proc, att *Attempt) (any, error) {
			w := fs.Create(att.ScopedPath("/out/x"), att.Node())
			if err := w.Write(p, make([]byte, 1024)); err != nil {
				return nil, err
			}
			return nil, w.Close(p)
		},
		Fail: func(err error) { failErr = err },
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if failErr == nil || !strings.Contains(failErr.Error(), "CommitFS") {
		t.Fatalf("missing-CommitFS not surfaced: %v", failErr)
	}
	if fs.Exists("/out/x") {
		t.Fatal("output committed despite the wiring error")
	}
}
