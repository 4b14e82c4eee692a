package dfs

import (
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/sim"
)

func TestFsckHealthy(t *testing.T) {
	c := testCluster()
	fs := New(c, scaled(DefaultConfig()))
	fs.Preload("/a", zeros(600*cluster.MB))
	rep := fs.Fsck()
	if rep.Files != 1 || rep.Blocks != 3 {
		t.Fatalf("fsck = %+v", rep)
	}
	if rep.UnderReplicated != 0 || rep.Missing != 0 {
		t.Fatalf("healthy fs reported problems: %+v", rep)
	}
}

func TestFsckDetectsUnderReplication(t *testing.T) {
	c := testCluster()
	fs := New(c, scaled(DefaultConfig()))
	f := fs.Preload("/a", zeros(256*cluster.MB))
	fs.NodeDown(f.Blocks[0].Locations[0])
	rep := fs.Fsck()
	if rep.UnderReplicated == 0 {
		t.Fatalf("under-replication not detected: %+v", rep)
	}
}

func TestRereplicateRestoresFactor(t *testing.T) {
	c := testCluster()
	fs := New(c, scaled(DefaultConfig()))
	fs.Preload("/a", zeros(1*cluster.GB))
	fs.Preload("/b", zeros(512*cluster.MB))

	// Kill two nodes; some blocks lose one or two replicas.
	fs.NodeDown(0)
	fs.NodeDown(3)
	before := fs.Fsck()
	if before.UnderReplicated == 0 {
		t.Skip("seed produced no under-replicated blocks") // deterministic seed: should not happen
	}

	var created int
	var rerr error
	c.Eng.Go("nn-monitor", func(p *sim.Proc) {
		created, rerr = fs.Rereplicate(p)
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	if created == 0 {
		t.Fatal("no replicas created")
	}
	after := fs.Fsck()
	if after.UnderReplicated != 0 || after.Missing != 0 {
		t.Fatalf("still unhealthy after re-replication: %+v", after)
	}
	if c.Eng.Now() <= 0 {
		t.Fatal("re-replication charged no simulated time")
	}
	// New replicas never on dead nodes.
	for _, name := range fs.List() {
		f, _ := fs.Open(name)
		for _, b := range f.Blocks {
			live := 0
			for _, loc := range b.Locations {
				if loc != 0 && loc != 3 {
					live++
				}
			}
			if live < fs.Config().Replication {
				t.Fatalf("block %d has %d live replicas", b.ID, live)
			}
		}
	}
}

func TestRereplicateReportsDataLoss(t *testing.T) {
	c := testCluster()
	fs := New(c, scaled(DefaultConfig()))
	f := fs.Preload("/a", zeros(256*cluster.MB))
	for _, loc := range f.Blocks[0].Locations {
		fs.NodeDown(loc)
	}
	var rerr error
	c.Eng.Go("nn", func(p *sim.Proc) {
		_, rerr = fs.Rereplicate(p)
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rerr == nil {
		t.Fatal("expected data-loss error")
	}
}

func TestReadsWorkThroughFailureAndRecovery(t *testing.T) {
	// End-to-end failure story: lose a node mid-life, re-replicate, lose
	// another, and reads still return correct data throughout.
	c := testCluster()
	fs := New(c, Config{BlockSize: 64 * cluster.MB, Replication: 3, Scale: testScale, Seed: 9})
	data := zeros(200 * cluster.MB)
	for i := range data {
		data[i] = byte(i * 31)
	}
	fs.Preload("/d", data)
	fs.NodeDown(1)
	c.Eng.Go("ops", func(p *sim.Proc) {
		if _, err := fs.Rereplicate(p); err != nil {
			t.Error(err)
			return
		}
		fs.NodeDown(2)
		got, err := fs.ReadAll(p, "/d", 5)
		if err != nil {
			t.Error(err)
			return
		}
		if len(got) != len(data) {
			t.Errorf("read %d bytes, want %d", len(got), len(data))
		}
		for i := range got {
			if got[i] != data[i] {
				t.Errorf("byte %d differs", i)
				return
			}
		}
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}
