package dfs

import (
	"strings"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/sim"
)

// TestMonitorRereplicatesOnNodeDown: the monitor must react to a datanode
// failure by itself — detection delay, prioritized copies, and a healthy
// Fsck afterwards.
func TestMonitorRereplicatesOnNodeDown(t *testing.T) {
	c := testCluster()
	fs := New(c, scaled(DefaultConfig()))
	fs.Preload("/a", zeros(1*cluster.GB))
	fs.Preload("/b", zeros(512*cluster.MB))
	mon := NewReplicationMonitor(fs, MonitorConfig{DetectionDelay: 5})

	c.Eng.Schedule(10, func() { fs.NodeDown(2) })
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	rep := fs.Fsck()
	if !rep.Healthy() {
		t.Fatalf("fs unhealthy after monitor recovery: %+v", rep)
	}
	st := mon.Stats()
	if st.BlocksRereplicated == 0 || st.BytesRereplicated == 0 {
		t.Fatalf("monitor did no work: %+v", st)
	}
	if st.BlocksLost != 0 {
		t.Fatalf("monitor reported loss at replication 3: %+v", st)
	}
	if now := c.Eng.Now(); now < 15 {
		t.Fatalf("recovery finished at t=%v, want detection delay (5s after the t=10 failure) plus copy time", now)
	}
}

// TestMonitorIdleAddsNoEvents: with no failure the monitor must hold the
// event queue open for exactly nothing — the simulation stays empty.
func TestMonitorIdleAddsNoEvents(t *testing.T) {
	c := testCluster()
	fs := New(c, scaled(DefaultConfig()))
	fs.Preload("/a", zeros(256*cluster.MB))
	NewReplicationMonitor(fs, MonitorConfig{})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Eng.Now() != 0 {
		t.Fatalf("idle monitor advanced the clock to %v", c.Eng.Now())
	}
}

// TestMonitorThrottleStretchesRecovery: a bandwidth cap must slow the
// copies down to at most the configured average rate.
func TestMonitorThrottleStretchesRecovery(t *testing.T) {
	elapsed := func(bw float64) (float64, MonitorStats) {
		c := testCluster()
		fs := New(c, scaled(DefaultConfig()))
		fs.Preload("/a", zeros(1*cluster.GB))
		mon := NewReplicationMonitor(fs, MonitorConfig{DetectionDelay: 1, CopyBandwidth: bw})
		c.Eng.Schedule(0, func() { fs.NodeDown(1) })
		if err := c.Eng.Run(); err != nil {
			t.Fatal(err)
		}
		if rep := fs.Fsck(); !rep.Healthy() {
			t.Fatalf("bw=%v: unhealthy after recovery: %+v", bw, rep)
		}
		return c.Eng.Now(), mon.Stats()
	}
	fast, _ := elapsed(0)
	bw := 10.0 * cluster.MB
	slow, st := elapsed(bw)
	if st.BlocksRereplicated == 0 {
		t.Skip("seed lost no replicas on node 1") // deterministic seed: should not happen
	}
	if slow <= fast {
		t.Fatalf("throttled recovery (%vs) not slower than unthrottled (%vs)", slow, fast)
	}
	// The cap bounds the average rate: the copied bytes cannot have moved
	// faster than bw end to end (detection delay excluded).
	if min := st.BytesRereplicated / bw; slow-1 < min-1e-9 {
		t.Fatalf("throttled recovery took %vs for %v bytes, faster than the %v B/s cap allows (want >= %vs)",
			slow, st.BytesRereplicated, bw, min)
	}
}

// TestMonitorCountsDataLoss: blocks that lose every replica are counted
// as lost bytes, once, and never repaired.
func TestMonitorCountsDataLoss(t *testing.T) {
	c := testCluster()
	cfg := scaled(DefaultConfig())
	cfg.Replication = 1
	fs := New(c, cfg)
	f := fs.Preload("/a", zeros(256*cluster.MB))
	mon := NewReplicationMonitor(fs, MonitorConfig{DetectionDelay: 1})
	victim := f.Blocks[0].Locations[0]
	c.Eng.Schedule(0, func() { fs.NodeDown(victim) })
	// A second, unrelated failure later re-scans and must not double-count.
	c.Eng.Schedule(50, func() { fs.NodeDown((victim + 1) % c.N()) })
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := mon.Stats()
	if st.BlocksLost != 1 || st.BytesLost != 256*cluster.MB {
		t.Fatalf("loss accounting wrong: %+v", st)
	}
}

// TestMonitorChurnWithConcurrentWriters is the satellite stress test:
// files are written through the pipeline while nodes die one after
// another and the monitor repairs behind them. Everything written must
// stay readable and Fsck must settle healthy.
func TestMonitorChurnWithConcurrentWriters(t *testing.T) {
	c := testCluster()
	fs := New(c, Config{BlockSize: 64 * cluster.MB, Replication: 3, Scale: testScale, Seed: 7})
	mon := NewReplicationMonitor(fs, MonitorConfig{DetectionDelay: 2})

	mkData := func(n int, salt byte) []byte {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i)*31 + salt
		}
		return data
	}
	files := map[string][]byte{
		"/w/a": mkData(int(200*cluster.MB/testScale), 1),
		"/w/b": mkData(int(150*cluster.MB/testScale), 2),
		"/w/c": mkData(int(100*cluster.MB/testScale), 3),
	}
	// Preloaded file whose replicas predate every failure.
	pre := mkData(int(160*cluster.MB/testScale), 9)
	fs.Preload("/pre", pre)

	client := 0
	for name, data := range files {
		name, data := name, data
		client++
		cl := client % c.N()
		c.Eng.Go("writer:"+name, func(p *sim.Proc) {
			w := fs.Create(name, cl)
			// Stream in chunks so failures land mid-write.
			const chunk = 16 * cluster.MB / testScale
			for off := 0; off < len(data); off += chunk {
				end := off + chunk
				if end > len(data) {
					end = len(data)
				}
				if err := w.Write(p, data[off:end]); err != nil {
					t.Error(err)
					return
				}
			}
			if err := w.Close(p); err != nil {
				t.Error(err)
			}
		})
	}
	c.Eng.Schedule(1, func() { fs.NodeDown(3) })
	c.Eng.Schedule(6, func() { fs.NodeDown(5) })
	c.Eng.Schedule(30, func() { fs.NodeUp(3) })
	c.Eng.Schedule(40, func() { fs.NodeDown(1) })
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}

	rep := fs.Fsck()
	if rep.UnderReplicated != 0 || rep.Missing != 0 {
		t.Fatalf("churn left the fs unhealthy: %+v", rep)
	}
	if mon.Stats().BlocksRereplicated == 0 {
		t.Fatal("monitor repaired nothing through the churn")
	}
	files["/pre"] = pre
	c.Eng.Go("reader", func(p *sim.Proc) {
		for name, want := range files {
			got, err := fs.ReadAll(p, name, 6)
			if err != nil {
				t.Error(err)
				continue
			}
			if len(got) != len(want) {
				t.Errorf("%s: read %d bytes, want %d", name, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s: byte %d differs", name, i)
					break
				}
			}
		}
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorFlapWithinDetectionDelay is the flap stress: a node bouncing
// down-up-down-up inside one detection window must not double-enqueue
// repairs (one scan pass, zero copies) and must not leak the worker proc —
// the monitor stays armed and handles a real failure afterwards.
func TestMonitorFlapWithinDetectionDelay(t *testing.T) {
	c := testCluster()
	fs := New(c, scaled(DefaultConfig()))
	f := fs.Preload("/a", zeros(512*cluster.MB))
	mon := NewReplicationMonitor(fs, MonitorConfig{DetectionDelay: 5})
	victim := f.Blocks[0].Locations[0] // a node that actually holds replicas

	c.Eng.Schedule(10, func() { fs.NodeDown(victim) })
	c.Eng.Schedule(12, func() { fs.NodeUp(victim) })
	c.Eng.Schedule(13, func() { fs.NodeDown(victim) })
	c.Eng.Schedule(14, func() { fs.NodeUp(victim) })
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := mon.Stats()
	if st.BlocksRereplicated != 0 {
		t.Fatalf("flap shorter than the detection delay still copied %d blocks", st.BlocksRereplicated)
	}
	if st.Scans != 1 {
		t.Fatalf("flap ran %d scan passes, want exactly 1 (no double-enqueue)", st.Scans)
	}
	if rep := fs.Fsck(); !rep.Healthy() || rep.Stale != 0 {
		t.Fatalf("flap left the fs unhealthy: %+v", rep)
	}

	// The worker must have exited cleanly (active flag released): a real
	// failure afterwards still triggers a full recovery pass.
	c.Eng.Schedule(1, func() { fs.NodeDown(victim) })
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	st = mon.Stats()
	if st.BlocksRereplicated == 0 {
		t.Fatal("monitor stuck after the flap: real failure repaired nothing")
	}
	if rep := fs.Fsck(); !rep.Healthy() {
		t.Fatalf("fs unhealthy after post-flap recovery: %+v", rep)
	}
}

// TestMonitorRejoinCancelsQueuedRepairs: a rejoin landing while the
// (throttled) repair queue drains obviates the remaining entries — they
// are counted as cancelled, not copied, and any copy that already raced
// over the factor is trimmed back.
func TestMonitorRejoinCancelsQueuedRepairs(t *testing.T) {
	c := testCluster()
	fs := New(c, scaled(DefaultConfig()))
	fs.Preload("/a", zeros(2*cluster.GB))
	mon := NewReplicationMonitor(fs, MonitorConfig{DetectionDelay: 2, CopyBandwidth: 16 * cluster.MB})

	c.Eng.Schedule(0, func() { fs.NodeDown(3) })
	// Detection at t=2, then ~the first copy crawls at 16 MB/s; the node
	// returns with most of the queue still pending.
	c.Eng.Schedule(8, func() { fs.NodeUp(3) })
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := mon.Stats()
	if st.RepairsCancelled == 0 {
		t.Fatalf("rejoin mid-drain cancelled nothing: %+v", st)
	}
	if rep := fs.Fsck(); !rep.Healthy() || rep.OverReplicated != 0 || rep.Stale != 0 {
		t.Fatalf("fs not reconciled after rejoin: %+v", rep)
	}
}

// TestCommitAttempt covers the atomic-rename contract: commit moves the
// temp file, a second commit of the same temp fails, and committing onto
// a taken name fails (exactly-once).
func TestCommitAttempt(t *testing.T) {
	c := testCluster()
	fs := New(c, DefaultConfig())
	fs.Preload("/_tmp/attempt-1/out/part-0", []byte("hello"))
	if err := fs.CommitAttempt("/_tmp/attempt-1/out/part-0", "/out/part-0"); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/out/part-0") || fs.Exists("/_tmp/attempt-1/out/part-0") {
		t.Fatal("rename did not move the file")
	}
	if f, _ := fs.Open("/out/part-0"); f.Name != "/out/part-0" {
		t.Fatalf("file name not updated: %q", f.Name)
	}
	if err := fs.CommitAttempt("/_tmp/attempt-1/out/part-0", "/out/part-0b"); err == nil ||
		!strings.Contains(err.Error(), "no such attempt") {
		t.Fatalf("recommit of a committed temp: %v", err)
	}
	fs.Preload("/_tmp/attempt-2/out/part-0", []byte("loser"))
	if err := fs.CommitAttempt("/_tmp/attempt-2/out/part-0", "/out/part-0"); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Fatalf("double commit not refused: %v", err)
	}
}

// TestFsckReportsOverReplication: repairing a block while a holder is
// dead leaves that holder listed as a stale replica; hand-widening a
// block over the factor shows up in OverReplicated and the String form;
// and reviving the stale holder reconciles both away.
func TestFsckReportsOverReplication(t *testing.T) {
	c := testCluster()
	fs := New(c, scaled(DefaultConfig()))
	f := fs.Preload("/a", zeros(256*cluster.MB))
	victim := f.Blocks[0].Locations[0]
	NewReplicationMonitor(fs, MonitorConfig{})
	fs.NodeDown(victim)
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The repair bumped the generation stamp and kept the dead holder
	// listed at the old one: one stale replica, no over-replication.
	rep := fs.Fsck()
	if rep.Stale != 1 || rep.OverReplicated != 0 {
		t.Fatalf("want 1 stale replica after repairing around a dead holder: %+v", rep)
	}
	// Widen the block by hand on a live non-holder, the way a stray
	// datanode block report would: Fsck must surface it.
	extra := -1
	for n := 0; n < c.N(); n++ {
		held := false
		for _, loc := range f.Blocks[0].Locations {
			if loc == n {
				held = true
			}
		}
		if !held && fs.NodeAlive(n) {
			extra = n
			break
		}
	}
	f.Blocks[0].Locations = append(f.Blocks[0].Locations, extra)
	rep = fs.Fsck()
	if rep.OverReplicated != 1 {
		t.Fatalf("over-replication not detected: %+v", rep)
	}
	if !strings.Contains(rep.String(), "1 over-replicated") {
		t.Fatalf("String() omits over-replication: %s", rep)
	}
	// The rejoin reconciliation prunes the stale replica and trims the
	// excess one, restoring exact-factor health.
	fs.NodeUp(victim)
	rep = fs.Fsck()
	if rep.Stale != 0 || rep.OverReplicated != 0 || !rep.Healthy() {
		t.Fatalf("rejoin reconciliation left the block unhealthy: %+v", rep)
	}
	if rep.StalePruned != 1 || rep.ExcessPruned != 1 {
		t.Fatalf("prune counters wrong: %+v", rep)
	}
}
