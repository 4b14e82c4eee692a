package dfs

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/sim"
)

func testCluster() *cluster.Cluster {
	hw := cluster.DefaultHardware()
	return cluster.New(hw)
}

// testScale lets the tests keep paper-sized nominal files — and so every
// block count, placement and simulated second — on 1/1024 of the bytes.
const testScale = 1024

// scaled returns cfg with its real bytes divided by testScale.
func scaled(cfg Config) Config {
	cfg.Scale = testScale
	return cfg
}

// zeros is the real content of a nominal-byte file at testScale.
func zeros(nominal float64) []byte { return make([]byte, int(nominal/testScale)) }

// TestRackAwarePlacement: on a multi-rack testbed every block at
// replication >= 2 must span at least two racks, so a whole-rack failure
// cannot take out all replicas.
func TestRackAwarePlacement(t *testing.T) {
	hw := cluster.DefaultHardware()
	hw.Topology = cluster.Topology{Racks: 4}
	c := cluster.New(hw)
	fs := New(c, Config{BlockSize: 64 * cluster.MB, Replication: 3, Scale: testScale, Seed: 1})
	f := fs.Preload("/a", zeros(2*cluster.GB))
	for bi, b := range f.Blocks {
		racks := map[int]bool{}
		for _, loc := range b.Locations {
			racks[c.RackOf(loc)] = true
		}
		if len(racks) < 2 {
			t.Fatalf("block %d replicas %v all in rack %d", bi, b.Locations, c.RackOf(b.Locations[0]))
		}
	}
	// And a whole-rack failure keeps every block readable.
	c.RackDown(2)
	for _, n := range c.RackNodes(2) {
		fs.NodeDown(n)
	}
	if rep := fs.Fsck(); rep.Missing != 0 {
		t.Fatalf("rack failure lost blocks despite rack-aware placement: %+v", rep)
	}
}

// TestRereplicateRestoresRackSpread: repairing after a rack failure picks
// replacement nodes that restore the two-rack invariant, not just any
// empty disk.
func TestRereplicateRestoresRackSpread(t *testing.T) {
	hw := cluster.DefaultHardware()
	hw.Topology = cluster.Topology{Racks: 4}
	c := cluster.New(hw)
	fs := New(c, Config{BlockSize: 64 * cluster.MB, Replication: 2, Scale: testScale, Seed: 1})
	f := fs.Preload("/a", zeros(1*cluster.GB))
	mon := NewReplicationMonitor(fs, MonitorConfig{})
	// Kill rack 0: blocks that held a replica there drop to one rack.
	for _, n := range c.RackNodes(0) {
		fs.NodeDown(n)
	}
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st := mon.Stats(); st.BlocksLost != 0 || st.BlocksRereplicated == 0 {
		t.Fatalf("rack repair: %+v", st)
	}
	for bi, b := range f.Blocks {
		racks := map[int]bool{}
		for _, loc := range b.Locations {
			if fs.NodeAlive(loc) {
				racks[c.RackOf(loc)] = true
			}
		}
		if len(racks) < 2 {
			t.Fatalf("block %d live replicas confined to one rack after repair", bi)
		}
	}
}

func TestPreloadAndReadAll(t *testing.T) {
	c := testCluster()
	fs := New(c, Config{BlockSize: 64, Replication: 3, Scale: 1, Seed: 1})
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	f := fs.Preload("/in", data)
	if got, want := len(f.Blocks), 16; got != want { // ceil(1000/64)
		t.Fatalf("blocks = %d, want %d", got, want)
	}
	var out []byte
	c.Eng.Go("reader", func(p *sim.Proc) {
		var err error
		out, err = fs.ReadAll(p, "/in", 0)
		if err != nil {
			t.Error(err)
		}
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("read data differs from written data")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := testCluster()
	fs := New(c, Config{BlockSize: 128, Replication: 3, Scale: 1, Seed: 1, PerBlockOverhead: 0.1})
	payload := []byte("hello distributed world, this is a test payload that spans blocks....")
	var got []byte
	c.Eng.Go("writer", func(p *sim.Proc) {
		w := fs.Create("/out", 2)
		for i := 0; i < 5; i++ {
			if err := w.Write(p, payload); err != nil {
				t.Error(err)
				return
			}
		}
		if err := w.Close(p); err != nil {
			t.Error(err)
			return
		}
		var err error
		got, err = fs.ReadAll(p, "/out", 5)
		if err != nil {
			t.Error(err)
		}
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat(payload, 5)
	if !bytes.Equal(got, want) {
		t.Fatalf("round trip: got %d bytes, want %d", len(got), len(want))
	}
	f, err := fs.Open("/out")
	if err != nil {
		t.Fatal(err)
	}
	if f.Nominal != float64(len(want)) {
		t.Fatalf("nominal = %v, want %v", f.Nominal, len(want))
	}
}

func TestReplicationPlacement(t *testing.T) {
	c := testCluster()
	fs := New(c, scaled(DefaultConfig()))
	f := fs.Preload("/data", zeros(600*cluster.MB))
	for _, b := range f.Blocks {
		if len(b.Locations) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", b.ID, len(b.Locations))
		}
		seen := map[int]bool{}
		for _, loc := range b.Locations {
			if seen[loc] {
				t.Fatalf("block %d has duplicate replica on node %d", b.ID, loc)
			}
			seen[loc] = true
			if loc < 0 || loc >= c.N() {
				t.Fatalf("replica on invalid node %d", loc)
			}
		}
	}
}

func TestWriterLocalPrimary(t *testing.T) {
	c := testCluster()
	fs := New(c, Config{BlockSize: 1 * cluster.MB, Replication: 3, Scale: testScale, Seed: 3})
	c.Eng.Go("w", func(p *sim.Proc) {
		w := fs.Create("/f", 4)
		if err := w.Write(p, zeros(3*cluster.MB)); err != nil {
			t.Error(err)
		}
		if err := w.Close(p); err != nil {
			t.Error(err)
		}
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Open("/f")
	for _, b := range f.Blocks {
		if b.Locations[0] != 4 {
			t.Fatalf("primary replica on node %d, want writer node 4", b.Locations[0])
		}
	}
}

func TestLocalReadUsesNoNetwork(t *testing.T) {
	c := testCluster()
	fs := New(c, Config{BlockSize: 64 * cluster.MB, Replication: 3, Scale: testScale, Seed: 1})
	f := fs.Preload("/in", zeros(32*cluster.MB))
	blk := f.Blocks[0]
	reader := blk.Locations[0]
	c.Eng.Go("r", func(p *sim.Proc) {
		if _, err := fs.ReadBlock(p, blk, reader); err != nil {
			t.Error(err)
		}
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for i := 0; i < c.N(); i++ {
		total += c.Net.RxIntegral(i)
	}
	if total != 0 {
		t.Fatalf("local read moved %v bytes over the network", total)
	}
}

func TestRemoteReadUsesNetwork(t *testing.T) {
	c := testCluster()
	fs := New(c, Config{BlockSize: 64 * cluster.MB, Replication: 2, Scale: testScale, Seed: 1})
	f := fs.Preload("/in", zeros(16*cluster.MB))
	blk := f.Blocks[0]
	reader := -1
	for i := 0; i < c.N(); i++ {
		local := false
		for _, loc := range blk.Locations {
			if loc == i {
				local = true
			}
		}
		if !local {
			reader = i
			break
		}
	}
	c.Eng.Go("r", func(p *sim.Proc) {
		if _, err := fs.ReadBlock(p, blk, reader); err != nil {
			t.Error(err)
		}
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Net.RxIntegral(reader); got != blk.Nominal {
		t.Fatalf("remote read moved %v bytes, want %v", got, blk.Nominal)
	}
}

func TestNodeDownFailover(t *testing.T) {
	c := testCluster()
	fs := New(c, Config{BlockSize: 8 * cluster.MB, Replication: 3, Scale: testScale, Seed: 1})
	f := fs.Preload("/in", zeros(4*cluster.MB))
	blk := f.Blocks[0]
	// Kill the first two replicas; the read must fall back to the third.
	fs.NodeDown(blk.Locations[0])
	fs.NodeDown(blk.Locations[1])
	var data []byte
	c.Eng.Go("r", func(p *sim.Proc) {
		var err error
		data, err = fs.ReadBlock(p, blk, blk.Locations[0])
		if err != nil {
			t.Error(err)
		}
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(data) != len(blk.Data) {
		t.Fatal("failover read returned wrong data")
	}
	// Kill the last replica: reads must now fail.
	fs.NodeDown(blk.Locations[2])
	c.Eng.Go("r2", func(p *sim.Proc) {
		if _, err := fs.ReadBlock(p, blk, 0); err == nil {
			t.Error("expected error reading block with all replicas dead")
		}
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteReleasesSpace(t *testing.T) {
	c := testCluster()
	fs := New(c, scaled(DefaultConfig()))
	fs.Preload("/a", zeros(512*cluster.MB))
	used := 0.0
	for i := 0; i < c.N(); i++ {
		used += fs.DiskUsed(i)
	}
	if used != 3*512*cluster.MB {
		t.Fatalf("disk used = %v, want %v", used, 3*512*cluster.MB)
	}
	fs.Delete("/a")
	for i := 0; i < c.N(); i++ {
		if fs.DiskUsed(i) != 0 {
			t.Fatalf("node %d still holds %v bytes after delete", i, fs.DiskUsed(i))
		}
	}
	if fs.Exists("/a") {
		t.Fatal("file still exists after delete")
	}
}

// TestRestagingReleasesSpace: staging or writing a name that exists
// replaces the file, and the replaced blocks leave DiskUsed with it.
func TestRestagingReleasesSpace(t *testing.T) {
	c := testCluster()
	fs := New(c, scaled(DefaultConfig()))
	used := func() float64 {
		sum := 0.0
		for i := 0; i < c.N(); i++ {
			sum += fs.DiskUsed(i)
		}
		return sum
	}
	data := zeros(512 * cluster.MB)
	fs.Preload("/a", data)
	fs.Preload("/a", data)
	if want := 3 * float64(len(data)) * testScale; used() != want {
		t.Fatalf("disk used after staging /a twice = %v, want %v", used(), want)
	}
	fs.PreloadAligned("/a", data[:len(data)/2], 0)
	if want := 3 * float64(len(data)/2) * testScale; used() != want {
		t.Fatalf("disk used after restaging /a at half the size = %v, want %v", used(), want)
	}
	c.Eng.Go("writer", func(p *sim.Proc) {
		w := fs.Create("/a", 2)
		if err := w.Write(p, data[:1024]); err != nil {
			t.Error(err)
		}
		if err := w.Close(p); err != nil {
			t.Error(err)
		}
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 3 * 1024.0 * testScale; used() != want {
		t.Fatalf("disk used after overwriting /a through a writer = %v, want %v", used(), want)
	}
	fs.Delete("/a")
	if used() != 0 {
		t.Fatalf("disk used after delete = %v, want 0", used())
	}
}

func TestScaledNominalAccounting(t *testing.T) {
	c := testCluster()
	// Scale 1000: 1 KB of actual data represents 1 MB nominal.
	fs := New(c, Config{BlockSize: 256 * cluster.KB, Replication: 3, Scale: 1000, Seed: 1})
	f := fs.Preload("/in", make([]byte, 1024))
	if f.Nominal != 1024*1000 {
		t.Fatalf("nominal = %v, want %v", f.Nominal, 1024*1000)
	}
	// Block boundary: actual block size = 256KB/1000 = 262 bytes.
	if len(f.Blocks) != 4 { // ceil(1024/262)
		t.Fatalf("blocks = %d, want 4", len(f.Blocks))
	}
}

func TestReadChargesSimulatedTime(t *testing.T) {
	c := testCluster()
	fs := New(c, Config{BlockSize: 256 * cluster.MB, Replication: 3, Scale: testScale, Seed: 1})
	f := fs.Preload("/in", zeros(130*cluster.MB))
	blk := f.Blocks[0]
	c.Eng.Go("r", func(p *sim.Proc) {
		if _, err := fs.ReadBlock(p, blk, blk.Locations[0]); err != nil {
			t.Error(err)
		}
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 130 MB at the single-stream read cap (130 MB/s) should take ~1s.
	if got := c.Eng.Now(); got < 0.9 || got > 1.5 {
		t.Fatalf("local read of 130MB took %.2fs, want ~1s", got)
	}
}

func TestDFSIOWriteRuns(t *testing.T) {
	c := testCluster()
	fs := New(c, Config{BlockSize: 256 * cluster.MB, Replication: 3, Scale: 4096, Seed: 1, PerBlockOverhead: 0.35})
	res, err := RunDFSIOWrite(fs, 8, 5*cluster.GB)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	if res.ThroughputBS <= 0 {
		t.Fatal("no throughput")
	}
	// Sanity: with 3x replication on ~120MB/s disks, per-writer throughput
	// must be well below raw disk speed but above 5 MB/s.
	if res.ThroughputBS < 5*cluster.MB || res.ThroughputBS > 60*cluster.MB {
		t.Fatalf("throughput %.1f MB/s outside plausible band", res.ThroughputBS/cluster.MB)
	}
}

func TestDFSIOReadAfterWrite(t *testing.T) {
	c := testCluster()
	fs := New(c, Config{BlockSize: 128 * cluster.MB, Replication: 3, Scale: 4096, Seed: 1})
	if _, err := RunDFSIOWrite(fs, 8, 2*cluster.GB); err != nil {
		t.Fatal(err)
	}
	res, err := RunDFSIORead(fs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != 2*cluster.GB {
		t.Fatalf("read back %v bytes, want %v", res.TotalBytes, 2*cluster.GB)
	}
}

// Property: preloading any data and reading it back yields identical bytes,
// for random block sizes and scales.
func TestPreloadReadProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(11))}
	prop := func(seed int64, blockKB uint8, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		c := testCluster()
		bs := float64(int(blockKB)%64+1) * cluster.KB
		fs := New(c, Config{BlockSize: bs, Replication: 3, Scale: 1, Seed: seed})
		data := make([]byte, int(n)%5000+1)
		rng.Read(data)
		fs.Preload("/p", data)
		var got []byte
		c.Eng.Go("r", func(p *sim.Proc) {
			var err error
			got, err = fs.ReadAll(p, "/p", rng.Intn(c.N()))
			if err != nil {
				t.Error(err)
			}
		})
		if err := c.Eng.Run(); err != nil {
			t.Error(err)
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
