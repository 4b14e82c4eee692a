package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/sim"
)

func TestPlacerBalancedAndLocal(t *testing.T) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: 1024, Replication: 3, Scale: 1, Seed: 5})
	f := fs.Preload("/f", make([]byte, 32*1024)) // 32 blocks over 8 nodes
	assign := Placer{Nodes: c.N()}.Place(f.Blocks)
	load := make([]int, c.N())
	local := 0
	for i, n := range assign {
		load[n]++
		for _, loc := range f.Blocks[i].Locations {
			if loc == n {
				local++
				break
			}
		}
	}
	for n, l := range load {
		if l != 4 {
			t.Fatalf("node %d has %d blocks, want 4 (balanced): %v", n, l, load)
		}
	}
	if local < len(assign)*3/4 {
		t.Fatalf("only %d/%d assignments local", local, len(assign))
	}
}

func TestPlacerProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(9))}
	prop := func(seed int64, nBlocks uint8) bool {
		c := cluster.New(cluster.DefaultHardware())
		fs := dfs.New(c, dfs.Config{BlockSize: 256, Replication: 3, Scale: 1, Seed: seed})
		n := int(nBlocks)%100 + 1
		f := fs.Preload("/f", make([]byte, 256*n))
		assign := Placer{Nodes: c.N()}.Place(f.Blocks)
		load := make([]int, c.N())
		for _, a := range assign {
			if a < 0 || a >= c.N() {
				return false
			}
			load[a]++
		}
		capLimit := (len(f.Blocks) + c.N() - 1) / c.N()
		for _, l := range load {
			if l > capLimit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPlacerLocalitySlack(t *testing.T) {
	// 8 blocks, all replicated only on node 0, over 2 nodes: locality gets
	// no slack past the balanced wave.
	blocks := make([]*dfs.Block, 8)
	for i := range blocks {
		blocks[i] = &dfs.Block{ID: int64(i), Locations: []int{0}}
	}
	load := map[int]int{}
	for _, n := range (Placer{Nodes: 2}).Place(blocks) {
		load[n]++
	}
	if load[0] != 4 || load[1] != 4 {
		t.Fatalf("strict balance: load = %v, want 4/4", load)
	}
}

func TestPlacerPlaceOnRanks(t *testing.T) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: 1024, Replication: 3, Scale: 1, Seed: 5})
	f := fs.Preload("/f", make([]byte, 32*1024))
	// Two ranks per node, 16 ranks total.
	rankNode := make([]int, 16)
	for r := range rankNode {
		rankNode[r] = r % c.N()
	}
	splits := Placer{Nodes: c.N()}.PlaceOnRanks(f.Blocks, rankNode)
	if len(splits) != 16 {
		t.Fatalf("got %d rank split lists", len(splits))
	}
	total := 0
	for r, blks := range splits {
		total += len(blks)
		if len(blks) > 2 {
			t.Fatalf("rank %d got %d blocks, want <= 2 (balanced round-robin)", r, len(blks))
		}
	}
	if total != 32 {
		t.Fatalf("placed %d blocks, want 32", total)
	}
}

// runPoolMix spawns nPer procs per handle (in handle order) on one node
// with two slots; each proc holds a slot for 1 simulated second. It
// returns the completion order.
func runPoolMix(t *testing.T, policy Policy, nPer int) []string {
	t.Helper()
	eng := sim.NewEngine()
	pool := NewSlotPool(policy, 1, 2)
	a := &JobHandle{name: "a", seq: 0, weight: 1}
	b := &JobHandle{name: "b", seq: 1, weight: 1}
	var order []string
	for _, h := range []*JobHandle{a, b} {
		for i := 0; i < nPer; i++ {
			h, name := h, fmt.Sprintf("%s%d", h.name, i)
			eng.Go(name, func(p *sim.Proc) {
				pool.Acquire(p, 0, h, "slot")
				p.Sleep(1)
				pool.Release(0, h)
				order = append(order, name)
			})
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return order
}

func TestSlotPoolFIFORunsJobsInAdmissionOrder(t *testing.T) {
	order := runPoolMix(t, FIFO, 4)
	want := []string{"a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("FIFO completion order = %v, want %v", order, want)
	}
}

func TestSlotPoolFairInterleavesJobs(t *testing.T) {
	order := runPoolMix(t, Fair, 4)
	// After job a's initial grab of both slots, Fair alternates grants so
	// the jobs finish interleaved rather than a-then-b.
	want := []string{"a0", "a1", "b0", "a2", "b1", "a3", "b2", "b3"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("Fair completion order = %v, want %v", order, want)
	}
}

func TestSlotPoolGrantIsNotStolen(t *testing.T) {
	// A newcomer acquiring at the same instant a waiter is granted must
	// queue rather than steal the freed slot.
	eng := sim.NewEngine()
	pool := NewSlotPool(FIFO, 1, 1)
	h := &JobHandle{name: "a", seq: 0, weight: 1}
	var order []string
	task := func(name string, delay float64) {
		eng.Go(name, func(p *sim.Proc) {
			p.Sleep(delay)
			pool.Acquire(p, 0, h, "slot")
			p.Sleep(1)
			pool.Release(0, h)
			order = append(order, name)
		})
	}
	task("first", 0)
	task("waiter", 0.5)   // queues while first holds the slot
	task("newcomer", 1.0) // arrives exactly when first releases
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "waiter", "newcomer"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("completion order = %v, want %v", order, want)
	}
}

func TestPoolSetSharedByKind(t *testing.T) {
	ps := NewPoolSet(FIFO, 4)
	p1 := ps.Pool("map", 4)
	p2 := ps.Pool("map", 4)
	if p1 != p2 {
		t.Fatal("same kind must share one pool")
	}
	if ps.Pool("reduce", 2) == p1 {
		t.Fatal("different kinds must get distinct pools")
	}
	if p1.PerNode() != 4 || p1.Free(0) != 4 {
		t.Fatalf("pool sized wrong: perNode=%d free=%d", p1.PerNode(), p1.Free(0))
	}
}
