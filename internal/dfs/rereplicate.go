package dfs

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/sim"
)

// FsckReport summarizes filesystem replica health, like `hdfs fsck`.
type FsckReport struct {
	Files              int
	Blocks             int
	UnderReplicated    int // blocks with fewer live replicas than configured
	Missing            int // blocks with zero live replicas
	OverReplicated     int // blocks above the replication factor
	Stale              int // replica locations whose genstamp fell behind the block's
	StalePruned        int // cumulative stale replicas pruned at rejoin
	ExcessPruned       int // cumulative excess replicas trimmed from over-replicated blocks
	TotalNominalStored float64
}

func (r FsckReport) String() string {
	return fmt.Sprintf("fsck: %d files, %d blocks, %d under-replicated, %d missing, %d over-replicated, %d stale (%d stale + %d excess pruned)",
		r.Files, r.Blocks, r.UnderReplicated, r.Missing, r.OverReplicated, r.Stale, r.StalePruned, r.ExcessPruned)
}

// Healthy reports whether every block has at least the configured number
// of live replicas.
func (r FsckReport) Healthy() bool { return r.UnderReplicated == 0 && r.Missing == 0 }

// Fsck scans all block metadata and reports replica health with respect
// to live datanodes.
func (fs *FS) Fsck() FsckReport {
	var rep FsckReport
	for _, name := range fs.List() {
		f := fs.files[name]
		rep.Files++
		for _, b := range f.Blocks {
			rep.Blocks++
			live := fs.liveReplicas(b)
			switch {
			case live == 0:
				rep.Missing++
			case live < fs.cfg.Replication:
				rep.UnderReplicated++
			case live > fs.cfg.Replication:
				rep.OverReplicated++
			}
			for idx := range b.Locations {
				if b.locGen(idx) < b.Gen {
					rep.Stale++
				}
			}
			rep.TotalNominalStored += b.Nominal * float64(live)
		}
	}
	rep.StalePruned = fs.stalePruned
	rep.ExcessPruned = fs.excessPruned
	return rep
}

// liveReplicas counts block b's replicas on live datanodes.
func (fs *FS) liveReplicas(b *Block) int {
	live := 0
	for _, loc := range b.Locations {
		if !fs.dead[loc] {
			live++
		}
	}
	return live
}

// liveLocs returns block b's replica locations on live datanodes — the
// one place the liveness rule is written for list consumers (the
// replication monitor).
func (fs *FS) liveLocs(b *Block) []int {
	var live []int
	for _, loc := range b.Locations {
		if !fs.dead[loc] {
			live = append(live, loc)
		}
	}
	return live
}

// copyReplica copies one replica of b from src to a newly chosen live node
// (excluding the given live holders), charging the simulated disk at both
// ends and the network between them, and patches the block metadata. When
// a holder is dead at patch time the block's generation stamp is bumped
// and re-registered on the live locations — the dead holder keeps its old
// stamp, marking its replica stale so the rejoin reconciliation in NodeUp
// can prune it instead of resurrecting it. It returns the target node, or
// -1 when no eligible node exists.
func (fs *FS) copyReplica(p *sim.Proc, b *Block, src int, live []int) int {
	target := fs.pickNewReplica(b, live)
	if target < 0 {
		return -1
	}
	var wg sim.WaitGroup
	wg.Add(2)
	fs.c.Node(src).Disk.Start(b.Nominal, wg.Done)
	fs.c.Node(target).Disk.Start(b.Nominal, wg.Done)
	if src != target {
		wg.Add(1)
		fs.c.Net.StartFlow(src, target, b.Nominal, wg.Done)
	}
	if fs.prof != nil {
		fs.prof.AddDiskRead(src, b.Nominal)
		fs.prof.AddDiskWrite(target, b.Nominal)
	}
	p.BlockReason = "disk"
	wg.Wait(p)
	p.BlockReason = ""
	fs.diskUse[target] += b.Nominal
	anyDead := false
	for _, loc := range b.Locations {
		if fs.dead[loc] {
			anyDead = true
			break
		}
	}
	if anyDead {
		b.ensureGens()
		b.Gen++
		for i, loc := range b.Locations {
			if !fs.dead[loc] {
				b.LocGens[i] = b.Gen
			}
		}
	}
	b.Locations = append(b.Locations, target)
	if b.LocGens != nil {
		b.LocGens = append(b.LocGens, b.Gen)
	}
	return target
}

// pickNewReplica chooses a live node that does not already hold b,
// preferring the emptiest disk (the balancer heuristic). On a multi-rack
// topology, when every live holder sits in one rack the repair restores
// rack diversity: a node in a different rack wins if any is live.
func (fs *FS) pickNewReplica(b *Block, live []int) int {
	holds := map[int]bool{}
	for _, loc := range live {
		holds[loc] = true
	}
	needRack := -1 // rack to escape, when diversity is lost
	if fs.c.Racks() > 1 && len(live) > 0 {
		oneRack := true
		r0 := fs.c.RackOf(live[0])
		for _, loc := range live[1:] {
			if fs.c.RackOf(loc) != r0 {
				oneRack = false
				break
			}
		}
		if oneRack {
			needRack = r0
		}
	}
	best, bestOff := -1, -1 // bestOff: best candidate outside needRack
	for n := 0; n < fs.c.N(); n++ {
		if fs.dead[n] || holds[n] {
			continue
		}
		if best < 0 || fs.diskUse[n] < fs.diskUse[best] {
			best = n
		}
		if needRack >= 0 && fs.c.RackOf(n) != needRack {
			if bestOff < 0 || fs.diskUse[n] < fs.diskUse[bestOff] {
				bestOff = n
			}
		}
	}
	if bestOff >= 0 {
		return bestOff
	}
	return best
}
