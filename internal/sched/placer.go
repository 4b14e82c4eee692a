package sched

import "github.com/datampi/datampi-go/internal/dfs"

// Placer assigns input blocks to nodes, preferring replica holders (data
// locality) while keeping task waves balanced. All three engines place
// their input splits through it.
type Placer struct {
	// Nodes is the cluster size.
	Nodes int
}

// Place maps each block to a node. Replica holders are preferred, but no
// node accepts more than ceil(len(blocks)/Nodes) blocks: waves stay
// strictly balanced, which is what holds the paper's map phases to a
// single wave.
func (pl Placer) Place(blocks []*dfs.Block) []int {
	n := pl.Nodes
	assign := make([]int, len(blocks))
	load := make([]int, n)
	wave := (len(blocks) + n - 1) / n
	for i, blk := range blocks {
		best := -1
		for _, loc := range blk.Locations {
			if loc < 0 || loc >= n || load[loc] >= wave {
				continue
			}
			if best < 0 || load[loc] < load[best] {
				best = loc
			}
		}
		if best < 0 {
			for node := 0; node < n; node++ {
				if load[node] >= wave {
					continue
				}
				if best < 0 || load[node] < load[best] {
					best = node
				}
			}
		}
		if best < 0 {
			best = i % n // cannot happen with a correct cap; stay safe
		}
		assign[i] = best
		load[best]++
	}
	return assign
}

// PlaceOnRanks distributes blocks over execution ranks: blocks are placed
// on nodes by Place, then dealt round-robin over the ranks each node
// hosts. rankNode[r] is the node hosting rank r. Blocks placed on a node
// hosting no rank spill over to rank i % len(rankNode). DataMPI's O-side
// split assignment uses this.
func (pl Placer) PlaceOnRanks(blocks []*dfs.Block, rankNode []int) [][]*dfs.Block {
	nRanks := len(rankNode)
	ranksOnNode := make([][]int, pl.Nodes)
	for r, node := range rankNode {
		ranksOnNode[node] = append(ranksOnNode[node], r)
	}
	nodeOf := pl.Place(blocks)
	next := make([]int, pl.Nodes)
	out := make([][]*dfs.Block, nRanks)
	for i, blk := range blocks {
		node := nodeOf[i]
		ranks := ranksOnNode[node]
		if len(ranks) == 0 {
			out[i%nRanks] = append(out[i%nRanks], blk)
			continue
		}
		r := ranks[next[node]%len(ranks)]
		next[node]++
		out[r] = append(out[r], blk)
	}
	return out
}
