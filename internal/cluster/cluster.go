// Package cluster models the paper's testbed (Table 2): an 8-node cluster
// connected by a 1 Gigabit Ethernet switch, each node with two Intel Xeon
// E5620 processors (8 cores, 16 hyper-threads), 16 GB DDR3 RAM and one SATA
// disk with 150 GB free space.
//
// A Cluster owns the simulated resources every framework engine draws from:
// per-node CPU and disk processor-sharing resources, per-node memory
// accounts, and the shared network fabric.
package cluster

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/sim"
)

// Byte-size constants.
const (
	KB = 1 << 10
	MB = 1 << 20
	GB = 1 << 30
)

// Topology arranges the nodes into racks for correlated-failure
// scenarios. The zero value means a single rack spanning every node —
// the paper's testbed, one switch — so existing configurations are
// unchanged. Node i lives in rack i/NodesPerRack.
type Topology struct {
	Racks        int // number of racks; 0 or 1 = single rack
	NodesPerRack int // nodes per rack; 0 derives Nodes/Racks (must divide evenly)
}

// Hardware describes one node's physical resources and the interconnect,
// mirroring the paper's Table 2.
type Hardware struct {
	Nodes         int      // cluster size
	Topology      Topology // rack layout; zero value = one rack
	CPUModel      string   // descriptive only
	Cores         int      // physical cores per node
	ThreadsPerCor int      // hyper-threads per core
	ClockGHz      float64  // descriptive only
	L1KB, L2KB    int      // descriptive only
	L3MB          int      // descriptive only
	MemoryBytes   float64  // RAM per node
	DiskBytes     float64  // free disk space per node
	DiskReadBW    float64  // sequential read, bytes/sec
	DiskWriteBW   float64  // sequential write, bytes/sec
	NetLinkBW     float64  // per-direction link bandwidth, bytes/sec
}

// DefaultHardware returns the paper's testbed configuration. The disk and
// NIC bandwidths are not in Table 2; they are inferred from the paper's own
// Figure 4 measurements (disk read ~50 MB/s/task aggregate up to ~130 MB/s,
// network ceiling ~117 MB/s on 1GbE).
func DefaultHardware() Hardware {
	return Hardware{
		Nodes:         8,
		CPUModel:      "Intel Xeon E5620",
		Cores:         8,
		ThreadsPerCor: 2,
		ClockGHz:      2.4,
		L1KB:          32,
		L2KB:          256,
		L3MB:          12,
		MemoryBytes:   16 * GB,
		DiskBytes:     150 * GB,
		DiskReadBW:    130 * MB,
		DiskWriteBW:   110 * MB,
		NetLinkBW:     117 * MB,
	}
}

// Node bundles the simulated resources of one machine.
type Node struct {
	ID   int
	CPU  *sim.PSResource // capacity in core-seconds/second
	Disk *sim.PSResource // capacity in bytes/second (shared read+write)
	Mem  *sim.Memory
}

// Cluster is the simulated testbed.
type Cluster struct {
	Eng   *sim.Engine
	HW    Hardware
	Nodes []*Node
	Net   *sim.Fabric
	down  []bool
	racks int // >= 1
	npr   int // nodes per rack
}

// New builds a cluster on a fresh simulation engine.
func New(hw Hardware) *Cluster { return NewOn(sim.NewEngine(), hw) }

// NewWith is New. bench/surface.go binds it (with sim.Fidelity and
// sim.FidelityFast) and bench/ is frozen between benchmark PRs; the next
// one rebinds to New and this alias goes.
func NewWith(hw Hardware, _ sim.Fidelity) *Cluster { return New(hw) }

// NewOn builds a cluster on an existing engine, allowing several clusters
// (or repeated runs) to share one simulated timeline.
func NewOn(eng *sim.Engine, hw Hardware) *Cluster {
	if hw.Nodes <= 0 {
		panic("cluster: need at least one node")
	}
	racks, npr := normalizeTopology(hw.Topology, hw.Nodes)
	c := &Cluster{Eng: eng, HW: hw, down: make([]bool, hw.Nodes), racks: racks, npr: npr}
	c.Net = sim.NewFabric(eng, hw.Nodes, hw.NetLinkBW)
	for i := 0; i < hw.Nodes; i++ {
		// Disk capacity is the blended sequential bandwidth; reads and
		// writes share the spindle. Per-flow cap keeps a single stream at
		// realistic sequential speed. The thrash penalty models seek
		// storms when many streams hit one SATA spindle — the reason
		// Figure 2(b) peaks at 4 concurrent tasks per node.
		diskBW := (hw.DiskReadBW + hw.DiskWriteBW) / 2
		disk := sim.NewPSResource(eng, fmt.Sprintf("disk[%d]", i), diskBW, hw.DiskReadBW)
		disk.ThrashAllowance = 10
		disk.ThrashAlpha = 0.1
		n := &Node{
			ID:   i,
			CPU:  sim.NewPSResource(eng, fmt.Sprintf("cpu[%d]", i), float64(hw.Cores), 1),
			Disk: disk,
			Mem:  sim.NewMemory(fmt.Sprintf("mem[%d]", i), hw.MemoryBytes),
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c
}

// N returns the number of nodes.
func (c *Cluster) N() int { return len(c.Nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.Nodes[i] }

// SlowNode degrades node i by factor: its CPU and disk service rates drop
// to 1/factor of their current values (factor 4 = four times slower). It
// is the straggler perturbation for heterogeneity scenarios — a failing
// disk, a thermally-throttled CPU, a co-located noisy neighbour. It can
// be applied mid-simulation; in-flight work re-splits at the new rates.
// Applying factor f then 1/f restores the original rates.
func (c *Cluster) SlowNode(i int, factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("cluster: SlowNode factor must be positive, got %v", factor))
	}
	n := c.Node(i)
	n.CPU.Rescale(1 / factor)
	n.Disk.Rescale(1 / factor)
}

// NodeDown records node i as failed, for observability via Alive. It is
// bookkeeping only: scheduling exclusion and attempt retry live in
// sched.TaskTracker.NodeDown, and replica failover in dfs.FS.NodeDown —
// the scenario NodeDown event invokes all three together. The node's
// simulated resources are not rescaled: work already submitted to them
// drains in the background, modeling I/O that was in flight when the
// machine died.
func (c *Cluster) NodeDown(i int) { c.down[i] = true }

// NodeUp revives node i for scheduling purposes.
func (c *Cluster) NodeUp(i int) { c.down[i] = false }

// Alive reports whether node i has not been marked down.
func (c *Cluster) Alive(i int) bool { return !c.down[i] }

// normalizeTopology validates a Topology against the node count and
// resolves the zero-value defaults.
func normalizeTopology(t Topology, nodes int) (racks, npr int) {
	if t.Racks <= 1 {
		return 1, nodes
	}
	racks = t.Racks
	npr = t.NodesPerRack
	if npr <= 0 {
		if nodes%racks != 0 {
			panic(fmt.Sprintf("cluster: %d nodes do not divide into %d racks; set NodesPerRack explicitly", nodes, racks))
		}
		npr = nodes / racks
	}
	if racks*npr != nodes {
		panic(fmt.Sprintf("cluster: topology %d racks x %d nodes/rack != %d nodes", racks, npr, nodes))
	}
	return racks, npr
}

// Racks returns the number of racks (1 for the default flat topology).
func (c *Cluster) Racks() int { return c.racks }

// RackOf returns the rack holding node i.
func (c *Cluster) RackOf(i int) int { return i / c.npr }

// RackNodes returns the node IDs in rack r, in ascending order.
func (c *Cluster) RackNodes(r int) []int {
	if r < 0 || r >= c.racks {
		panic(fmt.Sprintf("cluster: rack %d out of range [0,%d)", r, c.racks))
	}
	nodes := make([]int, 0, c.npr)
	for i := r * c.npr; i < (r+1)*c.npr && i < len(c.Nodes); i++ {
		nodes = append(nodes, i)
	}
	return nodes
}

// RackDown marks every node in rack r as failed — a correlated failure
// (power feed, top-of-rack switch). It fans out to per-node NodeDown
// events so Alive stays an O(1) per-node lookup.
func (c *Cluster) RackDown(r int) {
	for _, i := range c.RackNodes(r) {
		c.NodeDown(i)
	}
}

// RackUp revives every node in rack r.
func (c *Cluster) RackUp(r int) {
	for _, i := range c.RackNodes(r) {
		c.NodeUp(i)
	}
}

// TableRows renders the Table 2 hardware description as label/value rows.
func (h Hardware) TableRows() [][2]string {
	return [][2]string{
		{"CPU type", h.CPUModel},
		{"# cores", fmt.Sprintf("%d cores @%.1fG", h.Cores/2, h.ClockGHz)},
		{"# threads", fmt.Sprintf("%d threads", h.Cores*h.ThreadsPerCor)},
		{"# sockets", "2"},
		{"L1 I/D Cache", fmt.Sprintf("%d KB", h.L1KB)},
		{"L2 Cache", fmt.Sprintf("%d KB", h.L2KB)},
		{"L3 Cache", fmt.Sprintf("%d MB", h.L3MB)},
		{"Memory", fmt.Sprintf("%.0f GB", h.MemoryBytes/GB)},
		{"Disk", fmt.Sprintf("%.0fGB free SATA disk", h.DiskBytes/GB)},
	}
}
