// The replication monitor is the NameNode background daemon that keeps
// the filesystem at its configured replication factor, and the only path
// that repairs it: it subscribes to datanode up/down events,
// waits out a detection delay (the heartbeat timeout), and then drives
// prioritized, bandwidth-throttled replica copies until Fsck is healthy
// again. Everything runs inside the simulation, so recovery traffic
// contends with foreground jobs for the same disks and links.
package dfs

import (
	"fmt"
	"sort"

	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/trace"
)

// MonitorConfig tunes the replication monitor. The zero value takes the
// defaults documented per field.
type MonitorConfig struct {
	// DetectionDelay is how long after a node-down event recovery starts —
	// the heartbeat/timeout lag before the NameNode declares a datanode
	// dead (default 5s).
	DetectionDelay float64
	// CopyBandwidth caps the monitor's average re-replication rate in
	// nominal bytes/second, so recovery does not starve foreground jobs
	// of disk and network (HDFS's dfs.datanode.balance.bandwidthPerSec).
	// Zero means unthrottled.
	CopyBandwidth float64
}

func (c MonitorConfig) withDefaults() MonitorConfig {
	if c.DetectionDelay <= 0 {
		c.DetectionDelay = 5
	}
	return c
}

// MonitorStats counts the monitor's recovery work.
type MonitorStats struct {
	Scans              int     // recovery passes over the block table
	BlocksRereplicated int     // replicas created
	BytesRereplicated  float64 // nominal bytes copied
	BlocksLost         int     // distinct blocks seen with zero live replicas
	BytesLost          float64 // nominal bytes of those blocks
	RepairsCancelled   int     // queued repairs obviated by a node rejoin before any copy ran
}

// ReplicationMonitor re-replicates under-replicated blocks automatically
// on datanode failure. Create it with NewReplicationMonitor before the
// failures it should react to; it stays subscribed to the filesystem for
// its lifetime and spawns a worker process only while there is recovery
// work, so an idle monitor never holds the event queue open.
type ReplicationMonitor struct {
	fs      *FS
	cfg     MonitorConfig
	stats   MonitorStats
	active  bool // worker proc running (or detection timer pending)
	rescan  bool // another node event arrived while the worker ran
	stopped bool
	unsub   func()
	lost    map[int64]bool // block IDs already counted as lost
}

// NewReplicationMonitor attaches a monitor to the filesystem. The zero
// config takes the documented defaults.
func NewReplicationMonitor(fs *FS, cfg MonitorConfig) *ReplicationMonitor {
	m := &ReplicationMonitor{fs: fs, cfg: cfg.withDefaults(), lost: make(map[int64]bool)}
	m.unsub = fs.OnNodeEvent(m.nodeEvent)
	return m
}

// Stats returns the recovery counters accumulated so far.
func (m *ReplicationMonitor) Stats() MonitorStats { return m.stats }

// Stop detaches the monitor from the filesystem's event stream: later
// node events are ignored and the subscription slot is released. A worker
// pass already in flight finishes its current queue.
func (m *ReplicationMonitor) Stop() {
	m.stopped = true
	m.unsub()
}

// nodeEvent is the FS subscription callback (kernel context).
func (m *ReplicationMonitor) nodeEvent(node int, down bool) {
	if m.stopped {
		return
	}
	if !down {
		// A rejoin arrives after FS.NodeUp has already reconciled the
		// node's block report (stale and excess replicas pruned). If a
		// pass is pending or running, have it re-scan: blocks the rejoin
		// restored to the replication factor drop out of the queue and
		// are counted as cancelled repairs instead of being copied.
		if m.active {
			m.rescan = true
		}
		return
	}
	if m.active {
		m.rescan = true // the running worker re-scans before exiting
		return
	}
	m.active = true
	m.fs.c.Eng.Schedule(m.cfg.DetectionDelay, func() {
		if m.stopped {
			m.active = false
			return
		}
		m.fs.c.Eng.Go("dfs-replication-monitor", m.run)
	})
}

// repairItem is one under-replicated block queued for copying, remembering
// the file it belonged to at scan time.
type repairItem struct {
	name string
	b    *Block
	live int
}

// run is the worker pass: scan, copy by priority, re-scan while node
// events keep arriving, then exit so the simulation can drain.
func (m *ReplicationMonitor) run(p *sim.Proc) {
	for {
		m.rescan = false
		queue := m.scan()
		for _, it := range queue {
			m.repair(p, it)
		}
		if !m.rescan {
			break
		}
	}
	m.active = false
}

// scan builds the prioritized repair queue: blocks with the fewest live
// replicas first (missing blocks are unrepairable — they are counted as
// lost and skipped), block ID breaking ties for determinism.
func (m *ReplicationMonitor) scan() []repairItem {
	m.stats.Scans++
	fs := m.fs
	var queue []repairItem
	for _, name := range fs.List() {
		f := fs.files[name]
		for _, b := range f.Blocks {
			live := fs.liveReplicas(b)
			switch {
			case live == 0:
				if !m.lost[b.ID] {
					m.lost[b.ID] = true
					m.stats.BlocksLost++
					m.stats.BytesLost += b.Nominal
					m.noteLost(b)
				}
			case live < fs.cfg.Replication:
				queue = append(queue, repairItem{name: name, b: b, live: live})
			}
		}
	}
	sort.SliceStable(queue, func(i, j int) bool {
		if queue[i].live != queue[j].live {
			return queue[i].live < queue[j].live
		}
		return queue[i].b.ID < queue[j].b.ID
	})
	return queue
}

// repair copies the item's block back up to the replication factor,
// re-checking per copy that the block still belongs to a live file (a
// losing speculative attempt's temp file may have been deleted while the
// queue drained) and that its replicas are still where the scan saw them,
// and throttling to the configured bandwidth.
func (m *ReplicationMonitor) repair(p *sim.Proc, it repairItem) {
	fs := m.fs
	b := it.b
	copies := 0
	for {
		if f, ok := fs.files[it.name]; !ok || !fileHasBlock(f, b) {
			return // deleted (or replaced) mid-pass: nothing to preserve
		}
		live := fs.liveLocs(b)
		if len(live) == 0 {
			if !m.lost[b.ID] {
				m.lost[b.ID] = true
				m.stats.BlocksLost++
				m.stats.BytesLost += b.Nominal
				m.noteLost(b)
			}
			return
		}
		if len(live) >= fs.cfg.Replication {
			// A rejoin mid-copy can push the block over the factor (the
			// in-flight copy lands after the old holder returned): trim it
			// back, as the NameNode invalidates the excess it caused.
			if len(live) > fs.cfg.Replication {
				fs.pruneExcess(b)
			}
			if copies == 0 {
				// The queue entry was drained without copying anything:
				// a rejoin (not this monitor) restored the factor.
				m.stats.RepairsCancelled++
				if tr := fs.tr; tr != nil {
					tr.Instant("repair-cancelled", "dfs", 0, fs.c.Eng.Now(),
						trace.Arg{Key: "block", Val: fmt.Sprintf("%d", b.ID)})
				}
			}
			return
		}
		// Round-robin the source over live replicas so one surviving disk
		// does not absorb the whole recovery read load.
		src := live[m.stats.BlocksRereplicated%len(live)]
		start := fs.c.Eng.Now()
		if fs.copyReplica(p, b, src, live) < 0 {
			return // not enough live nodes to widen further
		}
		if tr := fs.tr; tr != nil {
			sp := tr.Begin("rereplicate", "dfs", src, trace.TidDFS, start).
				Annotate("block", fmt.Sprintf("%d", b.ID)).
				Annotate("bytes", fmt.Sprintf("%.0f", b.Nominal))
			sp.EndAt(fs.c.Eng.Now())
		}
		copies++
		m.stats.BlocksRereplicated++
		m.stats.BytesRereplicated += b.Nominal
		if m.cfg.CopyBandwidth > 0 {
			// Throttle: pad each copy out to the configured average rate.
			if min := b.Nominal / m.cfg.CopyBandwidth; fs.c.Eng.Now()-start < min {
				p.Sleep(min - (fs.c.Eng.Now() - start))
			}
		}
	}
}

// noteLost records a block-lost instant on the trace timeline.
func (m *ReplicationMonitor) noteLost(b *Block) {
	if tr := m.fs.tr; tr != nil {
		tr.Instant("block-lost", "dfs", 0, m.fs.c.Eng.Now(),
			trace.Arg{Key: "block", Val: fmt.Sprintf("%d", b.ID)},
			trace.Arg{Key: "bytes", Val: fmt.Sprintf("%.0f", b.Nominal)})
	}
}

// fileHasBlock reports whether b is still one of f's blocks.
func fileHasBlock(f *File, b *Block) bool {
	for _, fb := range f.Blocks {
		if fb == b {
			return true
		}
	}
	return false
}
