package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/sim"
)

// The kernelscale experiment measures the kernel's memory behavior at
// cluster sizes far beyond the paper's testbed: 10k nodes running 100k
// tasks through cpu -> disk -> network chains, with every per-task
// kernel object (timer events, PS flows, fabric flows) recycled through
// the free-list pools. The scenario is event-driven — no goroutine
// procs — so what it exercises is exactly the pooled allocation paths,
// and the headline metric is bytes allocated per task, which must stay
// flat as the task count grows: per-task cost must not accumulate
// retained garbage.
//
// Transfers are rack-local (racks of 16 nodes), which both matches how
// a real shuffle topology concentrates traffic and keeps the fabric's
// max-min refill components small, so the run finishes in seconds even
// at 10k nodes.

// scaleRackSize is the number of nodes per rack; transfers stay inside
// the source node's rack.
const scaleRackSize = 16

// scaleScript holds the precomputed per-task work, struct-of-arrays so
// the script itself costs a flat ~28 bytes per task.
type scaleScript struct {
	cpuSec    []float64
	diskBytes []float64
	netBytes  []float64
	dstOff    []int32 // destination offset within the source rack
}

func newScaleScript(tasks int, seed int64) *scaleScript {
	rng := rand.New(rand.NewSource(seed))
	s := &scaleScript{
		cpuSec:    make([]float64, tasks),
		diskBytes: make([]float64, tasks),
		netBytes:  make([]float64, tasks),
		dstOff:    make([]int32, tasks),
	}
	for i := 0; i < tasks; i++ {
		s.cpuSec[i] = 0.05 + rng.Float64()*0.4
		s.diskBytes[i] = (1 + rng.Float64()*8) * cluster.MB
		s.netBytes[i] = (0.5 + rng.Float64()*4) * cluster.MB
		s.dstOff[i] = int32(rng.Intn(scaleRackSize))
	}
	return s
}

// scaleHarness is the shared run state.
type scaleHarness struct {
	eng    *sim.Engine
	fabric *sim.Fabric
	cpus   []*sim.PSResource
	disks  []*sim.PSResource
	script *scaleScript
	tasks  int
	next   int // next unclaimed task
	done   int
}

// scaleSlot is one execution slot: it pulls tasks off the global queue
// and drives each through its cpu -> disk -> net chain. The three step
// callbacks are bound once at construction, so steady-state task
// execution allocates nothing in the harness — every allocation the
// benchmark observes is the kernel's.
type scaleSlot struct {
	h        *scaleHarness
	node     int
	rackBase int
	rackSize int
	cur      int
	stepDisk func()
	stepNet  func()
	stepZero func()
	stepDone func()
}

func newScaleSlot(h *scaleHarness, node int) *scaleSlot {
	s := &scaleSlot{h: h, node: node}
	s.rackBase = (node / scaleRackSize) * scaleRackSize
	s.rackSize = scaleRackSize
	if s.rackBase+s.rackSize > h.fabric.Nodes() {
		s.rackSize = h.fabric.Nodes() - s.rackBase
	}
	s.stepDisk = func() {
		h.disks[s.node].Start(h.script.diskBytes[s.cur], s.stepNet)
	}
	s.stepNet = func() {
		dst := s.rackBase + int(h.script.dstOff[s.cur])%s.rackSize
		h.fabric.StartFlow(s.node, dst, h.script.netBytes[s.cur], s.stepZero)
	}
	s.stepZero = func() {
		// Empty-partition send: zero-byte flows are common under the
		// staged transport, so the alloc guard covers their pooled
		// handles too.
		dst := s.rackBase + int(h.script.dstOff[s.cur])%s.rackSize
		h.fabric.StartFlow(s.node, dst, 0, s.stepDone)
	}
	s.stepDone = func() {
		h.done++
		s.pull()
	}
	return s
}

// pull claims the next task and starts its chain; the slot goes idle
// when the queue drains.
func (s *scaleSlot) pull() {
	if s.h.next >= s.h.tasks {
		return
	}
	s.cur = s.h.next
	s.h.next++
	s.h.cpus[s.node].Start(s.h.script.cpuSec[s.cur], s.stepDisk)
}

// ScaleResult summarizes one kernelscale run.
type ScaleResult struct {
	Nodes      int
	Slots      int
	Tasks      int
	SimTime    float64
	Wall       time.Duration
	AllocBytes uint64 // total bytes allocated during the run
	AllocObjs  uint64 // total heap objects allocated during the run
}

// BytesPerTask is the headline flatness metric.
func (r ScaleResult) BytesPerTask() float64 { return float64(r.AllocBytes) / float64(r.Tasks) }

// AllocsPerTask is allocated heap objects per task.
func (r ScaleResult) AllocsPerTask() float64 { return float64(r.AllocObjs) / float64(r.Tasks) }

// KernelScale runs the event-driven scale scenario on a fresh fast-path
// kernel: nodes nodes with slotsPerNode execution slots each, driving
// tasks scripted tasks through pooled cpu/disk/network chains. The
// returned allocation counters cover setup + run (script generation is
// itself flat per task), measured from the runtime's monotonic
// TotalAlloc, so GC timing does not perturb them.
func KernelScale(nodes, tasks, slotsPerNode int, seed int64) (ScaleResult, error) {
	script := newScaleScript(tasks, seed)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()

	eng := sim.NewEngine()
	fabric := sim.NewFabric(eng, nodes, 117*cluster.MB)
	h := &scaleHarness{eng: eng, fabric: fabric, script: script, tasks: tasks,
		cpus:  make([]*sim.PSResource, nodes),
		disks: make([]*sim.PSResource, nodes),
	}
	for i := 0; i < nodes; i++ {
		h.cpus[i] = sim.NewPSResource(eng, "cpu", 8, 1)
		h.disks[i] = sim.NewPSResource(eng, "disk", 120*cluster.MB, 130*cluster.MB)
	}
	slots := make([]*scaleSlot, 0, nodes*slotsPerNode)
	for n := 0; n < nodes; n++ {
		for k := 0; k < slotsPerNode; k++ {
			slots = append(slots, newScaleSlot(h, n))
		}
	}
	// Stagger slot start-up so admission does not collapse into one
	// simulated instant; the offsets are deterministic in the seed.
	rng := rand.New(rand.NewSource(seed + 1))
	for _, s := range slots {
		sl := s
		eng.Post(rng.Float64()*0.5, sl.pull)
	}

	res := ScaleResult{Nodes: nodes, Slots: len(slots), Tasks: tasks}
	if err := eng.Run(); err != nil {
		return res, fmt.Errorf("kernelscale(%d nodes, %d tasks): %w", nodes, tasks, err)
	}
	if h.done != tasks {
		return res, fmt.Errorf("kernelscale: %d of %d tasks completed", h.done, tasks)
	}
	res.Wall = time.Since(start)
	res.SimTime = eng.Now()

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.AllocObjs = after.Mallocs - before.Mallocs
	return res, nil
}

func init() {
	register(Experiment{
		ID:    "kernelscale",
		Title: "Kernel memory at scale: 10k nodes / 100k pooled task chains, bytes per task flat across scales",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "kernelscale",
				Title:   "Kernel allocation per task at increasing scale (event-driven, pooled fast path)",
				Columns: []string{"Nodes", "Slots", "Tasks", "SimTime(s)", "Wall(ms)", "KB/task", "Allocs/task"}}
			type scale struct{ nodes, tasks int }
			sweep := []scale{{5000, 50000}, {10000, 100000}}
			if opt.Quick {
				sweep = []scale{{1000, 10000}, {2000, 20000}}
			}
			seed := opt.seedOr(1)
			results := make([]ScaleResult, 0, len(sweep))
			for _, sc := range sweep {
				r, err := KernelScale(sc.nodes, sc.tasks, 2, seed)
				if err != nil {
					return nil, err
				}
				results = append(results, r)
				rep.Rows = append(rep.Rows, []string{
					fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%d", r.Slots), fmt.Sprintf("%d", r.Tasks),
					fmt.Sprintf("%.2f", r.SimTime),
					fmt.Sprintf("%.0f", float64(r.Wall.Microseconds())/1000),
					fmt.Sprintf("%.2f", r.BytesPerTask()/1024),
					fmt.Sprintf("%.1f", r.AllocsPerTask()),
				})
			}
			small, large := results[0], results[len(results)-1]
			growth := large.BytesPerTask() / small.BytesPerTask()
			rep.Notes = append(rep.Notes,
				fmt.Sprintf("bytes/task growth across a %.0fx task-count increase: %.2fx (flat = pooled kernel)",
					float64(large.Tasks)/float64(small.Tasks), growth),
				"tasks run cpu->disk->rack-local-transfer->zero-byte-send chains through prebound callbacks; timers, PS flows and fabric flows (zero-byte handles included) all recycle through free lists")
			if growth > 1.25 {
				rep.Notes = append(rep.Notes,
					fmt.Sprintf("WARNING: bytes/task grew %.2fx across scales — pooling regression?", growth))
			}
			return rep, nil
		},
	})
}
