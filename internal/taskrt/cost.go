package taskrt

import (
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/transport"
)

// Profile is an engine's cost profile: one field per mechanism the paper
// credits for the engines' gap (Sections 2.3 and 4.4). Each engine's
// Config embeds it; the charges below read it, so every engine pays a
// mechanism at the same point, and a zero field switches it off.
type Profile struct {
	TasksPerNode int // concurrent tasks per node, per task kind

	JobLaunch   float64 // job submission and runtime launch (s)
	TaskStart   float64 // per-task launch (s): a JVM spawn, a dispatch, a process init
	JobTeardown float64 // output commit and runtime shutdown (s)

	MapCPUPerByte    float64 // core-sec per nominal input byte on the map (O) side
	ReduceCPUPerByte float64 // core-sec per nominal shuffled byte on the reduce (A) side
	SortCPUPerByte   float64 // core-sec per nominal byte sorted or merged
	RecordCPU        float64 // core-sec per nominal record (both sides)

	// Overhead is the runtime's background CPU (JVM GC, library threads)
	// per task core-second. MemPressureGC adds GC-storm CPU per task
	// core-second once node memory utilization exceeds 70 %, scaled by how
	// deep into the red zone the node is: what makes 6 tasks per node
	// slower than 4 on 16 GB nodes (Figure 2(b)).
	Overhead      float64
	MemPressureGC float64

	TaskMem   float64 // resident memory per task: a JVM heap, an executor's base, an MPI process
	DaemonMem float64 // per-node runtime daemons' residency

	// PortedCPUFactor scales MapCPU and Buffer.Charge for a job.Spec marked
	// Ported (0: unscaled): the paper's DataMPI applications keep Mahout's
	// logic and data structures, and some JVM-era cost (Section 4.6).
	PortedCPUFactor float64

	// Transport is the engine's staged communication profile (its default
	// when Name == ""); EmitCPUPerByte is the map side's serialization.
	Transport transport.Profile
}

// MapCPU returns the core-seconds a map-side task of spec pays: the map
// rate times factor (its cost relative to plain parsing) per nominal
// input byte, the record rate per nominal record, then the emit rate per
// nominal byte of output it serialized, summed in that order.
func (b *Base) MapCPU(spec *job.Spec, factor, inNominal, records, emitted float64) float64 {
	c := b.cost
	return c.cpuFactor(spec) * (c.MapCPUPerByte*factor*inNominal + c.RecordCPU*records +
		b.tp.Profile().EmitCPUPerByte*emitted)
}

// reduceCPU returns the core-seconds a reduce tail of spec pays: the reduce
// rate, the sort rate per nominal byte, then the record rate per record.
func (c *Profile) reduceCPU(spec *job.Spec, total, nominalRecords float64) float64 {
	return c.cpuFactor(spec) * (c.ReduceCPUPerByte*total + c.SortCPUPerByte*total + c.RecordCPU*nominalRecords)
}

// cpuFactor is the factor every CPU charge of spec pays.
func (c *Profile) cpuFactor(spec *job.Spec) float64 {
	if spec.Ported && c.PortedCPUFactor > 0 {
		return c.PortedCPUFactor
	}
	return 1
}

// Overhead returns the runtime's background CPU charged alongside cpuSec
// of task compute on node: the Overhead rate, plus the memory-pressure GC
// term once the node's memory utilization exceeds 70 %.
func (b *Base) Overhead(node int, cpuSec float64) float64 {
	c := b.cost
	gc := c.Overhead * cpuSec
	if press := b.C.Node(node).Mem.Pressure(); press > 0.7 {
		gc += c.MemPressureGC * (press - 0.7) / 0.3 * cpuSec
	}
	return gc
}

// StartCPU charges cpuSec of task compute on node, plus overhead (see
// Overhead) as a second flow contending for the CPU in parallel; wg
// completes when both have.
func (b *Base) StartCPU(wg *sim.WaitGroup, node int, cpuSec, overhead float64) {
	cpu := b.C.Node(node).CPU
	wg.Add(1)
	cpu.Start(cpuSec, wg.Done)
	if overhead > 0 {
		wg.Add(1)
		cpu.Start(overhead, wg.Done)
	}
}
