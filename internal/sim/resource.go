package sim

import (
	"fmt"
	"math"
)

// epsilon below which a flow's remaining work counts as finished. Work is
// measured in resource units (core-seconds, bytes), so 1e-6 is far below
// any meaningful quantum.
const workEpsilon = 1e-6

// flowDone reports whether a fluid flow should be treated as complete:
// either its remaining work is negligible in absolute terms, or less than
// a nanosecond of work remains at its current rate. The second clause
// absorbs floating-point residue after a settle — without it, completion
// timers can fire at ever-shrinking intervals and the simulation livelocks.
func flowDone(remaining, rate float64) bool {
	return remaining <= workEpsilon || (rate > 0 && remaining <= rate*1e-9)
}

// PSResource is a fluid processor-sharing resource: capacity units/second
// divided equally among active flows, with an optional per-flow rate cap.
// It models CPUs (capacity = number of cores, per-flow cap = 1 core) and
// disks (capacity = bandwidth, per-flow cap = bandwidth).
type PSResource struct {
	eng        *Engine
	name       string
	capacity   float64 // units per second
	perFlowCap float64 // max units/sec a single flow may get

	// Thrash models efficiency loss under high concurrency (disk seek
	// storms): with n active flows, effective capacity is
	// capacity / (1 + ThrashAlpha * max(0, n-ThrashAllowance)).
	// Zero ThrashAlpha disables the penalty (CPUs, networks).
	ThrashAllowance int
	ThrashAlpha     float64

	last float64 // time of the last settle

	// Virtual-time allocator state (see resource_vtime.go): flows in a
	// min-heap keyed by finish virtual time, with lazy per-flow
	// accounting — no per-flow sweep on settle.
	vheap  vtHeap
	vt     float64 // current virtual time (work served per flow)
	vrate  float64 // dV/dt under the current flow population
	vtimer *Timer  // reusable completion timer
	seqCtr int64
	vbatch []*psFlow // completion scratch

	busyIntegral float64 // ∫ usedRate dt, for average-utilization accounting
	waiting      int     // procs currently blocked on this resource

	// fpool is the flow free list: completed flows return here after
	// their callback is dispatched (no caller holds psFlow handles — Use
	// parks on Unpark, Start is fire-and-forget).
	fpool []*psFlow
}

// psFlow completes when the resource's virtual clock reaches finishV;
// seq is the start order, used to fire same-instant completions in a
// deterministic order.
type psFlow struct {
	onDone  func()
	finishV float64
	seq     int64
}

// NewPSResource creates a processor-sharing resource. perFlowCap <= 0 means
// a single flow may use the full capacity.
func NewPSResource(eng *Engine, name string, capacity, perFlowCap float64) *PSResource {
	if capacity <= 0 {
		panic("sim: PSResource capacity must be positive")
	}
	if perFlowCap <= 0 {
		perFlowCap = capacity
	}
	return &PSResource{
		eng:        eng,
		name:       name,
		capacity:   capacity,
		perFlowCap: perFlowCap,
	}
}

// Name returns the resource's debug name.
func (r *PSResource) Name() string { return r.name }

// Capacity returns the resource capacity in units per second.
func (r *PSResource) Capacity() float64 { return r.capacity }

// Rescale multiplies the resource's capacity and per-flow cap by factor,
// re-splitting in-flight flows at the new rates from the current instant.
// Factors below 1 model degraded hardware (a thermally-throttled CPU, a
// failing disk); the cluster layer's SlowNode perturbation is built on it.
func (r *PSResource) Rescale(factor float64) {
	if factor <= 0 || math.IsNaN(factor) {
		panic(fmt.Sprintf("sim: %s: Rescale factor must be positive, got %v", r.name, factor))
	}
	r.vtSettle()
	r.vtCollect()
	r.capacity *= factor
	r.perFlowCap *= factor
	r.vtProgram()
}

// Use consumes amount units, blocking the proc until the work completes
// under fair sharing with all concurrent users. reason labels the proc's
// blocked state for metrics.
func (r *PSResource) Use(p *Proc, amount float64, reason string) {
	if amount <= workEpsilon {
		return
	}
	r.vtStart(amount, p.Unpark)
	r.waiting++
	p.Park(reason)
	r.waiting--
}

// Start begins an asynchronous flow of amount units; onDone runs (in kernel
// context) when it completes. Used for fire-and-forget background work such
// as replication pipelines.
func (r *PSResource) Start(amount float64, onDone func()) {
	if amount <= workEpsilon {
		if onDone != nil {
			r.eng.Post(0, onDone)
		}
		return
	}
	r.vtStart(amount, onDone)
}

// UsedRate returns the instantaneous consumption rate in units/second.
// O(1): flow count times the common per-flow rate.
func (r *PSResource) UsedRate() float64 {
	return r.vrate * float64(len(r.vheap))
}

// ActiveFlows returns the number of in-progress flows.
func (r *PSResource) ActiveFlows() int { return len(r.vheap) }

// Waiting returns the number of procs currently blocked in Use.
func (r *PSResource) Waiting() int { return r.waiting }

// BusyIntegral returns ∫ usedRate dt up to now; divide by the window and
// capacity for average utilization.
func (r *PSResource) BusyIntegral() float64 {
	r.vtSettle()
	return r.busyIntegral
}

// Memory tracks allocated bytes against a hard limit. Bytes can be freed
// lazily: they keep counting toward the observable footprint (Used) for a
// while — modeling garbage a JVM has not collected yet — but stop
// counting toward Pressure immediately, because a collector would reclaim
// them the moment memory got tight.
type Memory struct {
	name        string
	limit       float64
	used        float64
	peak        float64
	reclaimable float64
}

// NewMemory creates a memory account with the given byte limit.
func NewMemory(name string, limit float64) *Memory {
	return &Memory{name: name, limit: limit}
}

// OOMError reports an allocation that exceeded a memory limit. It mirrors
// the java.lang.OutOfMemoryError failures the paper observes for Spark.
type OOMError struct {
	Account   string
	Requested float64
	Used      float64
	Limit     float64
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("out of memory on %s: requested %.0f bytes with %.0f/%.0f in use",
		e.Account, e.Requested, e.Used, e.Limit)
}

// Alloc reserves n bytes, failing with *OOMError if the limit would be
// exceeded.
func (m *Memory) Alloc(n float64) error {
	if n < 0 {
		panic("sim: negative allocation")
	}
	if m.used+n > m.limit {
		return &OOMError{Account: m.name, Requested: n, Used: m.used, Limit: m.limit}
	}
	m.used += n
	if m.used > m.peak {
		m.peak = m.used
	}
	return nil
}

// MustAlloc reserves n bytes without enforcing the limit (used for
// frameworks that overcommit and rely on the OS page cache).
func (m *Memory) MustAlloc(n float64) {
	m.used += n
	if m.used > m.peak {
		m.peak = m.used
	}
}

// Free releases n bytes. Sub-byte residue from floating-point grouping
// differences is clamped to zero.
func (m *Memory) Free(n float64) {
	m.used -= n
	if m.used < -1 {
		panic(fmt.Sprintf("sim: memory %s freed below zero (%.0f)", m.name, m.used))
	}
	if m.used < 1 {
		m.used = 0
	}
}

// FreeLazy marks n bytes reclaimable immediately and physically frees
// them after delay simulated seconds (lazy GC).
func (m *Memory) FreeLazy(eng *Engine, n, delay float64) {
	m.reclaimable += n
	eng.Post(delay, func() {
		m.reclaimable -= n
		if m.reclaimable < 0 {
			m.reclaimable = 0
		}
		m.Free(n)
	})
}

// Pressure returns the fraction of the limit occupied by live (non-
// reclaimable) allocations — the quantity GC behaviour responds to.
func (m *Memory) Pressure() float64 {
	live := m.used - m.reclaimable
	if live < 0 {
		live = 0
	}
	return live / m.limit
}

// Used returns current allocated bytes.
func (m *Memory) Used() float64 { return m.used }

// Peak returns the high-water mark.
func (m *Memory) Peak() float64 { return m.peak }

// Limit returns the configured byte limit.
func (m *Memory) Limit() float64 { return m.limit }
