// Package sched is the shared task-scheduling layer beneath the three
// execution engines (internal/mr, internal/rdd, internal/core). It owns
// the machinery each engine previously reimplemented by hand:
//
//   - SlotPool: per-node task slots (Hadoop map/reduce slots, Spark worker
//     cores, DataMPI communicator slots) built on the simulation kernel,
//     with policy-arbitrated grants when several jobs contend;
//   - Placer: block-to-node assignment with replica locality preference
//     and balanced task waves;
//   - Queue: whole-job admission, letting any engine run several jobs
//     concurrently on one simulated testbed under a FIFO or Fair policy.
//
// The paper's comparison runs one job at a time; its "dynamic" 4D
// characteristic — tasks scheduled onto slots as they free up — is exactly
// this layer. Extracting it makes the multi-tenant scenario family
// (BigDataBench-style workload mixes) available to every engine while
// keeping single-job runs bit-for-bit identical to the per-engine
// schedulers it replaces.
package sched

import "fmt"

// Policy selects how a pool arbitrates slot grants between concurrent
// jobs. With a single job both policies degenerate to plain FIFO waiter
// order, matching the per-engine semaphores this package replaced.
type Policy int

const (
	// FIFO grants freed slots to the earliest-admitted job with a waiting
	// task; later jobs only backfill slots earlier jobs leave idle.
	FIFO Policy = iota
	// Fair grants freed slots to the waiting job holding the fewest slots
	// of the pool relative to its weight, equalizing shares under
	// contention.
	Fair
)

func (p Policy) String() string {
	switch p {
	case FIFO:
		return "FIFO"
	case Fair:
		return "Fair"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// JobHandle identifies one admitted job to the scheduling layer. Pools use
// it to account held slots; policies use its admission sequence and weight
// to arbitrate grants.
type JobHandle struct {
	name   string
	seq    int
	weight float64
	tenant string // fair-share identity for scenario accounting ("" = none)
}

// Name returns the label the job was admitted under.
func (h *JobHandle) Name() string { return h.name }

// Tenant returns the fair-share identity the job was admitted under, or
// "" for jobs submitted outside a tenant.
func (h *JobHandle) Tenant() string { return h.tenant }
