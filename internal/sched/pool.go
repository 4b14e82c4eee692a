package sched

import (
	"cmp"
	"slices"

	"github.com/datampi/datampi-go/internal/sim"
)

// SlotPool is a set of per-node task slots in simulated time. Within one
// job, waiters are served FIFO, exactly like the per-engine semaphores the
// pool replaces; across jobs the pool's policy picks which waiting job a
// freed slot goes to. A freed slot is assigned to the chosen waiter before
// it wakes, so a granted slot can never be stolen by a newcomer.
//
// Acquire is kill-safe: a waiter cancelled while queued removes itself on
// its way out, and one cancelled between grant and wake returns the slot,
// so speculative-attempt cancellation and preemption never leak slots.
//
// Each node keeps one FIFO of waiters per waiting job, and a grant scans
// the node's FIFOs for the minimum of one total order: weighted held share
// under Fair (from the live counts), then job admission seq, then head
// waiter seq. The scan is bounded by the jobs waiting on that node — at
// most a few hundred in the benchmark's busiest scenario, usually one — and
// job accounting is deleted outright when a job's demand returns to zero,
// so a long trace leaves nothing behind.
type SlotPool struct {
	policy  Policy
	perNode int // current target width (slots per node)
	base    int // width the pool was created with (PoolSet mismatch check)
	free    []int
	waiting [][]*jobQueue // per node: the FIFOs of the jobs waiting there
	info    map[*JobHandle]*handleInfo
	// waitJobs lists the jobs with a queued waiter on some node, by
	// admission seq: the order Starved tries them in.
	waitJobs []waitingJob
	// wSum is the summed weight of the jobs currently holding or wanting
	// slots — FairShare's denominator, kept as jobs enter and leave the
	// active set. It resets to an exact 0 whenever the active set empties,
	// so no floating-point residue survives across trace generations.
	wSum float64
	// debt counts slots Shrink retired while tasks were still running on
	// them: each Release absorbs one unit of debt instead of granting the
	// slot, draining the pool to its new width without killing anything.
	debt    []int
	arrival int64
}

type poolWaiter struct {
	p       *sim.Proc
	seq     int64   // arrival order, kept across grants for FIFO-within-job
	at      float64 // simulated enqueue time, for starvation detection
	node    int32   // the node it queues on
	granted bool    // slot assigned, wake pending
}

// jobQueue is one job's FIFO of waiters on one node. Within a job waiters
// are strictly FIFO, so the head is the oldest, lowest-seq waiter: it
// carries the queue's tie-break key and its starvation age.
type jobQueue struct {
	h    *JobHandle
	hi   *handleInfo // live while the queue is: a waiting job has demand
	next *jobQueue   // the job's FIFO on another node, in no order
	ws   []*poolWaiter
}

// waitingJob is one waitJobs entry. It carries the job's admission seq,
// so a search of the list reads no job.
type waitingJob struct {
	seq int
	hi  *handleInfo
}

// handleInfo is one job's live accounting in the pool, created when the
// job first holds or wants a slot and deleted when both counts return to
// zero. It is created and dropped as often as a job's demand comes and
// goes, so it stays two counts and a pointer wide.
type handleInfo struct {
	held, waiting int32
	queues        *jobQueue // the job's FIFOs, one per node it queues on, linked by next
}

// NewSlotPool creates a pool with perNode slots on each of nodes nodes.
func NewSlotPool(policy Policy, nodes, perNode int) *SlotPool {
	if nodes <= 0 || perNode <= 0 {
		panic("sched: SlotPool needs at least one node and one slot per node")
	}
	return &SlotPool{
		policy:  policy,
		perNode: perNode,
		base:    perNode,
		free:    newFilled(nodes, perNode),
		waiting: make([][]*jobQueue, nodes),
		info:    make(map[*JobHandle]*handleInfo),
		debt:    make([]int, nodes),
	}
}

func newFilled(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// PerNode returns the configured slots per node.
func (sp *SlotPool) PerNode() int { return sp.perNode }

// Nodes returns the number of nodes the pool spans.
func (sp *SlotPool) Nodes() int { return len(sp.free) }

// Free returns the currently free slots on node.
func (sp *SlotPool) Free(node int) int { return sp.free[node] }

// Held returns how many of the pool's slots h currently holds.
func (sp *SlotPool) Held(h *JobHandle) int {
	hi := sp.info[h]
	if hi == nil {
		return 0
	}
	return int(hi.held)
}

// Policy returns the pool's grant-arbitration policy.
func (sp *SlotPool) Policy() Policy { return sp.policy }

// count adds held and waiting to h's counts. A job enters the active set
// (and FairShare's denominator) with its first demand and is forgotten
// when its demand returns to zero.
func (sp *SlotPool) count(h *JobHandle, held, waiting int) *handleInfo {
	hi := sp.info[h]
	if hi == nil {
		hi = &handleInfo{}
		sp.info[h] = hi
		sp.wSum += h.weight
	}
	hi.held += int32(held)
	hi.waiting += int32(waiting)
	if hi.held < 0 {
		panic("sched: Release without matching Acquire")
	}
	if hi.held+hi.waiting == 0 {
		delete(sp.info, h)
		if len(sp.info) == 0 {
			sp.wSum = 0
		} else {
			sp.wSum -= h.weight
		}
	}
	return hi
}

// Acquire takes one slot on node for job h, parking the proc until the
// pool grants one under its policy. reason labels the blocked state for
// metrics attribution.
func (sp *SlotPool) Acquire(p *sim.Proc, node int, h *JobHandle, reason string) {
	// Invariant: a non-empty queue implies no free slots (grant drains the
	// queue whenever a slot frees), so the fast path cannot overtake a
	// waiter.
	if sp.free[node] > 0 {
		sp.free[node]--
		sp.count(h, 1, 0)
		return
	}
	w := &poolWaiter{p: p, seq: sp.arrival, at: p.Engine().Now(), node: int32(node)}
	sp.arrival++
	hi := sp.count(h, 0, 1)
	qs := sp.waiting[node]
	i := slices.IndexFunc(qs, func(q *jobQueue) bool { return q.h == h })
	if i < 0 {
		q := &jobQueue{h: h, hi: hi, next: hi.queues, ws: []*poolWaiter{w}}
		sp.waiting[node] = append(qs, q)
		if q.next == nil {
			sp.waitJobs = slices.Insert(sp.waitJobs, sp.waitJobPos(h.seq), waitingJob{h.seq, hi})
		}
		hi.queues = q
	} else {
		qs[i].ws = append(qs[i].ws, w)
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		// The waiter is unwinding (cancelled attempt): undo its pool state
		// before the panic continues. A granted-but-not-woken waiter hands
		// its slot back; a still-queued one just leaves its FIFO.
		if w.granted {
			sp.count(h, -1, 0)
			sp.free[node]++
			sp.grant(node)
		} else {
			sp.removeWaiter(node, h, w)
		}
		panic(r)
	}()
	p.Park(reason)
}

// removeWaiter takes a still-queued waiter out of its job's FIFO
// (cancelled while waiting), dropping the FIFO when it drains.
func (sp *SlotPool) removeWaiter(node int, h *JobHandle, w *poolWaiter) {
	qs := sp.waiting[node]
	i := slices.IndexFunc(qs, func(q *jobQueue) bool { return q.h == h })
	q := qs[i]
	q.ws = slices.DeleteFunc(q.ws, func(o *poolWaiter) bool { return o == w })
	if len(q.ws) == 0 {
		sp.dropQueue(node, i)
	}
	sp.count(h, 0, -1)
}

// dropQueue removes node's drained FIFO at index i, and its job from
// waitJobs when that was the job's last FIFO. The FIFOs' order on a node
// or in a job carries no meaning: a grant takes the minimum of a total
// order, and Starved the oldest head.
func (sp *SlotPool) dropQueue(node, i int) {
	qs := sp.waiting[node]
	q := qs[i]
	last := len(qs) - 1
	qs[i] = qs[last]
	qs[last] = nil
	sp.waiting[node] = qs[:last]
	hi := q.hi
	if hi.queues == q && q.next == nil {
		j := sp.waitJobPos(q.h.seq)
		for sp.waitJobs[j].hi != hi { // past any other job of the same seq
			j++
		}
		sp.waitJobs = slices.Delete(sp.waitJobs, j, j+1)
	}
	pq := &hi.queues
	for *pq != q {
		pq = &(*pq).next
	}
	*pq = q.next
}

// waitJobPos returns the first index in waitJobs whose job's admission
// seq is not below seq.
func (sp *SlotPool) waitJobPos(seq int) int {
	i, _ := slices.BinarySearchFunc(sp.waitJobs, seq, func(w waitingJob, seq int) int { return cmp.Compare(w.seq, seq) })
	return i
}

// Release returns one of h's slots on node, granting it to the best
// waiter, if any, under the pool's policy. When the node owes shrink debt
// the slot is retired instead of granted.
func (sp *SlotPool) Release(node int, h *JobHandle) {
	sp.count(h, -1, 0)
	if sp.debt[node] > 0 {
		sp.debt[node]--
		return
	}
	sp.free[node]++
	sp.grant(node)
}

// grant hands out free slots on node until slots or waiters run out (after
// Release exactly one slot is free; Grow can free several at once). Each
// grant pops the head of the FIFO that comes first in the pool's order:
// the lowest weighted held share under Fair, then the earliest-admitted
// job, then the oldest head waiter.
func (sp *SlotPool) grant(node int) {
	for sp.free[node] > 0 && len(sp.waiting[node]) > 0 {
		qs := sp.waiting[node]
		best, bestShare := 0, sp.share(qs[0])
		for i := 1; i < len(qs); i++ {
			q, b := qs[i], qs[best]
			s := sp.share(q)
			if s < bestShare || s == bestShare &&
				(q.h.seq < b.h.seq || q.h.seq == b.h.seq && q.ws[0].seq < b.ws[0].seq) {
				best, bestShare = i, s
			}
		}
		q := qs[best]
		w := q.ws[0]
		q.ws[0] = nil
		q.ws = q.ws[1:]
		if len(q.ws) == 0 {
			sp.dropQueue(node, best)
		}
		q.hi.waiting--
		q.hi.held++ // net demand unchanged: the job stays in the active set
		sp.free[node]--
		w.granted = true
		w.p.Unpark()
	}
}

// share is the grant order's first key: the job's weighted held share
// under Fair, 0 for every job under FIFO.
func (sp *SlotPool) share(q *jobQueue) float64 {
	if sp.policy != Fair {
		return 0
	}
	return float64(q.hi.held) / q.h.weight
}

// Grow widens the pool to perNode slots on every node (a no-op if it is
// already at least that wide), granting the new slots to waiters. Growth
// first forgives any outstanding shrink debt — slots that were marked for
// retirement but whose tasks are still running simply stay in service.
// Engines whose slot layout depends on the job (DataMPI's A communicator)
// widen the shared pool rather than strand ranks.
func (sp *SlotPool) Grow(perNode int) {
	if perNode <= sp.perNode {
		return
	}
	delta := perNode - sp.perNode
	sp.perNode = perNode
	for node := range sp.free {
		add := delta
		if sp.debt[node] > 0 {
			forgiven := sp.debt[node]
			if forgiven > add {
				forgiven = add
			}
			sp.debt[node] -= forgiven
			add -= forgiven
		}
		if add > 0 {
			sp.free[node] += add
			sp.grant(node)
		}
	}
}

// Shrink narrows the pool to perNode slots on every node (a no-op if it is
// already at most that wide) — the elastic complement of Grow. Free slots
// are retired immediately; slots held by running tasks drain lazily, each
// Release retiring the slot instead of granting it until the node is back
// within its new width. No running task is ever killed by a shrink.
func (sp *SlotPool) Shrink(perNode int) {
	if perNode < 1 {
		perNode = 1
	}
	if perNode >= sp.perNode {
		return
	}
	delta := sp.perNode - perNode
	sp.perNode = perNode
	for node := range sp.free {
		take := delta
		if take > sp.free[node] {
			take = sp.free[node]
		}
		sp.free[node] -= take
		sp.debt[node] += delta - take
	}
}

// Debt returns the slots on node still awaiting lazy retirement after a
// Shrink (running tasks whose slots will not be re-granted).
func (sp *SlotPool) Debt(node int) int { return sp.debt[node] }

// FairShare returns h's weighted fair share of the pool's total slots,
// dividing among the jobs that currently hold or want slots. The
// denominator is maintained incrementally; with the integral weights the
// scheduler uses it is exactly the sum a fresh scan would compute.
func (sp *SlotPool) FairShare(h *JobHandle) float64 {
	total := float64(sp.Nodes() * sp.perNode)
	if sp.wSum == 0 {
		return total
	}
	return total * h.weight / sp.wSum
}

// Starved returns the earliest-admitted job that has had a waiter queued
// for at least patience while holding less than its weighted fair share,
// together with the node its oldest waiter queues on; (nil, -1) when no
// job starves. The preemption monitor kills for the returned node so the
// freed slot reaches the starved waiter. It tries the waiting jobs in
// admission order, and per job only its oldest FIFO head: the share test
// is per job, and a job's waiters age in arrival order on every node, so
// when its oldest waiter has not waited out patience none of its others
// has either.
func (sp *SlotPool) Starved(now, patience float64) (*JobHandle, int) {
	for _, w := range sp.waitJobs {
		hi := w.hi
		h := hi.queues.h // a waiting job has a FIFO, which names it
		if float64(hi.held)+1 > sp.FairShare(h)+1e-9 {
			continue
		}
		oldest := hi.queues.ws[0]
		for q := hi.queues.next; q != nil; q = q.next {
			if q.ws[0].seq < oldest.seq {
				oldest = q.ws[0]
			}
		}
		if now-oldest.at >= patience {
			return h, int(oldest.node)
		}
	}
	return nil, -1
}

// PoolSet lazily creates named slot pools shared by every job admitted to
// one queue. Engines name their pools by slot kind ("mr-map", "mr-reduce",
// "spark-worker", "dm-o", "dm-a"), so jobs of the same engine type contend
// for the same slots while different engine types contend only for the
// underlying simulated resources.
type PoolSet struct {
	nodes  int
	policy Policy
	pools  map[string]*SlotPool
}

// NewPoolSet creates an empty pool set for a cluster of nodes nodes.
func NewPoolSet(policy Policy, nodes int) *PoolSet {
	if nodes <= 0 {
		panic("sched: PoolSet needs at least one node")
	}
	return &PoolSet{nodes: nodes, policy: policy, pools: make(map[string]*SlotPool)}
}

// Pool returns the pool named kind, creating it with perNode slots per
// node on first use. A later caller asking for a different perNode gets
// nil: the sizes would silently diverge from what the caller configured,
// so engines turn that into the job's error (JobControl.Pools); engines
// whose per-job slot demand legitimately varies use PoolGrow instead. The
// check compares against the pool's base (creation) width, so
// scenario-timeline Grow/Shrink events do not make a later job of the same
// engine type trip it.
func (ps *PoolSet) Pool(kind string, perNode int) *SlotPool {
	if sp, ok := ps.pools[kind]; ok {
		if sp.base != perNode {
			return nil
		}
		return sp
	}
	sp := NewSlotPool(ps.policy, ps.nodes, perNode)
	ps.pools[kind] = sp
	return sp
}

// PoolGrow returns the pool named kind widened to at least perNode slots
// per node, creating it on first use. Jobs with a narrower demand share
// the wider pool.
func (ps *PoolSet) PoolGrow(kind string, perNode int) *SlotPool {
	sp, ok := ps.pools[kind]
	if !ok {
		return ps.Pool(kind, perNode)
	}
	sp.Grow(perNode)
	return sp
}

// Get returns the pool named kind if it exists.
func (ps *PoolSet) Get(kind string) (*SlotPool, bool) {
	sp, ok := ps.pools[kind]
	return sp, ok
}
