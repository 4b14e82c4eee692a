package taskrt

import (
	"runtime"
	"sync"

	"github.com/datampi/datampi-go/internal/dfs"
)

// aheadBudget caps how many results of record work started ahead no Take
// has had yet, across every job in the process. Workers run at most that
// far ahead of the simulations that take their results, so a backlog of
// admitted jobs does not hold its map output long before its tasks run.
const aheadBudget = 256

// ahead schedules the record work that Ahead starts: at most GOMAXPROCS
// worker goroutines in the process, which claim items in Ahead order and
// then in index order, while fewer than aheadBudget results wait for a
// Take, and exit when no Pending has an unclaimed item. Its mutex guards
// every Pending too. It is process-wide, as a sync.Pool is: what it
// bounds — host CPUs and the memory results hold — is too.
var ahead aheadSched

func init() { ahead.filled.L, ahead.room.L = &ahead.mu, &ahead.mu }

type aheadSched struct {
	mu      sync.Mutex
	filled  sync.Cond // a worker filled a slot
	room    sync.Cond // the budget has room again
	queue   []claimer // Ahead calls that may have unclaimed items, oldest first
	workers int       // live worker goroutines
	ready   int       // filled slots no Take has had
}

// claimer is a Pending as the workers see it; ahead.mu is held for claim.
type claimer interface {
	claim() int // the next unclaimed index, now running; -1 if none
	run(i int)  // compute item i and fill its slot
}

// Pending holds the results of record work a job started ahead of its
// simulated tasks (see Ahead).
type Pending[T any] struct {
	work    func(i int) T
	slots   []slot[T]
	next    int  // the lowest index that may still be unclaimed
	stopped bool // no worker claims another item
	// held counts the ready slots: the budget the Pending holds. A job
	// that neither finishes nor fails (a queue that deadlocked) never
	// stops its Pending, so a cleanup returns held when the GC drops it.
	held *int
	// leave (nil without a fingerprint) ends the job's interest in its
	// record table entries; the first stop calls it.
	leave func()
}

type slot[T any] struct {
	state aheadState
	val   T
	panic any // what work panicked with on a worker, re-raised by Take
}

type aheadState uint8

const (
	unclaimed aheadState = iota
	running              // a worker is computing it
	ready                // a worker finished it; no Take yet
	taken                // a Take has had it, or a stop dropped it
)

// Ahead starts work(i), the record work of blocks[i], for every block on
// worker goroutines — at most GOMAXPROCS in the process, so
// min(GOMAXPROCS, len(blocks)) when the job has them to itself — which
// claim items in index order, and returns at once. work depends only on
// i and on what it captured: it must not touch simulation state (the sim
// kernel, node memory, filesystem writes, the tracer, the profiler), so
// every input it needs — the filesystem's Scale among them — is read
// before Ahead is called. Job.Fail, Job.Finish and RunSolo's deadlock
// unwind stop the workers from claiming more of the job's items and drop
// the results no Take has had.
//
// With a non-empty fingerprint (the spec's job.Spec.Fingerprint) every
// work(i), ahead or in a Take, goes through the engine's record table:
// the result for (blocks[i], fingerprint, nParts partitions, sortBuf,
// the engine's Scale, emitScale) is computed once while a job that asked
// for it runs — for the engine's life once two jobs have — and every
// other caller gets the same immutable value, waiting for the
// computation in flight if there is one. An empty fingerprint shares
// nothing: blocks then only counts the items.
func Ahead[T any](j *Job, fingerprint string, blocks []*dfs.Block, nParts int, sortBuf, emitScale float64,
	work func(i int) T) *Pending[T] {
	p := &Pending[T]{work: work, slots: make([]slot[T], len(blocks)), held: new(int)}
	if fingerprint != "" {
		t := j.b.rec
		shape := t.shape(shapeKey{fingerprint, nParts, sortBuf, j.b.Scale(), emitScale})
		es := join[T](t, shape, blocks)
		p.work = func(i int) T { return share(t, es[i], work, i) }
		p.leave = func() { leave(t, es) }
	}
	runtime.AddCleanup(p, func(held *int) {
		ahead.mu.Lock()
		ahead.release(held, *held)
		ahead.mu.Unlock()
	}, p.held)
	j.ahead = append(j.ahead, p)
	s := &ahead
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue = append(s.queue, p)
	for k := min(runtime.GOMAXPROCS(0), len(blocks)) - s.workers; k > 0; k-- {
		s.workers++
		go s.worker()
	}
	return p
}

func (s *aheadSched) worker() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.ready >= aheadBudget && len(s.queue) > 0 {
			s.room.Wait()
			continue
		}
		p, i := s.claim()
		if p == nil {
			s.workers--
			return
		}
		s.mu.Unlock()
		p.run(i)
		s.mu.Lock()
	}
}

// claim returns the oldest Pending with an unclaimed item and the item,
// dropping the exhausted ones ahead of it. s.mu is held.
func (s *aheadSched) claim() (claimer, int) {
	for len(s.queue) > 0 {
		if i := s.queue[0].claim(); i >= 0 {
			return s.queue[0], i
		}
		s.queue[0] = nil
		s.queue = s.queue[1:]
	}
	return nil, -1
}

func (p *Pending[T]) claim() int {
	for !p.stopped && p.next < len(p.slots) {
		if i := p.next; p.slots[i].state == unclaimed {
			p.slots[i].state = running
			return i
		}
		p.next++
	}
	return -1
}

func (p *Pending[T]) run(i int) {
	v, pv := p.compute(i)
	s := &ahead
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.stopped {
		// Nobody will take it: a later Take computes it afresh.
		p.slots[i] = slot[T]{state: taken}
	} else {
		p.slots[i] = slot[T]{state: ready, val: v, panic: pv}
		s.ready++
		*p.held++
	}
	s.filled.Broadcast()
}

// compute runs work(i) on a worker; a panic comes back as a value, for
// Take to raise on the caller's goroutine.
func (p *Pending[T]) compute(i int) (v T, pv any) {
	defer func() { pv = recover() }()
	return p.work(i), nil
}

// Take returns item i's result. The first Take of i returns what a worker
// computed, waiting for it if a worker is on it, or runs work(i) on the
// caller if none has started it. Every later Take of i — a speculative
// backup, a retry, a regeneration — runs work(i) on the caller again,
// which with a fingerprint is a lookup in the engine's record table, not
// a recomputation. Take keeps no reference to the result; the caller must
// not write into it, since the table may hand it to other jobs too.
func (p *Pending[T]) Take(i int) T {
	s := &ahead
	s.mu.Lock()
	for p.slots[i].state == running {
		s.filled.Wait()
	}
	sl := p.slots[i]
	p.slots[i] = slot[T]{state: taken}
	if sl.state == ready {
		s.release(p.held, 1)
	}
	s.mu.Unlock()
	if sl.state != ready {
		return p.work(i)
	}
	if sl.panic != nil {
		panic(sl.panic)
	}
	return sl.val
}

// stop keeps the workers from claiming another item and drops the results
// no Take has had; items being computed run to the end and are dropped
// too.
func (p *Pending[T]) stop() {
	s := &ahead
	s.mu.Lock()
	p.stopped = true
	dropped := 0
	for i := range p.slots {
		if p.slots[i].state == ready {
			p.slots[i] = slot[T]{state: taken}
			dropped++
		}
	}
	s.release(p.held, dropped)
	leave := p.leave
	p.leave = nil
	s.mu.Unlock()
	if leave != nil {
		leave()
	}
}

// release returns n of the results a Pending holds to the budget. s.mu is
// held.
func (s *aheadSched) release(held *int, n int) {
	if n > 0 {
		*held -= n
		s.ready -= n
		s.room.Broadcast()
	}
}
