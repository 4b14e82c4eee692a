package taskrt

import (
	"runtime"
	"sync"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
)

// aheadBudget caps how many results of record work started ahead no Take
// has had yet, across every job in the process. Workers run at most that
// far ahead of the simulations that take their results, so a backlog of
// admitted jobs does not hold its map output long before its tasks run.
const aheadBudget = 256

// ahead schedules the record work that Ahead and Tails start: at most
// GOMAXPROCS worker goroutines in the process, which claim items in the
// order the Pendings were queued and then in index order, while fewer
// than aheadBudget results wait for a Take, and exit when no Pending has
// an unclaimed item. Its mutex guards every Pending too. It is
// process-wide, as a sync.Pool is: what it bounds — host CPUs and the
// memory results hold — is too.
var ahead aheadSched

func init() { ahead.filled.L, ahead.room.L = &ahead.mu, &ahead.mu }

type aheadSched struct {
	mu      sync.Mutex
	filled  sync.Cond // a worker filled a slot
	room    sync.Cond // the budget has room again
	queue   []claimer // Pendings that may have unclaimed items, oldest first
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
	left    bool // the job's interest in es has ended
	// held counts the ready slots: the budget the Pending holds. A job
	// that neither finishes nor fails (a queue that deadlocked) never
	// stops its Pending, so a cleanup returns held when the GC drops it.
	held *int
	// With a fingerprint, es are the job's record table entries, one per
	// item, in rec; the first stop ends the job's interest in them.
	rec    *recordTable
	es     []*mapEntry[T]
	reduce tailsOf // the reduce tails over the results (see Tails)
}

type slot[T any] struct {
	state aheadState
	own   bool // a worker computed val, rather than found it in the record table
	val   T    // kept past its first Take when the Pending has tails
	panic any  // what work panicked with on a worker, re-raised by Take
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
		p.rec = j.b.rec
		shape := p.rec.shape(shapeKey{fingerprint, nParts, sortBuf, j.b.Scale(), emitScale})
		p.es = join[T](p.rec, shape, blocks)
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
	s.enqueue(p, len(blocks))
	return p
}

// enqueue queues c, which has n items, and starts workers for them up to
// GOMAXPROCS in the process. s.mu is held.
func (s *aheadSched) enqueue(c claimer, n int) {
	s.queue = append(s.queue, c)
	for k := min(runtime.GOMAXPROCS(0), n) - s.workers; k > 0; k-- {
		s.workers++
		go s.worker()
	}
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
	v, own, pv := p.compute(i)
	s := &ahead
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.stopped {
		// Nobody will take it: a later Take computes it afresh.
		p.slots[i] = slot[T]{state: taken}
	} else {
		p.slots[i] = slot[T]{state: ready, own: own, val: v, panic: pv}
		s.ready++
		*p.held++
		if pv == nil && p.reduce.spec != nil {
			p.landed(own)
		}
	}
	s.filled.Broadcast()
}

// compute runs item i on a worker; a panic comes back as a value, for
// Take to raise on the caller's goroutine.
func (p *Pending[T]) compute(i int) (v T, own bool, pv any) {
	defer func() { pv = recover() }()
	v, own = p.do(i)
	return v, own, nil
}

// do runs work(i), through the record table with a fingerprint; own
// reports that it computed the result rather than found it there.
func (p *Pending[T]) do(i int) (v T, own bool) {
	if p.es != nil {
		return share(p.rec, p.es[i], p.work, i)
	}
	return p.work(i), true
}

// Take returns item i's result. The first Take of i returns what a worker
// computed, waiting for it if a worker is on it, or runs work(i) on the
// caller if none has started it. Every later Take of i — a speculative
// backup, a retry, a regeneration — runs work(i) on the caller again,
// which with a fingerprint is a lookup in the engine's record table, not
// a recomputation. Take keeps no reference to the result; the caller must
// not write into it, since the table may hand it to other jobs too.
//
// A Pending with tails keeps each item's first value, a worker's or the
// one its first Take computed, until the job stops.
func (p *Pending[T]) Take(i int) T {
	v, state := p.first(i)
	if state == ready {
		return v
	}
	v, own := p.do(i)
	if state == unclaimed && p.reduce.spec != nil {
		s := &ahead
		s.mu.Lock()
		if !p.stopped {
			p.slots[i].val = v
			p.landed(own)
		}
		s.mu.Unlock()
	}
	return v
}

// first hands item i's first Take what a worker computed, waiting for it
// if a worker is on it, and raises the worker's panic. Otherwise it
// reports the state the item was in — unclaimed for a first Take no
// worker started, taken for a later one — and no worker will start it:
// the caller computes it.
func (p *Pending[T]) first(i int) (v T, state aheadState) {
	s := &ahead
	s.mu.Lock()
	for p.slots[i].state == running {
		s.filled.Wait()
	}
	sl := &p.slots[i]
	state, v, pv := sl.state, sl.val, sl.panic
	sl.state, sl.panic = taken, nil
	if state == ready {
		if p.reduce.spec == nil || pv != nil {
			sl.val = *new(T)
		}
		s.release(p.held, 1)
	}
	s.mu.Unlock()
	if pv != nil {
		panic(pv)
	}
	return v, state
}

// stop keeps the workers from claiming another item, drops the results
// no Take has had and the values kept for tails, and stops the tails;
// items being computed run to the end and are dropped too.
func (p *Pending[T]) stop() {
	s := &ahead
	s.mu.Lock()
	p.stopLocked()
	if tp := p.reduce.tails; tp != nil {
		tp.stopLocked()
		p.reduce.tails = nil
	}
	leaving := p.es != nil && !p.left
	p.left = true
	s.mu.Unlock()
	if leaving {
		leave(p.rec, p.es)
	}
}

// stopLocked is stop's half under ahead.mu, without the table or the
// tails.
func (p *Pending[T]) stopLocked() {
	p.stopped = true
	dropped := 0
	for i := range p.slots {
		switch p.slots[i].state {
		case ready:
			dropped++
			fallthrough
		case taken:
			p.slots[i] = slot[T]{state: taken}
		}
	}
	ahead.release(p.held, dropped)
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

// tailsOf is what a Pending of map results knows of the reduce tails
// over them once Tails was called (spec non-nil).
type tailsOf struct {
	spec  *job.Spec
	tails *Pending[tail] // started once the last value landed
	n     int32          // reducers; 0: none goes ahead
	have  int32          // items holding their first value
	own   bool           // the job computed one of them itself
}

// Tails arranges the record half of the reduce tails of spec's n
// reducers over the map results of maps, which Ahead has just returned:
// once every item of maps holds its first value, reducer ri's tail —
// ReduceTail over partition ri of every result, in item order — starts on
// the Ahead workers, and Tail hands it to the reducer. kv.Compare orders
// pairs totally, so the text is the one the reducer would merge from the
// same runs in any order. Each tail counts against aheadBudget and stops
// with the job; a reducer that finds none computes its own.
//
// No tail goes ahead when the reducers have no record work (the identity
// reducer with no output), when some map result failed — a panic, or an
// error, which leaves a result no partitions — or when every map result
// came from the record table: the job did none of its own map-side work,
// and its tails are most likely table lookups too.
func Tails[T any, PT interface {
	*T
	partitioned
}](spec *job.Spec, maps *Pending[T], n int) {
	if spec.HasIdentityReduce() && spec.Output == "" {
		n = 0
	}
	s := &ahead
	s.mu.Lock()
	defer s.mu.Unlock()
	maps.reduce = tailsOf{spec: spec, n: int32(n)}
	for i := range maps.slots {
		if sl := &maps.slots[i]; sl.state == ready && sl.panic == nil {
			maps.landed(sl.own)
		}
	}
}

// landed counts one item's first value and starts the tails once every
// item has one. ahead.mu is held.
func (p *Pending[T]) landed(own bool) {
	r := &p.reduce
	r.have++
	r.own = r.own || own
	if int(r.have) < len(p.slots) || !r.own || r.n == 0 || p.stopped {
		return
	}
	runs := make([][][]kv.Pair, len(p.slots)) // item -> partition -> run
	for i := range p.slots {
		if runs[i] = any(&p.slots[i].val).(partitioned).partitioned().Parts; len(runs[i]) != int(r.n) {
			return
		}
	}
	r.tails = &Pending[tail]{slots: make([]slot[tail], r.n), held: p.held}
	// The work reads p, so p — whose cleanup returns the budget its tails
	// share — lives while a tail may still fill.
	r.tails.work = func(ri int) tail {
		return p.tail(ri, func() tail {
			in := runsPool.Get().(*[][]kv.Pair)
			for i := range runs {
				*in = append(*in, runs[i][ri])
			}
			tl := p.reduce.merge(*in)
			clear(*in)
			*in = (*in)[:0]
			runsPool.Put(in)
			return tl
		})
	}
	ahead.enqueue(r.tails, int(r.n))
}

// tail is reducer ri's tail as compute merges it, through the record
// table with a fingerprint.
func (p *Pending[T]) tail(ri int, compute func() tail) tail {
	r := &p.reduce
	if p.es == nil || r.n == 0 {
		return compute()
	}
	return reduceTail(p.rec, r.spec.Fingerprint, r.spec.Output != "", p.es, ri, compute)
}

// merge is ReduceTail over runs, as a tail.
func (r *tailsOf) merge(runs [][]kv.Pair) tail {
	text, records := ReduceTail(r.spec, runs)
	return tail{text, records}
}

// runsPool holds a tail's list of runs between the tails a worker runs.
var runsPool = sync.Pool{New: func() any { return new([][]kv.Pair) }}

// Tail is reducer ri's record half on a Pending Tails was called on. runs
// are the reducer's pulled partitions: partition ri of every item's
// result, in any order. It returns the tail a worker computed ahead, or,
// when no worker had it, ReduceTail(spec, runs) on the caller. With a
// fingerprint the tail goes through the engine's record table: computed
// once while the job runs — a backup's or another job's Tail over the
// same results takes it — and kept for the engine's life over entries
// two jobs asked for.
func (p *Pending[T]) Tail(ri int, runs [][]kv.Pair) (text []byte, records int) {
	r := &p.reduce
	s := &ahead
	s.mu.Lock()
	tp := r.tails
	s.mu.Unlock()
	if tp != nil {
		if tl, state := tp.first(ri); state == ready {
			if mergeSeam != nil {
				mergeSeam(runs)
			}
			return tl.text, tl.records
		}
	}
	tl := p.tail(ri, func() tail { return r.merge(runs) })
	return tl.text, tl.records
}
