package taskrt

import (
	"fmt"
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

// storeBudget caps the bytes the record store keeps of entries no running
// job asked for (see recordStore.park): room to carry a block's map
// output from one engine's job to the next engine's over the same bytes,
// and from one input size to the next larger one, whose first blocks are
// the same (bdb.GenerateTextFile is prefix-stable). Idle bytes raise peak
// RSS by up to twice their size, since the GC's heap goal doubles what is
// live, so a larger budget buys hits at that price.
const storeBudget = 23 << 19 // 11.5 MB

// ahead is the record plane: it schedules the record work that Ahead and
// Tails start — at most GOMAXPROCS worker goroutines in the process,
// which claim items in the order the Pendings were queued and then in
// index order, while fewer than aheadBudget results wait for a Take, and
// exit when no Pending has an unclaimed item — and its mutex guards every
// cell, every Pending and the record store. It is process-wide, as a
// sync.Pool is: what it bounds — host CPUs and the memory results hold —
// is too, and so is the store, which every engine's jobs share.
var ahead aheadSched

func init() {
	ahead.settled.L, ahead.room.L = &ahead.mu, &ahead.mu
	ahead.store = newRecordStore(storeBudget)
}

type aheadSched struct {
	mu      sync.Mutex
	settled sync.Cond // a cell's computation settled
	room    sync.Cond // the budget has room again
	queue   []claimer // Pendings that may have unclaimed items, oldest first
	workers int       // live worker goroutines
	ready   int       // items a worker computed that no Take has had
	store   *recordStore
}

// cell is one value of the record plane, computed once: a Pending's item
// (its own cell, from which its first Take has it), a record store's map
// entry or reduce tail. ahead.mu guards it.
type cell[T any] struct {
	state cellState
	val   T
	panic any // what a worker computing a Pending's item panicked with
}

type cellState uint8

const (
	idle    cellState = iota // nobody computed it, or the computation panicked
	running                  // a worker or a caller is computing it
	done                     // val, or panic, is set
)

// get returns c's value — raising a worker's panic stored with it —
// waiting for the computation in flight if there is one, or computes it
// as compute() on the caller when nobody has; computed reports that it
// did. ahead.mu is held, and released while get waits or compute runs.
func (c *cell[T]) get(compute func() T) (v T, computed bool) {
	for c.state == running {
		ahead.settled.Wait()
	}
	if c.state == done {
		if c.panic != nil {
			panic(c.panic)
		}
		return c.val, false
	}
	c.state = running
	c.fill(compute)
	return c.val, true
}

// fill runs compute for c, which its caller set running, with ahead.mu
// released, and settles c: done with the value, or idle again, the panic
// propagating, if compute panicked. ahead.mu is held again on return.
func (c *cell[T]) fill(compute func() T) {
	ahead.mu.Unlock()
	var v T
	ok := false
	defer func() {
		ahead.mu.Lock()
		c.state = idle
		if ok {
			c.state, c.val = done, v
		}
		ahead.settled.Broadcast()
	}()
	v = compute()
	ok = true
}

// claimer is a Pending as the workers see it; ahead.mu is held for both.
type claimer interface {
	claim() int // the next unclaimed index, now running; -1 if none
	run(i int)  // compute item i into its cell
}

// Pending holds the results of record work a job started ahead of its
// simulated tasks (see Ahead).
type Pending[T any] struct {
	work    func(i int) T
	items   []*cell[T] // each item's first result; nil once a Take had it or a stop dropped it
	next    int        // the lowest index that may still be unclaimed
	stopped bool       // no worker claims another item
	own     bool       // the job computed an item, rather than found it in the record store
	// held counts the items a worker computed that no Take has had: the
	// budget the Pending holds. A job that neither finishes nor fails (a
	// queue that deadlocked) never stops its Pending, so a cleanup returns
	// held when the GC drops it.
	held *int
	// With a fingerprint fp, es are the job's record store entries, one
	// per item, in rec (the store they joined); the stop ends the job's
	// interest in them.
	fp     string
	rec    *recordStore
	es     []*mapEntry[T]
	reduce tailsOf // the reduce tails over the results (see Tails)
}

func newPending[T any](n int, held *int, work func(i int) T) *Pending[T] {
	p := &Pending[T]{work: work, items: make([]*cell[T], n), held: held}
	for i := range p.items {
		p.items[i] = new(cell[T])
	}
	return p
}

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
// work(i), ahead or in a Take, goes through the process's record store:
// the result for (the bytes of blocks[i], fingerprint, nParts
// partitions, sortBuf, the engine's Scale, emitScale) is computed once —
// by this job or any engine's job over the same bytes — and every other
// caller gets the same immutable value, waiting for the computation in
// flight if there is one. It is kept while a job that asked for it runs,
// and then while the store's idle bytes leave room for it. An empty
// fingerprint shares nothing: blocks then only counts the items.
func Ahead[T any](j *Job, fingerprint string, blocks []*dfs.Block, nParts int, sortBuf, emitScale float64,
	work func(i int) T) *Pending[T] {
	p := newPending(len(blocks), new(int), work)
	runtime.AddCleanup(p, func(held *int) {
		ahead.mu.Lock()
		ahead.release(held, *held)
		ahead.mu.Unlock()
	}, p.held)
	j.ahead = append(j.ahead, p)
	var hashes []uint64
	if fingerprint != "" {
		hashes = make([]uint64, len(blocks))
		for i, blk := range blocks {
			hashes[i] = contentHash(blk)
		}
	}
	s := &ahead
	s.mu.Lock()
	defer s.mu.Unlock()
	if fingerprint != "" {
		p.fp, p.rec = fingerprint, s.store
		p.es = join[T](p.rec, shapeKey{fingerprint, nParts, sortBuf, j.b.Scale(), emitScale}, blocks, hashes)
	}
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
		p.run(i)
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
	for ; !p.stopped && p.next < len(p.items); p.next++ {
		if c := p.items[p.next]; c != nil && c.state == idle {
			c.state = running
			return p.next
		}
	}
	return -1
}

// run computes item i on a worker; a panic is stored with the value, for
// the first Take to raise on the caller's goroutine.
func (p *Pending[T]) run(i int) {
	c, own := p.items[i], false
	c.fill(func() (v T) {
		defer func() { c.panic = recover() }()
		v, own = p.do(i)
		return v
	})
	p.own = p.own || own
	if p.items[i] == c { // no Take waits for it
		if p.stopped {
			p.items[i] = nil // nobody will take it: a later Take computes it afresh
		} else {
			ahead.ready++
			*p.held++
		}
	}
	if c.panic == nil {
		p.landed(i, &c.val)
	}
}

// do runs work(i), through the record store with a fingerprint; own
// reports that it computed the result rather than found it there.
func (p *Pending[T]) do(i int) (v T, own bool) {
	if p.es == nil {
		return p.work(i), true
	}
	e := p.es[i]
	ahead.mu.Lock()
	defer ahead.mu.Unlock()
	defer e.drop(p.rec) // once nobody computes it, a panic included
	size := 0
	if v, own = e.get(func() T {
		v := p.work(i)
		size = entryBytes + pairBytes(&v)
		return v
	}); own {
		p.rec.lastID++
		e.id, e.size = p.rec.lastID, size
		if pt, ok := any(&e.val).(partitioned); ok && frozenSeam != nil {
			frozenSeam(p.fp, fmt.Sprintf("block %016x/%d", e.key.hash, e.key.size), pt.partitioned().Parts, nil)
		}
	}
	return v, own
}

// Take returns item i's result. The first Take of i returns what a worker
// computed, waiting for it if a worker is on it, or runs work(i) on the
// caller if none has started it. Every later Take of i — a speculative
// backup, a retry, a regeneration — runs work(i) on the caller again,
// which with a fingerprint is a lookup in the record store, not a
// recomputation. Take keeps no reference to the result; the caller must
// not write into it, since the store may hand it to other jobs too.
func (p *Pending[T]) Take(i int) T {
	v, _ := p.take(i, func() (T, bool) { return p.do(i) })
	return v
}

// take is Take with compute, which also reports whether the job computed
// the result itself, in place of do(i); worker reports that a worker
// computed what it returns.
func (p *Pending[T]) take(i int, compute func() (T, bool)) (v T, worker bool) {
	ahead.mu.Lock()
	c := p.items[i]
	if c == nil || p.stopped {
		ahead.mu.Unlock()
		v, _ = compute() // a later Take, or one after the stop: not kept
		return v, false
	}
	defer ahead.mu.Unlock()
	p.items[i] = nil
	if c.state == done {
		ahead.release(p.held, 1)
	}
	own := false
	v, computed := c.get(func() (v T) {
		v, own = compute()
		return v
	})
	if computed {
		p.own = p.own || own
		p.landed(i, &c.val)
	}
	return v, !computed
}

// stop keeps the workers from claiming another item, drops the results
// no Take has had and stops the tails; items being computed run to the
// end and are dropped too. The job's interest in its record store
// entries ends.
func (p *Pending[T]) stop() {
	ahead.mu.Lock()
	defer ahead.mu.Unlock()
	p.stopLocked()
}

// stopLocked is stop under ahead.mu; a second stop does nothing.
func (p *Pending[T]) stopLocked() {
	if p.stopped {
		return
	}
	p.stopped = true
	dropped := 0
	for i, c := range p.items {
		if c == nil || c.state == running {
			continue // a worker's: dropped when it is done
		}
		if c.state == done {
			dropped++
		}
		p.items[i] = nil
	}
	ahead.release(p.held, dropped)
	if tp := p.reduce.tails; tp != nil {
		tp.stopLocked()
	}
	p.reduce.tails, p.reduce.runs = nil, nil
	for _, e := range p.es {
		e.jobs--
		e.drop(p.rec)
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

// tailsOf is what a Pending of map results knows of the reduce tails
// over them once Tails was called (spec non-nil).
type tailsOf struct {
	spec  *job.Spec
	tails *Pending[tail] // started once every item has its first value
	runs  [][][]kv.Pair  // item -> partition -> run, of each first value; nil: none goes ahead
	have  int32          // items in runs
	n     int32          // reducers; 0: none goes ahead
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
// came from the record store: the job did none of its own map-side work,
// and its tails are most likely store lookups too.
func Tails[T any, PT interface {
	*T
	partitioned
}](spec *job.Spec, maps *Pending[T], n int) {
	if spec.HasIdentityReduce() && spec.Output == "" {
		n = 0
	}
	ahead.mu.Lock()
	defer ahead.mu.Unlock()
	maps.reduce = tailsOf{spec: spec, n: int32(n)}
	if n > 0 {
		maps.reduce.runs = make([][][]kv.Pair, len(maps.items))
	}
	for i, c := range maps.items {
		if c != nil && c.state == done && c.panic == nil {
			maps.landed(i, &c.val)
		}
	}
}

// MapAhead starts the record half of a job's map stage — MapBlock of
// each of blocks into nParts partitions, spilling past sortBuf nominal
// bytes, shared by spec's fingerprint (Ahead) — and, with tails, the
// nParts reducers' tails over the results (Tails).
func MapAhead(j *Job, spec *job.Spec, blocks []*dfs.Block, nParts int, sortBuf float64, tails bool) *Pending[Mapped] {
	scale := j.b.Scale()
	maps := Ahead(j, spec.Fingerprint, blocks, nParts, sortBuf, spec.EmitScale(),
		func(i int) Mapped { return MapBlock(spec, blocks[i], nParts, sortBuf, scale) })
	if tails {
		Tails(spec, maps, nParts)
	}
	return maps
}

// landed records item i's first value v and starts the tails once every
// item has one. ahead.mu is held.
func (p *Pending[T]) landed(i int, v *T) {
	r := &p.reduce
	if r.runs == nil || r.runs[i] != nil || p.stopped {
		return
	}
	if r.runs[i] = any(v).(partitioned).partitioned().Parts; len(r.runs[i]) != int(r.n) {
		r.runs = nil // a failed map
		return
	}
	if r.have++; int(r.have) < len(r.runs) || !p.own {
		return
	}
	// The work reads p, so p — whose cleanup returns the budget its tails
	// share — lives while a tail may still fill.
	runs := r.runs
	r.tails = newPending(int(r.n), p.held, func(ri int) tail {
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
	})
	ahead.enqueue(r.tails, int(r.n))
}

// tail is reducer ri's tail as compute merges it, through the record
// store with a fingerprint.
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
// fingerprint the tail goes through the record store: computed once — a
// backup's or another job's Tail over the same results, on any engine,
// takes it — and kept as long as the first entry it merges.
func (p *Pending[T]) Tail(ri int, runs [][]kv.Pair) (text []byte, records int) {
	r := &p.reduce
	compute := func() tail { return p.tail(ri, func() tail { return r.merge(runs) }) }
	ahead.mu.Lock()
	tp := r.tails
	ahead.mu.Unlock()
	if tp == nil {
		tl := compute()
		return tl.text, tl.records
	}
	tl, worker := tp.take(ri, func() (tail, bool) { return compute(), true })
	if worker && mergeSeam != nil {
		mergeSeam(runs)
	}
	return tl.text, tl.records
}
