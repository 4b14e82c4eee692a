// Package sim implements a deterministic discrete-event simulation kernel
// with coroutine-style processes and fluid (processor-sharing) resources.
//
// The kernel is the substrate beneath every framework in this repository:
// the Hadoop-like MapReduce engine, the Spark-like RDD engine, and DataMPI
// all run their tasks as sim processes, and all of their I/O is charged to
// sim resources (CPU, disk, network, memory). Because the event queue is
// ordered by (time, sequence) and at most one process runs at any instant,
// a simulation with a fixed seed is fully deterministic and reproducible.
//
// Processes are coroutines (iter.Pull): the kernel resumes a process by
// switching straight to its coroutine and gets control back when the
// process parks (blocks on a resource) or exits — a direct hand-off inside
// the Go runtime, with no channel, no scheduler pass and nothing running
// in parallel. This lets task code read linearly — disk.Read(n);
// cpu.Compute(s); fabric.Transfer(...) — while remaining single-threaded
// in fact, on whichever goroutine called Run.
package sim

import (
	"fmt"
	"iter"
	"math"
	"sort"
)

// Timer is a scheduled event. It can be canceled before it fires.
type Timer struct {
	at      float64
	seq     int64
	fn      func()
	eng     *Engine
	index   int  // heap index, -1 when not queued
	recycle bool // fire-and-forget Post timer, pooled after firing
}

// At returns the simulated time at which the timer fires.
func (t *Timer) At() float64 { return t.at }

// Reset re-schedules the timer to fire delay seconds from now,
// superseding any pending deadline — the reuse idiom for periodic
// timers (metrics sampling, fabric completion programming) that would
// otherwise allocate a Timer per tick.
func (t *Timer) Reset(delay float64) { t.eng.rearm(t, delay) }

// Cancel prevents the timer from firing. A pending timer is removed from
// the event heap immediately (O(log n) via its stored heap index), so
// cancel-heavy workloads — speculation, preemption, watchdog timeouts —
// cannot rot the heap with ghost entries. Canceling an already-fired
// timer is a no-op.
func (t *Timer) Cancel() {
	if t.index >= 0 && t.eng != nil {
		t.eng.events.remove(t.index)
	}
}

// before is the event order: time, then scheduling sequence. seq is
// unique per queued timer, so the order is total and the pop sequence
// does not depend on how the heap arranges its slots.
func (t *Timer) before(u *Timer) bool {
	return t.at < u.at || (t.at == u.at && t.seq < u.seq)
}

// eventHeap is a binary min-heap of timers by (at, seq), each timer
// carrying its own slot number so Cancel and Reset find it in O(1). It is
// written against *Timer directly — container/heap's Interface costs an
// indirect Less and Swap per level on the kernel's hottest path — and
// sifts by moving a hole instead of swapping; the slot layout after every
// operation is the one container/heap would leave (pinned by
// FuzzEventHeapMatchesContainerHeap).
type eventHeap []*Timer

func (h *eventHeap) push(t *Timer) {
	*h = append(*h, t)
	h.up(len(*h)-1, t)
}

// pop removes and returns the earliest timer.
func (h *eventHeap) pop() *Timer {
	top := (*h)[0]
	h.remove(0)
	return top
}

// remove takes the timer in slot i out of the heap; the last timer fills
// the gap and sifts to its place.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	t, last := old[i], old[n]
	old[n] = nil
	*h = old[:n]
	if i != n && !h.down(i, last) {
		h.up(i, last)
	}
	t.index = -1
}

// up settles t, whose slot i is a hole, towards the root.
func (h eventHeap) up(i int, t *Timer) {
	for i > 0 {
		parent := (i - 1) / 2
		pt := h[parent]
		if !t.before(pt) {
			break
		}
		h[i], pt.index = pt, i
		i = parent
	}
	h[i], t.index = t, i
}

// down settles t, whose slot i is a hole, towards the leaves and reports
// whether it moved.
func (h eventHeap) down(i int, t *Timer) bool {
	start := i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		ct := h[c]
		if !ct.before(t) {
			break
		}
		h[i], ct.index = ct, i
		i = c
	}
	h[i], t.index = t, i
	return i > start
}

// Engine is a deterministic discrete-event simulation kernel.
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now    float64
	seq    int64
	events eventHeap
	procs  map[*Proc]uint64 // live procs, by spawn sequence number
	spawns uint64           // procs spawned so far

	// blocked counts parked procs by (block reason, node), maintained at
	// Park/resume so the metrics profiler's wait-I/O attribution is O(1)
	// per node instead of a full proc scan per sample.
	blocked map[string]map[int]int

	// tfree is the free list behind Post: fire-and-forget timers are
	// returned here by the run loop after firing. Timers handed out by
	// Schedule are never pooled — callers may Cancel them after they
	// fire, which on a recycled object would cancel an innocent event.
	tfree []*Timer

	// idle is the free list behind Go: coroutines whose proc has exited
	// and that wait for the next body. Creating a coroutine costs some
	// fifteen heap objects and a goroutine, a spawn on a pooled one costs
	// the Proc and its wake-up closure. Proc handles are never pooled,
	// for the reason Schedule's timers are not: callers keep them to
	// Cancel later.
	idle []*coroutine
}

// NewEngine returns a fresh simulation engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{
		procs:   make(map[*Proc]uint64),
		blocked: make(map[string]map[int]int),
	}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule arranges for fn to run at now+delay in kernel context (on the
// goroutine that called Run, between procs). A negative delay is treated
// as zero. The returned Timer may be canceled.
func (e *Engine) Schedule(delay float64, fn func()) *Timer {
	return e.rearm(&Timer{eng: e, fn: fn, index: -1}, delay)
}

// Post arranges for fn to run at now+delay like Schedule, but returns no
// handle: the event cannot be canceled, so its timer object is recycled
// through a free list after firing. Hot fire-and-forget dispatch sites
// (flow-completion callbacks, message delivery) use Post to keep the
// kernel's steady-state timer allocation rate at zero. Ordering is
// identical to Schedule — the timer gets the same (time, seq) key it
// would get there.
func (e *Engine) Post(delay float64, fn func()) {
	var t *Timer
	if n := len(e.tfree); n > 0 {
		t = e.tfree[n-1]
		e.tfree[n-1] = nil
		e.tfree = e.tfree[:n-1]
		t.fn = fn
	} else {
		t = &Timer{eng: e, fn: fn, index: -1, recycle: true}
	}
	e.rearm(t, delay)
}

// rearm (re)schedules a timer object, reusing its allocation; a timer
// that is still pending is superseded (removed and re-pushed at the new
// deadline). The kernel's own repeat customers — proc unpark/sleep
// wake-ups, fluid-resource completion timers — go through rearm so
// steady-state event traffic allocates no Timer or closure objects.
func (e *Engine) rearm(t *Timer, delay float64) *Timer {
	if t.index >= 0 {
		// Still pending: e.g. a proc woken out of a Sleep early by an
		// external Unpark going back to sleep. Re-pushing the same
		// object would alias two heap slots and corrupt the indexes.
		e.events.remove(t.index)
	}
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	t.at = e.now + delay
	t.seq = e.seq
	e.seq++
	e.events.push(t)
	return t
}

// step pops the earliest event, moves the clock to it and runs it.
func (e *Engine) step() error {
	t := e.events.pop()
	if t.at < e.now {
		return fmt.Errorf("sim: time went backwards: %v -> %v", e.now, t.at)
	}
	e.now = t.at
	fn := t.fn
	if t.recycle {
		t.fn = nil
		e.tfree = append(e.tfree, t)
	}
	fn()
	return nil
}

// Run executes events until the queue is empty. It returns an error if
// processes remain parked with no pending events (a simulation deadlock),
// naming each stuck process with what it waits for and where, as
// "name (reason@node)" sorted by name (the node is left out for a proc
// that never set one). A clean Run leaves no goroutine behind: the pooled
// coroutines are stopped on the way out. Procs stuck at a deadlock stay
// parked, and the engine stays usable.
func (e *Engine) Run() error {
	for len(e.events) > 0 {
		if err := e.step(); err != nil {
			return err
		}
	}
	e.stopIdle()
	if len(e.procs) > 0 {
		stuck := make([]string, 0, len(e.procs))
		for p := range e.procs {
			where := p.BlockReason
			if p.Node >= 0 {
				where = fmt.Sprintf("%s@%d", where, p.Node)
			}
			stuck = append(stuck, fmt.Sprintf("%s (%s)", p.name, where))
		}
		sort.Strings(stuck)
		return fmt.Errorf("sim: deadlock at t=%.3f: %d process(es) blocked: %v", e.now, len(stuck), stuck)
	}
	return nil
}

// RunUntil executes events with timestamps <= deadline and then stops,
// leaving later events queued. It returns the number of events executed.
// Like Run, it refuses to move the clock backwards: an event stamped
// before the current time aborts with an error instead of silently
// rewinding e.now. If it leaves the queue empty it stops the pooled
// coroutines as Run does.
func (e *Engine) RunUntil(deadline float64) (int, error) {
	n := 0
	for len(e.events) > 0 && e.events[0].at <= deadline {
		if err := e.step(); err != nil {
			return n, err
		}
		n++
	}
	if len(e.events) == 0 {
		e.stopIdle()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return n, nil
}

// Proc is a simulated process: a body running on one of the engine's
// coroutines, which has control exactly from a resume by the kernel until
// its next Park. Proc methods that block (Sleep, resource waits) must only
// be called from the proc's own body.
type Proc struct {
	eng       *Engine
	name      string
	co        *coroutine // what the body runs on; nil once dead
	dead      bool
	parked    bool
	cancelled bool
	unwinding bool

	// unparkT and sleepT are this proc's reusable wake-up timers: Unpark
	// and Sleep rearm them instead of allocating a Timer plus closure per
	// wake-up (the Schedule(0, ...) allocation storm under task churn).
	// At most one of each can be pending at a time, so reuse is safe.
	// sleepT is cancelled on the kill unwind so a pending Sleep wake-up
	// cannot outlive the proc.
	unparkT Timer
	sleepT  Timer

	// BlockReason is set while the proc is parked; used by the metrics
	// sampler to attribute blocked time (e.g. CPU-wait-IO accounting).
	BlockReason string
	// Node is an opaque tag (typically a node index) used by metrics.
	Node int
}

// killed is the panic sentinel that unwinds a cancelled proc so its
// deferred cleanup (memory frees, slot releases) runs before it dies.
type killed struct{ p *Proc }

// IsKilled reports whether a recovered panic value is a proc-cancellation
// unwind. Intermediate frames that recover to clean up must re-panic any
// value for which IsKilled is false.
func IsKilled(r any) bool { _, ok := r.(killed); return ok }

// Cancel marks the proc for termination. The proc observes the
// cancellation at its next Park or Sleep boundary (waking it if currently
// parked) and unwinds through its deferred cleanup before exiting; work
// already submitted to fluid resources drains in the background, modeling
// a kill that takes effect at the task's next scheduling point.
// Cancelling a dead or already-cancelled proc is a no-op. Must be called
// from kernel context or another proc, never from the target itself.
func (p *Proc) Cancel() {
	if p.dead || p.cancelled {
		return
	}
	p.cancelled = true
	if p.parked {
		p.Unpark()
	}
}

// CancelAll cancels every live proc: the way out of a deadlock for an
// owner of the whole simulation. The next Run unwinds them at one
// simulated instant, in the order they were spawned.
func (e *Engine) CancelAll() {
	live := make([]*Proc, 0, len(e.procs))
	for p := range e.procs {
		live = append(live, p)
	}
	sort.Slice(live, func(i, j int) bool { return e.procs[live[i]] < e.procs[live[j]] })
	for _, p := range live {
		p.Cancel()
	}
}

// Cancelled reports whether Cancel has been called on the proc. Task code
// can poll it between park points to stop early.
func (p *Proc) Cancelled() bool { return p.cancelled }

// checkKilled starts the kill unwind if the proc has been cancelled. A
// pending sleep timer is cancelled so it cannot hold the event queue open
// as a ghost wake-up for the dead proc.
func (p *Proc) checkKilled() {
	if p.cancelled && !p.unwinding {
		p.unwinding = true
		p.sleepT.Cancel() // no-op unless a sleep wake-up is pending
		panic(killed{p})
	}
}

// Name returns the debug name given to Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// CountBlocked returns the number of live procs for which fn reports true.
// Prefer BlockedOn for the common reason+node query: it reads a counter
// maintained at park/resume instead of scanning every live proc.
func (e *Engine) CountBlocked(fn func(*Proc) bool) int {
	n := 0
	for p := range e.procs {
		if fn(p) {
			n++
		}
	}
	return n
}

// BlockedOn returns the number of procs currently parked on node with any
// of the given block reasons. It is O(len(reasons)): the counters are
// maintained incrementally at Park/resume, so the metrics profiler's
// per-sample wait-I/O attribution no longer scans the proc table.
func (e *Engine) BlockedOn(node int, reasons ...string) int {
	n := 0
	for _, reason := range reasons {
		n += e.blocked[reason][node]
	}
	return n
}

// blockedAdd maintains the (reason, node) parked-proc counters.
func (e *Engine) blockedAdd(reason string, node, delta int) {
	if reason == "" {
		return
	}
	m := e.blocked[reason]
	if m == nil {
		m = make(map[int]int)
		e.blocked[reason] = m
	}
	m[node] += delta
}

// coroutine is one pooled iter.Pull coroutine. It runs the proc bodies
// assigned to it one after another: next switches into it (starting or
// resuming the current body), yield switches back to the kernel, and
// between bodies it sits on Engine.idle.
type coroutine struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // the assigned proc and its body, nil while idle
	fn    func(*Proc)
}

func (e *Engine) newCoroutine() *coroutine {
	c := &coroutine{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			p := c.p
			runProc(p, c.fn)
			c.p, c.fn = nil, nil
			p.dead = true
			p.co = nil
			delete(e.procs, p)
			e.idle = append(e.idle, c)
			if !yield(struct{}{}) {
				return // stopped while idle
			}
		}
	})
	return c
}

// stopIdle ends the pooled coroutines, and with them their goroutines.
func (e *Engine) stopIdle() {
	for _, c := range e.idle {
		c.stop()
	}
	e.idle = nil
}

// Go spawns a new simulated process executing fn. The process starts at the
// current simulated time (after already-queued events at this timestamp).
//
// A panic in fn other than the kill unwind propagates through the kernel's
// resume and out of Engine.Run or RunUntil, on the caller's goroutine and
// with its original value.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, Node: -1}
	resume := func() { e.resume(p) }
	p.unparkT = Timer{eng: e, fn: resume, index: -1}
	p.sleepT = Timer{eng: e, fn: resume, index: -1}
	e.spawns++
	e.procs[p] = e.spawns
	if n := len(e.idle); n > 0 {
		p.co = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		p.co = e.newCoroutine()
	}
	p.co.p, p.co.fn = p, fn
	p.Unpark()
	return p
}

// runProc executes the proc body, absorbing the kill unwind of a cancelled
// proc (any other panic propagates). A proc cancelled before its first
// resume never runs its body.
func runProc(p *Proc, fn func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil && !IsKilled(r) {
			panic(r)
		}
	}()
	if p.cancelled {
		return
	}
	fn(p)
}

// resume switches to p's coroutine and returns when p parks again or
// exits. Must be called in kernel context (inside an event).
func (e *Engine) resume(p *Proc) {
	if p.dead {
		return
	}
	p.co.next()
}

// Park blocks the calling proc until something resumes it via a scheduled
// event calling Unpark. reason is recorded for metrics/debugging; an empty
// reason preserves a reason the caller already set on BlockReason (so a
// task can label a composite wait, e.g. "disk", before blocking on a
// WaitGroup).
//
// Park is a cancellation boundary: a cancelled proc starts its kill unwind
// here instead of blocking (and on wake, if cancelled while parked).
// During the unwind itself Park returns immediately so deferred cleanup
// can never block a dying proc.
func (p *Proc) Park(reason string) {
	if p.unwinding {
		return
	}
	p.checkKilled()
	if reason != "" {
		p.BlockReason = reason
	}
	p.eng.blockedAdd(p.BlockReason, p.Node, 1)
	p.parked = true
	p.co.yield(struct{}{})
	p.parked = false
	p.eng.blockedAdd(p.BlockReason, p.Node, -1)
	p.BlockReason = ""
	p.checkKilled()
}

// Unpark schedules p to be resumed at the current simulated time. It is the
// counterpart of Park and must be called from kernel context (an event
// callback) or from another proc. Unparking a dead proc is a no-op, and a
// second Unpark before the first wake-up fires coalesces with it (the
// proc can only consume one resume).
func (p *Proc) Unpark() {
	if p.dead || p.unparkT.index >= 0 {
		return
	}
	p.eng.rearm(&p.unparkT, 0)
}

// Sleep suspends the proc for d simulated seconds. Like Park, it is a
// cancellation boundary: a cancelled proc unwinds here instead of
// sleeping, and a proc already unwinding returns immediately.
func (p *Proc) Sleep(d float64) {
	if p.unwinding {
		return
	}
	p.checkKilled()
	if d <= 0 {
		// Yield: reschedule after already-queued same-time events.
		p.Unpark()
		p.Park("yield")
		return
	}
	p.eng.rearm(&p.sleepT, d)
	p.Park("sleep")
}

// WaitGroup is a simulation-aware analogue of sync.WaitGroup: procs block
// in simulated time rather than wall-clock time.
type WaitGroup struct {
	n       int
	waiters []*Proc
}

// Add increments the counter by delta.
func (w *WaitGroup) Add(delta int) { w.n += delta }

// Done decrements the counter and wakes all waiters when it reaches zero.
func (w *WaitGroup) Done() {
	w.n--
	if w.n < 0 {
		panic("sim: WaitGroup counter below zero")
	}
	if w.n == 0 {
		for _, p := range w.waiters {
			p.Unpark()
		}
		w.waiters = nil
	}
}

// Wait parks p until the counter reaches zero. The proc's existing
// BlockReason (if any) is preserved for metrics attribution.
func (w *WaitGroup) Wait(p *Proc) {
	if w.n == 0 {
		return
	}
	w.waiters = append(w.waiters, p)
	p.Park("")
}

// WaitAs is Wait with the composite wait labelled reason for the span of
// the call, so the blocked-proc counters attribute it (e.g. "disk" for a
// task waiting on overlapped read, CPU and spill flows).
func (w *WaitGroup) WaitAs(p *Proc, reason string) {
	p.BlockReason = reason
	w.Wait(p)
	p.BlockReason = ""
}

// Cond is a simulation-aware condition variable with FIFO wakeup order.
type Cond struct {
	waiters []*Proc
}

// Wait parks p until Signal or Broadcast wakes it. reason is recorded for
// metrics attribution while blocked.
func (c *Cond) Wait(p *Proc, reason string) {
	c.waiters = append(c.waiters, p)
	p.Park(reason)
}

// Signal wakes the longest-waiting live proc, if any. Dead or cancelled
// waiters (already woken by Cancel) are skipped so a signal is never lost
// on a proc that can no longer consume it.
func (c *Cond) Signal() {
	for len(c.waiters) > 0 {
		p := c.waiters[0]
		c.waiters[0] = nil // the backing array outlives the pop
		c.waiters = c.waiters[1:]
		if p.dead || p.cancelled {
			continue
		}
		p.Unpark()
		return
	}
}

// Broadcast wakes all waiting procs in FIFO order.
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		p.Unpark()
	}
	c.waiters = nil
}

// Len reports how many procs are currently waiting.
func (c *Cond) Len() int { return len(c.waiters) }
