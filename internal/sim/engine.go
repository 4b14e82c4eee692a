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
// Processes are implemented as goroutines in strict alternation with the
// kernel goroutine: the kernel resumes a process and then blocks until that
// process parks (blocks on a resource or exits). This lets task code read
// linearly — disk.Read(n); cpu.Compute(s); fabric.Transfer(...) — while
// remaining single-threaded in effect.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Timer is a scheduled event. It can be canceled before it fires.
type Timer struct {
	at       float64
	seq      int64
	fn       func()
	canceled bool
	eng      *Engine
	index    int  // heap index, -1 when popped
	recycle  bool // fire-and-forget Post timer, pooled after firing
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
	t.canceled = true
	if t.index >= 0 && t.eng != nil {
		heap.Remove(&t.eng.events, t.index)
	}
}

type eventHeap []*Timer

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	t := x.(*Timer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}

// Engine is a deterministic discrete-event simulation kernel.
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now    float64
	seq    int64
	events eventHeap
	parked chan struct{} // signaled by a proc when it parks or exits
	procs  map[*Proc]struct{}
	nlive  int
	trace  func(string)

	// blocked counts parked procs by (block reason, node), maintained at
	// Park/resume so the metrics profiler's wait-I/O attribution is O(1)
	// per node instead of a full proc scan per sample.
	blocked map[string]map[int]int

	// tfree is the free list behind Post: fire-and-forget timers are
	// returned here by the run loop after firing. Timers handed out by
	// Schedule are never pooled — callers may Cancel them after they
	// fire, which on a recycled object would cancel an innocent event.
	tfree []*Timer
}

// NewEngine returns a fresh simulation engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{
		parked:  make(chan struct{}),
		procs:   make(map[*Proc]struct{}),
		blocked: make(map[string]map[int]int),
	}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// SetTrace installs a debug trace sink. A nil sink disables tracing.
func (e *Engine) SetTrace(fn func(string)) { e.trace = fn }

func (e *Engine) tracef(format string, args ...any) {
	if e.trace != nil {
		e.trace(fmt.Sprintf("[%10.3f] ", e.now) + fmt.Sprintf(format, args...))
	}
}

// Schedule arranges for fn to run at now+delay on the kernel goroutine.
// A negative delay is treated as zero. The returned Timer may be canceled.
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
		heap.Remove(&e.events, t.index)
	}
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	t.at = e.now + delay
	t.seq = e.seq
	t.canceled = false
	e.seq++
	heap.Push(&e.events, t)
	return t
}

// ScheduleAt arranges for fn to run at absolute time at (clamped to now).
func (e *Engine) ScheduleAt(at float64, fn func()) *Timer {
	return e.Schedule(at-e.now, fn)
}

// Run executes events until the queue is empty. It returns an error if
// processes remain parked with no pending events (a simulation deadlock),
// naming the stuck processes to aid debugging.
func (e *Engine) Run() error {
	for len(e.events) > 0 {
		t := heap.Pop(&e.events).(*Timer)
		if t.canceled {
			continue
		}
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
	}
	if e.nlive > 0 {
		names := make([]string, 0, e.nlive)
		for p := range e.procs {
			names = append(names, p.name)
		}
		sort.Strings(names)
		return fmt.Errorf("sim: deadlock at t=%.3f: %d process(es) blocked: %v", e.now, e.nlive, names)
	}
	return nil
}

// RunUntil executes events with timestamps <= deadline and then stops,
// leaving later events queued. It returns the number of events executed.
// Like Run, it refuses to move the clock backwards: an event stamped
// before the current time aborts with an error instead of silently
// rewinding e.now.
func (e *Engine) RunUntil(deadline float64) (int, error) {
	n := 0
	for len(e.events) > 0 && e.events[0].at <= deadline {
		t := heap.Pop(&e.events).(*Timer)
		if t.canceled {
			continue
		}
		if t.at < e.now {
			return n, fmt.Errorf("sim: time went backwards: %v -> %v", e.now, t.at)
		}
		e.now = t.at
		fn := t.fn
		if t.recycle {
			t.fn = nil
			e.tfree = append(e.tfree, t)
		}
		fn()
		n++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return n, nil
}

// Proc is a simulated process: a goroutine that alternates strictly with
// the kernel. Proc methods that block (Sleep, resource waits) must only be
// called from the proc's own goroutine.
type Proc struct {
	eng       *Engine
	name      string
	wake      chan struct{}
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
	unparkT *Timer
	sleepT  *Timer

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

// Go spawns a new simulated process executing fn. The process starts at the
// current simulated time (after already-queued events at this timestamp).
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, wake: make(chan struct{}), Node: -1}
	resume := func() { e.resume(p) }
	p.unparkT = &Timer{eng: e, fn: resume, index: -1}
	p.sleepT = &Timer{eng: e, fn: resume, index: -1}
	e.procs[p] = struct{}{}
	e.nlive++
	go func() {
		<-p.wake // wait for the kernel to start us
		runProc(p, fn)
		p.dead = true
		delete(e.procs, p)
		e.nlive--
		e.parked <- struct{}{}
	}()
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

// resume transfers control to p and blocks until p parks again or exits.
// Must be called on the kernel goroutine (inside an event).
func (e *Engine) resume(p *Proc) {
	if p.dead {
		return
	}
	p.wake <- struct{}{}
	<-e.parked
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
	p.eng.parked <- struct{}{}
	<-p.wake
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
	p.eng.rearm(p.unparkT, 0)
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
	p.eng.rearm(p.sleepT, d)
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
