package sched

import (
	"fmt"
	"sort"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/trace"
)

// Engine is implemented by execution engines that can admit a job onto a
// shared simulated testbed without driving the event loop themselves.
// mr.Engine, core.Engine and the rdd engine all implement it, so a Queue
// can co-schedule jobs on any of them.
type Engine interface {
	job.Engine
	// Submit spawns the job's driver and task processes on the engine's
	// simulation. done, if non-nil, is invoked (in simulation context)
	// with the job's result when its driver completes. The caller drives
	// the event loop.
	Submit(spec job.Spec, ctl *JobControl, done func(job.Result))
	// Cluster returns the simulated testbed the engine runs on.
	Cluster() *cluster.Cluster
}

// JobControl carries one admitted job's scheduling context: its handle for
// slot accounting, the slot pools shared with the other jobs admitted to
// the same queue, and the task tracker that owns attempt lifecycles.
type JobControl struct {
	handle  *JobHandle
	pools   *PoolSet
	tracker *TaskTracker
}

// Handle returns the job's scheduling handle.
func (c *JobControl) Handle() *JobHandle { return c.handle }

// Pool returns the shared slot pool named kind, creating it with perNode
// slots per node on first use; nil when an earlier job sized it
// differently (see PoolSet.Pool).
func (c *JobControl) Pool(kind string, perNode int) *SlotPool {
	return c.pools.Pool(kind, perNode)
}

// Pools takes the job's shared slot pools, one per kind, each at perNode
// slots per node. A kind an earlier job sized differently cannot serve
// this job: the error names it and both widths, and the engine rejects
// the job before charging it anything. Kinds after the failing one are
// not created.
func (c *JobControl) Pools(perNode int, kinds ...string) ([]*SlotPool, error) {
	pools := make([]*SlotPool, len(kinds))
	for i, kind := range kinds {
		if pools[i] = c.pools.Pool(kind, perNode); pools[i] == nil {
			return nil, fmt.Errorf("sched: pool %q is sized at %d slots/node, this job wants %d",
				kind, c.pools.pools[kind].base, perNode)
		}
	}
	return pools, nil
}

// PoolGrow returns the shared slot pool named kind widened to at least
// perNode slots per node (see PoolSet.PoolGrow).
func (c *JobControl) PoolGrow(kind string, perNode int) *SlotPool {
	return c.pools.PoolGrow(kind, perNode)
}

// Launch routes one task through the queue's task tracker under this
// job's handle. Engines submit every map/reduce/O/A-style task body here
// so attempts are observable, cancellable and retryable.
func (c *JobControl) Launch(ts TaskSpec) {
	ts.Handle = c.handle
	c.tracker.Launch(ts)
}

// Placer returns the block placer for this job's cluster.
func (c *JobControl) Placer() Placer {
	return Placer{Nodes: c.pools.nodes}
}

// Tracker returns the shared task tracker.
func (c *JobControl) Tracker() *TaskTracker { return c.tracker }

// Solo returns the control for a job that owns the whole testbed: a fresh
// pool set, a tracker with speculation and preemption off, and a handle
// with no other jobs to contend with. The engines' plain Run paths use
// it, so a single job contends only with its own tasks.
func Solo(eng *sim.Engine, nodes int) *JobControl {
	return &JobControl{
		handle:  &JobHandle{name: "solo", weight: 1},
		pools:   NewPoolSet(FIFO, nodes),
		tracker: NewTaskTracker(eng, SpeculationConfig{}, PreemptionConfig{}),
	}
}

// Queue admits whole jobs onto one simulated testbed so they execute
// concurrently, contending for slots under the queue's policy and for the
// simulated resources (CPU, disk, network, memory) beneath them. Its
// tracker owns every admitted job's task attempts, enabling speculative
// execution and preemption across jobs.
//
// Queue state is O(active): deferred admissions wait in a time-ordered
// heap drained by a single re-armed timer (no per-submission closure or
// timer), and — when a completion sink opts in via DiscardSettled —
// finished submissions compact out of the live set, so steady-state
// memory is proportional to queued+running jobs, not to the length of the
// trace.
type Queue struct {
	eng      *sim.Engine
	pools    *PoolSet
	tracker  *TaskTracker
	subs     []*Submission
	nextSeq  int
	timeline []TimelineEntry

	// pending is a min-heap of deferred admissions keyed (due time,
	// admission order), drained batch-wise by admitTick.
	pending []pendingAdm
	pseq    int64
	admitT  *sim.Timer
	armed   bool
	armedAt float64

	admitted int // Admit calls
	ndone    int // completions, the O(1) counter Run checks
	settled  int // completed submissions still in subs (discard mode)

	onDone  func(*Submission)
	discard bool
}

// pendingAdm is one deferred admission: everything start needs, held by
// value in the queue's heap until the sim clock reaches its due time.
type pendingAdm struct {
	at   float64
	seq  int64 // admission order, the tie-break for equal due times
	sub  *Submission
	e    Engine
	ctl  *JobControl
	spec job.Spec
}

// NewQueue creates a queue over a simulation engine and cluster size.
func NewQueue(eng *sim.Engine, nodes int, policy Policy) *Queue {
	return &Queue{
		eng:     eng,
		pools:   NewPoolSet(policy, nodes),
		tracker: NewTaskTracker(eng, SpeculationConfig{}, PreemptionConfig{}),
	}
}

// SetSpeculation enables/configures speculative execution for every job
// submitted to the queue. Call before Run. New code should prefer the
// declarative equivalent, datampi.WithSpeculation on a Scenario.
func (q *Queue) SetSpeculation(c SpeculationConfig) { q.tracker.SetSpeculation(c) }

// SetPreemption enables/configures Fair-policy slot preemption for every
// job submitted to the queue. Call before Run. New code should prefer the
// declarative equivalent, datampi.WithPreemption on a Scenario.
func (q *Queue) SetPreemption(c PreemptionConfig) { q.tracker.SetPreemption(c) }

// OnComplete registers a sink invoked (in simulation context) as each
// submission completes, with its result and slot accounting still
// available — the streaming alternative to collecting Run's result slice.
// Call before Run.
func (q *Queue) OnComplete(fn func(*Submission)) { q.onDone = fn }

// DiscardSettled makes the queue forget each submission once it completes
// (after the OnComplete sink has seen it): the submission compacts out of
// the live set and its scheduling state — slot-seconds and straggler
// statistics under its handle — is released from the tracker. Steady-state
// queue memory then tracks queued+running jobs only. Run's result slice
// covers only submissions still live at the end, so callers opting in
// consume results via OnComplete.
func (q *Queue) DiscardSettled(on bool) { q.discard = on }

// TrackerStats returns the task-lifecycle counters (backups, kills,
// preemptions) accumulated across all submitted jobs.
func (q *Queue) TrackerStats() TrackerStats { return q.tracker.Stats() }

// SetTracer installs a span recorder on the queue's tracker: attempt
// lifecycles, admissions, completions and timeline events all record
// onto it. Engines submitted to the queue pick it up through their
// JobControl. Call before Run; nil turns tracing off.
func (q *Queue) SetTracer(tr *trace.Tracer) { q.tracker.SetTracer(tr) }

// Tracer returns the installed tracer (nil when tracing is off).
func (q *Queue) Tracer() *trace.Tracer { return q.tracker.Tracer() }

// Submission tracks one admitted job until its result is available.
type Submission struct {
	name    string
	tenant  string
	arrival float64 // simulated admission time (deferred jobs: their due time)
	handle  *JobHandle
	res     job.Result
	done    bool
}

// Name returns the submission's label ("engine:job").
func (s *Submission) Name() string { return s.name }

// Tenant returns the fair-share identity the job was admitted under ("" if
// none).
func (s *Submission) Tenant() string { return s.tenant }

// Arrival returns the simulated time the job was (or will be) admitted.
func (s *Submission) Arrival() float64 { return s.arrival }

// Done reports whether the job has completed.
func (s *Submission) Done() bool { return s.done }

// Result returns the job's result; only meaningful after the queue ran.
func (s *Submission) Result() job.Result { return s.res }

// Admit admits a job for tenant at absolute simulated time at (clamped to
// now) with the given fair-share weight: under the Fair policy a weight-2
// job receives twice the slots of a weight-1 job when both contend, and
// weights at or below zero count as 1. A job due now starts synchronously,
// so it ranks ahead of anything admitted after it; a future one waits in
// the pending heap until the sim clock reaches its arrival, so FIFO
// priority follows actual admission order: deferred jobs start in (due
// time, Admit order), regardless of the order Admit was called in. Tenant
// is a fair-share identity for report accounting; "" means none.
func (q *Queue) Admit(tenant string, at, weight float64, e Engine, spec job.Spec) *Submission {
	if weight <= 0 {
		weight = 1
	}
	now := q.eng.Now()
	if at < now {
		at = now
	}
	h := &JobHandle{name: e.Name() + ":" + spec.Name, weight: weight, tenant: tenant}
	ctl := &JobControl{handle: h, pools: q.pools, tracker: q.tracker}
	sub := &Submission{name: h.name, tenant: tenant, arrival: at, handle: h}
	q.subs = append(q.subs, sub)
	q.admitted++
	if at > now {
		q.pushPending(pendingAdm{at: at, seq: q.pseq, sub: sub, e: e, ctl: ctl, spec: spec})
		q.pseq++
		q.armAdmission()
	} else {
		q.start(sub, e, spec, ctl)
	}
	return sub
}

// start assigns the job's admission sequence (actual start order — the
// FIFO rank) and hands it to its engine.
func (q *Queue) start(sub *Submission, e Engine, spec job.Spec, ctl *JobControl) {
	ctl.handle.seq = q.nextSeq
	q.nextSeq++
	if tr := q.tracker.Tracer(); tr != nil {
		args := make([]trace.Arg, 0, 1)
		if sub.tenant != "" {
			args = append(args, trace.Arg{Key: "tenant", Val: sub.tenant})
		}
		tr.Instant("admit:"+sub.name, "sched", 0, q.eng.Now(), args...)
		tr.Counter("jobs.running", 0, q.eng.Now(), float64(q.nextSeq-q.ndone))
	}
	e.Submit(spec, ctl, func(r job.Result) { q.complete(sub, r) })
}

// complete records one submission's result, feeds the sink, and in
// discard mode compacts settled submissions amortized so the live slice
// never holds more than half garbage.
func (q *Queue) complete(sub *Submission, r job.Result) {
	sub.res = r
	sub.done = true
	q.ndone++
	if tr := q.tracker.Tracer(); tr != nil {
		tr.Instant("complete:"+sub.name, "sched", 0, q.eng.Now())
		tr.Counter("jobs.running", 0, q.eng.Now(), float64(q.nextSeq-q.ndone))
	}
	if q.onDone != nil {
		q.onDone(sub)
	}
	if q.discard {
		q.tracker.ReleaseHandle(sub.handle)
		q.settled++
		if q.settled > 32 && q.settled*2 > len(q.subs) {
			q.compactSubs()
		}
	}
}

func (q *Queue) compactSubs() {
	live := q.subs[:0]
	for _, s := range q.subs {
		if !s.done {
			live = append(live, s)
		}
	}
	for i := len(live); i < len(q.subs); i++ {
		q.subs[i] = nil
	}
	q.subs = live
	q.settled = 0
}

// armAdmission (re)arms the queue's single admission timer for the
// earliest pending due time. One sim.Timer serves the whole trace: a new
// earliest arrival resets it, admitTick re-arms it for the next deadline.
func (q *Queue) armAdmission() {
	next := q.pending[0].at
	if q.armed && next >= q.armedAt {
		return
	}
	q.armed = true
	q.armedAt = next
	delay := next - q.eng.Now()
	if q.admitT == nil {
		q.admitT = q.eng.Schedule(delay, q.admitTick)
	} else {
		q.admitT.Reset(delay)
	}
}

func (q *Queue) admitTick() {
	q.armed = false
	q.drainDueAdmissions()
	if len(q.pending) > 0 {
		q.armAdmission()
	}
}

// drainDueAdmissions starts every pending admission whose due time has
// arrived, in (due time, Admit order).
func (q *Queue) drainDueAdmissions() {
	now := q.eng.Now()
	for len(q.pending) > 0 && q.pending[0].at <= now {
		pa := q.popPending()
		q.start(pa.sub, pa.e, pa.spec, pa.ctl)
	}
}

// pushPending/popPending maintain the deferred-admission min-heap, keyed
// (due time, admission order). Hand-rolled over the value slice so a
// 10k-job trace costs no per-entry boxing.
func (q *Queue) pushPending(pa pendingAdm) {
	q.pending = append(q.pending, pa)
	i := len(q.pending) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !pendingLess(q.pending[i], q.pending[parent]) {
			break
		}
		q.pending[i], q.pending[parent] = q.pending[parent], q.pending[i]
		i = parent
	}
}

func (q *Queue) popPending() pendingAdm {
	top := q.pending[0]
	last := len(q.pending) - 1
	q.pending[0] = q.pending[last]
	q.pending[last] = pendingAdm{}
	q.pending = q.pending[:last]
	i, n := 0, last
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && pendingLess(q.pending[right], q.pending[left]) {
			least = right
		}
		if !pendingLess(q.pending[least], q.pending[i]) {
			break
		}
		q.pending[i], q.pending[least] = q.pending[least], q.pending[i]
		i = least
	}
	return top
}

func pendingLess(a, b pendingAdm) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Pending returns how many deferred admissions are still waiting for
// their due time.
func (q *Queue) Pending() int { return len(q.pending) }

// Admitted returns how many submissions the queue has accepted so far.
func (q *Queue) Admitted() int { return q.admitted }

// Completed returns how many submissions have delivered a result.
func (q *Queue) Completed() int { return q.ndone }

// Outstanding returns admitted-but-unfinished submissions (queued or
// running).
func (q *Queue) Outstanding() int { return q.admitted - q.ndone }

// Submissions returns the queue's live submission slice in admission
// order. Under DiscardSettled completed entries may already be compacted
// away.
func (q *Queue) Submissions() []*Submission { return q.subs }

// Now returns the current simulated time of the queue's engine.
func (q *Queue) Now() float64 { return q.eng.Now() }

// TimelineEntry is one named perturbation on a queue's event timeline.
type TimelineEntry struct {
	T    float64 // simulated time the event fires
	Name string
}

// At schedules a named perturbation at absolute simulated time t,
// recording it on the queue's timeline. An event due at or before the
// current time runs synchronously, so a perturbation declared for the
// start is already in force when the first job is admitted.
func (q *Queue) At(t float64, name string, fn func()) {
	now := q.eng.Now()
	if t <= now {
		q.timeline = append(q.timeline, TimelineEntry{T: now, Name: name})
		if tr := q.tracker.Tracer(); tr != nil {
			tr.Instant(name, "event", 0, now)
		}
		fn()
		return
	}
	q.timeline = append(q.timeline, TimelineEntry{T: t, Name: name})
	q.eng.Schedule(t-now, func() {
		// Admissions due at exactly this instant start first: the
		// per-submission timers this queue used to schedule at trace-build
		// time carried earlier sequence numbers than any timeline event
		// sharing their timestamp, and the single re-armed timer must
		// preserve that arrival-before-perturbation order.
		q.drainDueAdmissions()
		if tr := q.tracker.Tracer(); tr != nil {
			tr.Instant(name, "event", 0, q.eng.Now())
		}
		fn()
	})
}

// Timeline returns the recorded perturbation events sorted by time
// (insertion order on ties).
func (q *Queue) Timeline() []TimelineEntry {
	out := append([]TimelineEntry(nil), q.timeline...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// NodeDown routes a node failure to the task tracker: attempts on the
// node are killed and requeued on healthy nodes (see
// TaskTracker.NodeDown). Pair it with dfs.FS.NodeDown and
// cluster.Cluster.NodeDown for the full failure perturbation.
func (q *Queue) NodeDown(node int) { q.tracker.NodeDown(node) }

// NodesDown routes a correlated multi-node failure (a rack event) to the
// tracker in one pass: every node is excluded before any requeue places a
// replacement attempt (see TaskTracker.NodesDown).
func (q *Queue) NodesDown(nodes []int) { q.tracker.NodesDown(nodes) }

// NodeUp returns a failed node to scheduling service.
func (q *Queue) NodeUp(node int) { q.tracker.NodeUp(node) }

// SetTopology installs the node -> rack map for the tracker's
// rack-exclusion placement tier.
func (q *Queue) SetTopology(rackOf []int) { q.tracker.SetTopology(rackOf) }

// SlotSeconds returns the simulated slot-seconds s's attempts have held —
// the raw material of the scenario report's slot-occupancy shares.
func (q *Queue) SlotSeconds(s *Submission) float64 { return q.tracker.SlotSeconds(s.handle) }

// GrowPool widens the slot pool named kind to perNode slots per node. It
// reports whether the pool existed; growing a pool no engine has created
// yet is a no-op (pool kinds are engine-owned).
func (q *Queue) GrowPool(kind string, perNode int) bool {
	sp, ok := q.pools.Get(kind)
	if !ok {
		return false
	}
	sp.Grow(perNode)
	return true
}

// ShrinkPool narrows the slot pool named kind to perNode slots per node,
// draining lazily (see SlotPool.Shrink). It reports whether the pool
// existed.
func (q *Queue) ShrinkPool(kind string, perNode int) bool {
	sp, ok := q.pools.Get(kind)
	if !ok {
		return false
	}
	sp.Shrink(perNode)
	return true
}

// Run drives the simulation until every admitted job completes and returns
// the live submissions' results in admission order. Completion is tracked
// by counter, so the unfinished-job scan below runs only when a job
// actually failed to complete (a simulation deadlock), in which case it
// reports the engine error in that job's result. Under DiscardSettled the
// slice covers only submissions still live at the end; streaming callers
// consume results through OnComplete instead.
func (q *Queue) Run() []job.Result {
	err := q.eng.Run()
	if q.ndone < q.admitted || err != nil {
		for _, s := range q.subs {
			if !s.done && s.res.Err == nil {
				if err != nil {
					s.res.Err = fmt.Errorf("sched: job %s did not complete: %w", s.name, err)
				} else {
					s.res.Err = fmt.Errorf("sched: job %s did not complete", s.name)
				}
			}
		}
	}
	out := make([]job.Result, len(q.subs))
	for i, s := range q.subs {
		out[i] = s.res
	}
	return out
}
