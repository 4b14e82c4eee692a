package sched

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/trace"
)

// SpeculationConfig tunes straggler detection and speculative backup
// attempts (Hadoop's speculative execution, paper Section 2.1). The zero
// value disables speculation; enabling it fills unset knobs with the
// defaults documented per field.
type SpeculationConfig struct {
	// Enabled turns the straggler monitor on.
	Enabled bool
	// SlowFraction flags a running attempt whose progress rate falls below
	// this fraction of the job's median completed-attempt rate (default
	// 0.5). Rates are progress per simulated second; a completed attempt's
	// rate is 1/duration.
	SlowFraction float64
	// MinRuntime is the age below which an attempt is never judged
	// (default 10s), mirroring Hadoop's speculative-execution grace.
	MinRuntime float64
	// CheckInterval is the monitor period (default 5s).
	CheckInterval float64
	// MaxBackupsPerTask caps speculative attempts per task (default 1).
	MaxBackupsPerTask int
	// MinCompleted is how many attempts of a task's group must have
	// finished before the group's median is trusted (default 3).
	MinCompleted int
}

func (c SpeculationConfig) withDefaults() SpeculationConfig {
	if c.SlowFraction <= 0 {
		c.SlowFraction = 0.5
	}
	if c.MinRuntime <= 0 {
		c.MinRuntime = 10
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = 5
	}
	if c.MaxBackupsPerTask <= 0 {
		c.MaxBackupsPerTask = 1
	}
	if c.MinCompleted <= 0 {
		c.MinCompleted = 3
	}
	return c
}

// PreemptionConfig tunes slot preemption under the Fair policy: when a
// starved job has waited past Patience while holding less than its
// weighted fair share, the tracker kills the newest restartable attempt
// of an over-share job on the starved node and requeues the task. The
// zero value disables preemption.
type PreemptionConfig struct {
	// Enabled turns the preemption monitor on.
	Enabled bool
	// Patience is how long a waiter must starve before the tracker kills
	// for it (default 30s).
	Patience float64
	// CheckInterval is the monitor period (default 5s).
	CheckInterval float64
}

func (c PreemptionConfig) withDefaults() PreemptionConfig {
	if c.Patience <= 0 {
		c.Patience = 30
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = 5
	}
	return c
}

// TaskSpec describes one logical task routed through the TaskTracker.
// The engine supplies restartable callbacks; the tracker owns the attempt
// lifecycle around them.
type TaskSpec struct {
	// Name is the task's process name; backup and requeued attempts get a
	// "#<index>" suffix.
	Name string
	// Node is the preferred node (from the Placer) for the first attempt
	// and for requeued attempts after preemption.
	Node int
	// Pool supplies the task's slot; Handle is the owning job (injected by
	// JobControl.Launch).
	Pool   *SlotPool
	Handle *JobHandle
	// Group keys straggler statistics: attempts are judged against the
	// median rate of completed attempts with the same (job, Group), e.g.
	// all of one job's map tasks.
	Group string
	// Restartable marks the Body safe to run more than once (it re-derives
	// everything from immutable inputs and publishes results only through
	// Done). Only restartable tasks get speculative backups or are
	// preemption victims.
	Restartable bool
	// Retryable marks a task the tracker may re-execute after a node
	// failure even though it must never be speculated or preempted —
	// re-execution needs engine-side recovery (DataMPI's A ranks replay
	// the O side into a re-homed rank), so a gratuitous backup or a
	// preemption kill would be wrong, but losing the node is survivable.
	// Restartable implies Retryable.
	Retryable bool
	// PreRetry, when set, runs in kernel context just before the tracker
	// respawns this task after a node failure, before the replacement node
	// is chosen — the engine's chance to make room, e.g. widening a
	// gang-scheduled slot pool so a re-homed rank can acquire a slot that
	// the failure removed from service.
	PreRetry func()
	// CommitFS, when set, arms the attempt-scoped output committer: the
	// Body (or Done) writes DFS output through Attempt.ScopedPath, and the
	// tracker renames the winning attempt's files to their final names
	// after Done succeeds — and deletes every other attempt's temp files —
	// so DFS-writing tasks can race speculative backups with exactly-once
	// committed output.
	CommitFS CommitFS
	// Pre runs in an attempt's proc before slot acquisition (e.g. the
	// reduce slow-start wait) until one attempt passes it. Returning true
	// skips the task: Final runs, Body/Done/Fail do not. Attempts spawned
	// after the gate was passed (speculative backups, preemption requeues)
	// never run Pre; an attempt killed *inside* Pre — say by node failure —
	// leaves the gate unpassed, so its retry takes the gate again.
	Pre func(p *sim.Proc) bool
	// Body executes one attempt and returns the task's result. It must be
	// side-effect-free on shared job state when Restartable (losing
	// attempts are cancelled mid-flight and their partial work discarded).
	// Long-running bodies should call att.Report at milestones so the
	// straggler monitor sees progress.
	Body func(p *sim.Proc, att *Attempt) (any, error)
	// Done runs exactly once per task, in the winning attempt's proc while
	// it still holds its slot: output commit (may consume simulated time)
	// and job accounting. A non-nil error fails the task.
	Done func(p *sim.Proc, v any, att *Attempt) error
	// Fail runs exactly once if the winning attempt's Body or Done errored.
	Fail func(err error)
	// Final runs exactly once per task, after the slot is released — the
	// engine's completion bookkeeping (e.g. WaitGroup.Done).
	Final func()
}

// CommitFS is the filesystem surface the attempt-scoped output committer
// needs: atomic rename of a temp file to its final name, and deletion of
// an abandoned temp file. dfs.FS implements it.
type CommitFS interface {
	CommitAttempt(temp, final string) error
	Delete(name string)
}

// attemptOutput is one file an attempt wrote to its scoped temp path,
// awaiting commit (winner) or discard (everyone else).
type attemptOutput struct {
	temp, final string
}

// Attempt is one execution of a task on one node. The tracker records its
// start time and progress to detect stragglers.
type Attempt struct {
	task     *trackedTask
	proc     *sim.Proc
	node     int
	index    int
	uid      int64 // tracker-global attempt id, scoping temp output paths
	backup   bool
	start    float64
	end      float64
	progress float64
	started  bool // slot granted, body running
	finished bool
	killed   bool
	won      bool
	done     bool // proc has fully unwound; no code path touches this attempt again
	outputs  []attemptOutput

	// Tracing state, nil/zero when tracing is off: the attempt's span
	// (opened at slot grant, closed as the proc unwinds) and the slot
	// lane it renders on. tr is the tracker's tracer, captured at spawn
	// so Report can record progress without reaching back.
	tr   *trace.Tracer
	span *trace.Span
	lane int
}

// TraceSpan returns the attempt's trace span (nil when tracing is off
// or the slot has not been granted yet). Engines use it to parent
// their fetch spans and wire dependency edges.
func (a *Attempt) TraceSpan() *trace.Span { return a.span }

// Tracer returns the recorder the attempt runs under (nil when tracing
// is off) so task bodies can open their own child spans.
func (a *Attempt) Tracer() *trace.Tracer { return a.tr }

// Node returns the node this attempt runs on.
func (a *Attempt) Node() int { return a.node }

// Index returns the attempt's ordinal within its task (0 = original).
func (a *Attempt) Index() int { return a.index }

// Backup reports whether this is a speculative backup attempt.
func (a *Attempt) Backup() bool { return a.backup }

// Report records the attempt's progress as a fraction in [0,1]. Progress
// is monotonic; stale or out-of-range reports are clamped. With tracing
// on, each milestone that advances progress lands on the span's args.
func (a *Attempt) Report(frac float64) {
	if frac > 1 {
		frac = 1
	}
	if frac > a.progress {
		a.progress = frac
		if a.tr != nil && a.span != nil {
			a.span.Annotate("p", strconv.FormatFloat(frac, 'f', 2, 64))
		}
	}
}

// ScopedPath maps a final output name to this attempt's private temp path
// and registers the pair for commit: the tracker renames the temp file to
// final when this attempt wins its task (after Done succeeds) and deletes
// it on every other outcome. The task's spec must carry a CommitFS.
func (a *Attempt) ScopedPath(final string) string {
	temp := fmt.Sprintf("/_tmp/attempt-%d%s", a.uid, final)
	a.outputs = append(a.outputs, attemptOutput{temp: temp, final: final})
	return temp
}

type trackedTask struct {
	spec       TaskSpec
	group      *groupStat // the straggler statistics of the task's job and group
	attempts   []*Attempt
	settled    bool // a result (or skip/failure) has been delivered
	gatePassed bool // some attempt made it through Pre (or there is none)
	backups    int32
	retries    int32 // node-failure requeues so far (maxRetries caps it)
}

// TrackerStats counts lifecycle events for reporting.
type TrackerStats struct {
	Tasks           int // logical tasks launched
	Backups         int // speculative backup attempts spawned
	BackupWins      int // tasks won by a backup attempt
	Kills           int // attempts cancelled (lost races, preemptions, node loss)
	Preemptions     int // attempts killed (and requeued) to feed a starved job
	Retries         int // attempts requeued on a healthy node after node failure
	Recomputes      int // settled tasks re-executed to regenerate lost outputs
	PermanentFails  int // tasks failed for good after maxRetries node-failure retries
	CacheRecomputes int // cached partitions recomputed after executor-cache loss
}

// String renders the counters every report prints as one line. The
// receiver is a pointer so that a TrackerStats value under %v or %+v still
// prints field by field, which bench/'s sim_digest hashes.
func (st *TrackerStats) String() string {
	return fmt.Sprintf("tracker: %d tasks, %d backups (%d wins), %d kills, %d preemptions, %d retries",
		st.Tasks, st.Backups, st.BackupWins, st.Kills, st.Preemptions, st.Retries)
}

// Node-failure retry pacing: the first requeue is immediate (a single
// clean failure loses no time), later ones back off exponentially so a
// flapping node cannot pin a task in a tight kill/respawn cycle, and past
// maxRetries requeues the task fails permanently (Fail/Final run,
// PermanentFails counted) instead of chasing a flapping node forever.
const (
	maxRetries       = 8
	retryBackoffBase = 2.0  // seconds, second retry
	retryBackoffCap  = 16.0 // seconds
)

// TaskTracker owns task attempts for every job admitted to one queue: it
// records per-attempt start time and progress, launches speculative
// backups for stragglers, resolves first-finisher-wins with loser
// cancellation, and preempts over-share jobs under the Fair policy. With
// speculation and preemption disabled it adds no simulation events, so a
// job's timing depends only on its engine, its tasks and the slot pools.
type TaskTracker struct {
	eng   *sim.Engine
	spec  SpeculationConfig
	pre   PreemptionConfig
	tasks []*trackedTask // unsettled tasks, launch order (compacted by tick)
	pools []*SlotPool
	seen  map[*SlotPool]bool

	// groups accumulates completed-attempt rates and durations per
	// (job, kind) as tasks settle, so monitor ticks never rescan history.
	// Each stat keeps its samples sorted, so a tick reads a median by
	// index instead of re-sorting the group's full win history. hgroups
	// remembers each job's group keys so ReleaseHandle can drop its
	// statistics without a map scan.
	groups  map[groupKey]*groupStat
	hgroups map[*JobHandle][]string

	// down marks failed nodes: no attempt is placed there and attempts
	// caught on one are killed and requeued (NodeDown).
	down map[int]bool

	// rackOf maps node -> rack when the cluster has a topology
	// (SetTopology); nil means no rack information. Placement gains a
	// rack-exclusion tier: retries and backups prefer racks no attempt
	// of the task has touched. On a single rack the tier collapses to
	// the node-level logic bit for bit.
	rackOf []int

	// slotSec integrates per-job slot occupancy (simulated seconds an
	// attempt held a slot), accrued as each attempt releases — the
	// scenario report's slot-share accounting. Pure bookkeeping: it adds
	// no simulation events.
	slotSec map[*JobHandle]float64

	outstanding int
	settledLive int   // settled tasks still in the scan set, compacted amortized
	nextUID     int64 // attempt ids, scoping temp output paths
	timer       *sim.Timer
	stats       TrackerStats

	// tr records the attempt lifecycle as spans and instants when set.
	// Tracing is pure observation — it reads the simulated clock at
	// existing lifecycle boundaries and never adds simulation events —
	// so a traced run stays bit-identical to an untraced one.
	tr *trace.Tracer

	// apool is the attempt free list. Attempts are recycled only at tick
	// compaction, and only from settled tasks whose every attempt has
	// fully unwound (done) — a deterministic lifecycle boundary, so
	// pooling cannot perturb the simulation.
	apool []*Attempt
}

// groupKey scopes straggler statistics to one job's task kind.
type groupKey struct {
	h     *JobHandle
	group string
}

type groupStat struct{ rates, durs runningMedian }

// runningMedian keeps a stream's samples sorted, so its median — the
// lower middle, the (n-1)/2-th smallest — is one index away. A straggler
// group holds at most a few hundred samples (127 in the benchmark
// workloads), where a binary search and a slice insert are all it takes.
type runningMedian struct{ s []float64 }

func (m *runningMedian) n() int { return len(m.s) }

func (m *runningMedian) add(x float64) {
	i, _ := slices.BinarySearch(m.s, x)
	m.s = slices.Insert(m.s, i, x)
}

func (m *runningMedian) median() float64 { return m.s[(len(m.s)-1)/2] }

// NewTaskTracker creates a tracker over the simulation engine. The zero
// configs disable speculation and preemption.
func NewTaskTracker(eng *sim.Engine, spec SpeculationConfig, pre PreemptionConfig) *TaskTracker {
	t := &TaskTracker{
		eng:     eng,
		seen:    make(map[*SlotPool]bool),
		groups:  make(map[groupKey]*groupStat),
		hgroups: make(map[*JobHandle][]string),
		down:    make(map[int]bool),
		slotSec: make(map[*JobHandle]float64),
	}
	t.SetSpeculation(spec)
	t.SetPreemption(pre)
	return t
}

// SetSpeculation installs the speculation config (unset knobs take
// defaults). Call before the simulation runs.
func (t *TaskTracker) SetSpeculation(c SpeculationConfig) {
	if c.Enabled {
		c = c.withDefaults()
	}
	t.spec = c
}

// SetPreemption installs the preemption config (unset knobs take
// defaults). Call before the simulation runs.
func (t *TaskTracker) SetPreemption(c PreemptionConfig) {
	if c.Enabled {
		c = c.withDefaults()
	}
	t.pre = c
}

// Stats returns the lifecycle counters accumulated so far.
func (t *TaskTracker) Stats() TrackerStats { return t.stats }

// SetTracer installs a span recorder for the attempt lifecycle (nil
// turns tracing off). Call before the simulation runs.
func (t *TaskTracker) SetTracer(tr *trace.Tracer) { t.tr = tr }

// Tracer returns the installed tracer (nil when tracing is off).
// Engines read it off their JobControl's tracker so scenario-level
// tracing reaches every engine without per-engine wiring.
func (t *TaskTracker) Tracer() *trace.Tracer { return t.tr }

// NoteRecompute records that an engine re-executed a settled task to
// regenerate output lost with a failed node (a recomputed map, a replayed
// O rank, a regenerated shuffle partition).
func (t *TaskTracker) NoteRecompute() { t.stats.Recomputes++ }

// NoteCacheRecomputes records n cached partitions an engine recomputed
// because the executor holding them died (Spark's cache-loss
// recompute).
func (t *TaskTracker) NoteCacheRecomputes(n int) { t.stats.CacheRecomputes += n }

// SetTopology installs the node -> rack map used by the rack-exclusion
// placement tier. A nil or single-rack map changes nothing.
func (t *TaskTracker) SetTopology(rackOf []int) { t.rackOf = rackOf }

// Launch admits one task and spawns its first attempt on its preferred
// node. The attempt acquires a slot from the task's pool, runs Body, and
// on first finish delivers Done/Fail then Final exactly once.
func (t *TaskTracker) Launch(ts TaskSpec) {
	if ts.Pool == nil || ts.Handle == nil || ts.Body == nil {
		panic("sched: TaskSpec needs Pool, Handle and Body")
	}
	// Amortized compaction on the launch path keeps the scan set bounded
	// by live tasks even when no monitor tick runs (speculation and
	// preemption off): a long trace's settled tasks are recycled here
	// instead of accumulating for the whole run. Pure bookkeeping — it
	// adds no simulation events.
	if t.settledLive > 64 && t.settledLive*2 > len(t.tasks) {
		t.compactTasks()
	}
	task := &trackedTask{spec: ts, group: t.group(ts.Handle, ts.Group)}
	t.tasks = append(t.tasks, task)
	t.outstanding++
	t.stats.Tasks++
	if t.tr != nil {
		t.tr.Counter("tasks.outstanding", 0, t.eng.Now(), float64(t.outstanding))
	}
	if !t.seen[ts.Pool] {
		t.seen[ts.Pool] = true
		t.pools = append(t.pools, ts.Pool)
	}
	t.spawn(task, ts.Node, false)
	t.arm()
}

// spawn starts one attempt of task on node, rerouting to a healthy node
// when the preferred one is down.
func (t *TaskTracker) spawn(task *trackedTask, node int, backup bool) {
	if t.down[node] {
		alt := t.altNode(task)
		if alt < 0 {
			t.failTask(task, fmt.Errorf("sched: no healthy node for task %s (node %d down)", task.spec.Name, node))
			return
		}
		node = alt
	}
	var att *Attempt
	if n := len(t.apool); n > 0 {
		att = t.apool[n-1]
		t.apool[n-1] = nil
		t.apool = t.apool[:n-1]
		outputs := att.outputs[:0] // keep the capacity across reuse
		*att = Attempt{outputs: outputs}
	} else {
		att = &Attempt{}
	}
	att.task, att.node, att.index, att.uid, att.backup = task, node, len(task.attempts), t.nextUID, backup
	t.nextUID++
	task.attempts = append(task.attempts, att)
	name := task.spec.Name
	if att.index > 0 {
		name = fmt.Sprintf("%s#%d", name, att.index)
	}
	att.proc = t.eng.Go(name, func(p *sim.Proc) {
		p.Node = node
		holding := false
		var waitStart float64
		if t.tr != nil {
			waitStart = t.eng.Now()
		}
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if !sim.IsKilled(r) {
				panic(r)
			}
			// Cancelled attempt: the body's own defers have run; hand the
			// slot back (Acquire cleans up after itself if the kill landed
			// while queued), drop any attempt-scoped temp output, and let
			// the proc die.
			att.finished = true
			t.closeAttemptSpan(att, "killed")
			t.discardOutputs(task, att)
			if holding {
				t.releaseSlot(task, att, node)
			}
			att.done = true
		}()
		if task.spec.Pre != nil && !task.gatePassed {
			if task.spec.Pre(p) {
				// Admission gate says skip (e.g. the job already failed):
				// settle without running the body or taking a slot.
				att.finished = true
				t.settle(task)
				if task.spec.Final != nil {
					task.spec.Final()
				}
				att.done = true
				return
			}
			task.gatePassed = true
		}
		task.spec.Pool.Acquire(p, node, task.spec.Handle, "slot")
		holding = true
		att.start = p.Engine().Now()
		att.started = true
		if t.tr != nil {
			// Slot granted: the attempt renders on a per-node slot lane.
			// The wait span covers gate + queue time (admission→dispatch);
			// the task span depends on it so the critical-path walk can
			// descend through scheduling delay.
			att.tr = t.tr
			att.lane = t.tr.AcquireLane(node)
			w := t.tr.Begin(name+".wait", "wait", node, att.lane, waitStart)
			w.EndAt(att.start)
			att.span = t.tr.Begin(name, "task", node, att.lane, att.start)
			att.span.DepOn(w.SpanID()).Annotate("job", task.spec.Handle.name)
			if task.spec.Group != "" {
				att.span.Annotate("group", task.spec.Group)
			}
			if backup {
				att.span.Annotate("backup", "1")
			}
		}
		v, err := task.spec.Body(p, att)
		att.progress = 1
		att.end = p.Engine().Now()
		att.finished = true
		// The task is still unsettled: nothing settles a task under a live
		// attempt but its winner, which cancels every sibling, and a
		// cancelled attempt unwinds at its next park instead of getting here.
		t.settle(task)
		t.cancelSiblings(task, att)
		if err == nil {
			att.won = true
			t.recordWin(task, att)
			if att.backup {
				t.stats.BackupWins++
			}
			if task.spec.Done != nil {
				err = task.spec.Done(p, v, att)
			}
			if err == nil {
				// Output commit: rename the winner's attempt-scoped temp
				// files to their final names — the atomic, exactly-once
				// half of the committer protocol.
				err = t.commitOutputs(task, att)
			}
		}
		if err != nil {
			t.discardOutputs(task, att)
			if task.spec.Fail != nil {
				task.spec.Fail(err)
			}
		}
		t.closeAttemptSpan(att, "")
		t.releaseSlot(task, att, node)
		holding = false
		if task.spec.Final != nil {
			task.spec.Final()
		}
		att.done = true
	})
}

// closeAttemptSpan ends an attempt's trace span (covering body + commit
// while the slot was held), releases its slot lane, and annotates the
// outcome. No-op when tracing is off or the slot was never granted.
func (t *TaskTracker) closeAttemptSpan(att *Attempt, outcome string) {
	if att.span == nil {
		return
	}
	if outcome != "" {
		att.span.Annotate("outcome", outcome)
	}
	if att.won {
		att.span.Annotate("won", "1")
	}
	att.span.EndAt(t.eng.Now())
	t.tr.ReleaseLane(att.node, att.lane)
}

// commitOutputs renames the winning attempt's scoped temp files to their
// final names — pure namenode metadata, no simulated time. An attempt
// that wrote scoped output on a task without a CommitFS is a wiring bug.
func (t *TaskTracker) commitOutputs(task *trackedTask, att *Attempt) error {
	if len(att.outputs) == 0 {
		return nil
	}
	cf := task.spec.CommitFS
	if cf == nil {
		return fmt.Errorf("sched: task %s wrote attempt-scoped output but its spec has no CommitFS", task.spec.Name)
	}
	for _, o := range att.outputs {
		if err := cf.CommitAttempt(o.temp, o.final); err != nil {
			return err
		}
	}
	att.outputs = nil
	return nil
}

// discardOutputs deletes an attempt's scoped temp files (losing, killed
// and failed attempts), releasing their simulated disk usage.
func (t *TaskTracker) discardOutputs(task *trackedTask, att *Attempt) {
	if len(att.outputs) == 0 {
		return
	}
	if cf := task.spec.CommitFS; cf != nil {
		for _, o := range att.outputs {
			cf.Delete(o.temp)
		}
	}
	att.outputs = nil
}

// releaseSlot hands an attempt's slot back, accruing its occupancy to the
// owning job's slot-second integral. Every started attempt passes through
// here exactly once (win, failure or kill unwind).
func (t *TaskTracker) releaseSlot(task *trackedTask, att *Attempt, node int) {
	if att.started {
		t.slotSec[task.spec.Handle] += t.eng.Now() - att.start
	}
	task.spec.Pool.Release(node, task.spec.Handle)
}

// SlotSeconds returns the simulated slot-seconds job h's attempts have
// held so far — winning, losing and killed attempts alike. The scenario
// report derives per-tenant slot-occupancy shares from it.
func (t *TaskTracker) SlotSeconds(h *JobHandle) float64 { return t.slotSec[h] }

// failTask settles a task that can no longer produce a result (e.g. its
// only attempt died with a failed node) and delivers Fail/Final exactly
// once, mirroring the winner path's bookkeeping.
func (t *TaskTracker) failTask(task *trackedTask, err error) {
	if task.settled {
		return
	}
	t.settle(task)
	if task.spec.Fail != nil {
		task.spec.Fail(err)
	}
	if task.spec.Final != nil {
		task.spec.Final()
	}
}

// NodeDown marks node failed for scheduling: every in-flight attempt
// there is killed, and a task left with no live attempt is requeued on a
// healthy node (the excluded-node bookkeeping mirrors speculation's
// alternate-node placement) instead of failing the job. An attempt that
// is neither Restartable nor Retryable and whose body had already started
// cannot be re-executed — its in-flight state died with the node — so its
// task fails; Retryable tasks get their PreRetry hook (room-making, e.g.
// pool growth) before the replacement node is chosen. Later launches and
// backup attempts route around down nodes. Call from kernel context (a
// timeline event), never from a proc running on the dying node.
func (t *TaskTracker) NodeDown(node int) { t.NodesDown([]int{node}) }

// NodesDown fails a set of nodes in one correlated event — a rack losing
// power, a switch partition. Every node is marked down before any attempt
// is killed or requeued, so replacement placement never lands on a
// sibling node that died in the same event; with rack information set the
// requeue prefers racks the task has not touched (rack-level exclusion).
func (t *TaskTracker) NodesDown(nodes []int) {
	fresh := make(map[int]bool, len(nodes))
	for _, node := range nodes {
		if !t.down[node] {
			t.down[node] = true
			fresh[node] = true
			if t.tr != nil {
				t.tr.Instant("node-down", "fault", node, t.eng.Now())
			}
		}
	}
	if len(fresh) == 0 {
		return
	}
	for _, task := range t.tasks {
		if task.settled {
			continue
		}
		var dead []*Attempt
		for _, a := range task.attempts {
			if !a.finished && !a.killed && fresh[a.node] {
				dead = append(dead, a)
			}
		}
		if len(dead) == 0 {
			continue
		}
		for _, a := range dead {
			a.killed = true
			a.proc.Cancel()
			t.stats.Kills++
			if t.tr != nil {
				t.tr.Instant("kill:"+task.spec.Name, "fault", a.node, t.eng.Now())
			}
		}
		live := false
		for _, a := range task.attempts {
			if !a.finished && !a.killed {
				live = true
				break
			}
		}
		if live {
			continue // a healthy sibling attempt still races to settle it
		}
		lost := false
		for _, a := range dead {
			if a.started && !task.spec.Restartable && !task.spec.Retryable {
				lost = true
				break
			}
		}
		node := dead[0].node
		if lost {
			t.failTask(task, fmt.Errorf(
				"sched: node %d failed with non-restartable task %s in flight", node, task.spec.Name))
			continue
		}
		t.requeue(task, node)
	}
}

// NodeUp returns a failed node to scheduling service: later launches,
// retries and backups may be placed there again. In-flight attempts are
// untouched.
func (t *TaskTracker) NodeUp(node int) {
	if t.tr != nil && t.down[node] {
		t.tr.Instant("node-up", "fault", node, t.eng.Now())
	}
	delete(t.down, node)
}

// requeue respawns a task whose every attempt died with its node. The
// retry counter is capped at maxRetries — past the cap the
// task fails permanently instead of chasing a flapping node forever —
// and from the second retry on the respawn backs off exponentially
// (2s, 4s, ... capped at 16s), re-picking the replacement node when the
// timer fires so the choice sees the liveness of that moment. The first
// retry stays immediate: a single clean node failure recovers exactly as
// it did before the cap existed.
func (t *TaskTracker) requeue(task *trackedTask, node int) {
	task.retries++
	if task.retries > maxRetries {
		t.stats.PermanentFails++
		t.failTask(task, fmt.Errorf(
			"sched: task %s failed permanently after %d node-failure retries", task.spec.Name, task.retries-1))
		return
	}
	if task.spec.PreRetry != nil {
		task.spec.PreRetry()
	}
	if task.retries < 2 {
		t.retry(task, node) // synchronous: no event is scheduled
		return
	}
	delay := retryBackoffBase * math.Pow(2, float64(task.retries-2))
	if delay > retryBackoffCap {
		delay = retryBackoffCap
	}
	t.eng.Schedule(delay, func() {
		if !task.settled {
			t.retry(task, node)
		}
	})
}

// retry spawns the next attempt of a task that lost its attempts with
// node on a healthy alternate node, or fails the task when none is left.
func (t *TaskTracker) retry(task *trackedTask, node int) {
	alt := t.altNode(task)
	if alt < 0 {
		t.failTask(task, fmt.Errorf(
			"sched: no healthy node to retry task %s after node %d failure", task.spec.Name, node))
		return
	}
	t.stats.Retries++
	if t.tr != nil {
		t.tr.Instant("retry:"+task.spec.Name, "sched", alt, t.eng.Now())
	}
	t.spawn(task, alt, false)
}

// altNode picks a healthy node for a retried or rerouted attempt: first
// speculation's excluded-node placement (backupNode — no node that
// already hosted an attempt, most free slots), then, unlike a backup, it
// may fall back to any healthy node when every one has hosted an attempt.
// Returns -1 only when the whole cluster is down.
func (t *TaskTracker) altNode(task *trackedTask) int {
	if node := t.backupNode(task); node >= 0 {
		return node
	}
	pool := task.spec.Pool
	best := -1
	for node := 0; node < pool.Nodes(); node++ {
		if t.down[node] {
			continue
		}
		if best < 0 || pool.Free(node) > pool.Free(best) {
			best = node
		}
	}
	return best
}

// settle marks a task resolved and, when it was the last outstanding one,
// cancels the pending monitor tick so the simulation clock is not held
// open past job completion.
func (t *TaskTracker) settle(task *trackedTask) {
	task.settled = true
	t.settledLive++
	t.outstanding--
	if t.tr != nil {
		t.tr.Counter("tasks.outstanding", 0, t.eng.Now(), float64(t.outstanding))
	}
	if t.outstanding == 0 && t.timer != nil {
		t.timer.Cancel()
		t.timer = nil
	}
}

// group returns the straggler statistics of job h's tasks of group,
// made empty for the first of them. A task holds its group's from
// launch, so no monitor tick looks one up.
func (t *TaskTracker) group(h *JobHandle, group string) *groupStat {
	key := groupKey{h, group}
	g := t.groups[key]
	if g == nil {
		g = &groupStat{}
		t.groups[key] = g
		t.hgroups[h] = append(t.hgroups[h], group)
	}
	return g
}

// recordWin folds the winning attempt's rate and duration into its
// group's straggler statistics.
func (t *TaskTracker) recordWin(task *trackedTask, att *Attempt) {
	d := att.end - att.start
	if d <= 0 {
		d = 1e-9
	}
	task.group.rates.add(1 / d)
	task.group.durs.add(d)
}

// ReleaseHandle drops every per-job accumulator kept under h — straggler
// statistics and slot-second integration — once the job has completed and
// its accounting has been read. The queue's DiscardSettled mode calls it
// per completion so tracker memory stays proportional to running jobs. By
// the time a job's done callback fires every attempt has fully unwound
// (losers are cancelled and unwind before the driver finishes), so
// nothing can accrue under the handle afterwards.
func (t *TaskTracker) ReleaseHandle(h *JobHandle) {
	for _, group := range t.hgroups[h] {
		delete(t.groups, groupKey{h, group})
	}
	delete(t.hgroups, h)
	delete(t.slotSec, h)
}

// cancelSiblings kills every other in-flight attempt of a settled task.
func (t *TaskTracker) cancelSiblings(task *trackedTask, winner *Attempt) {
	for _, sib := range task.attempts {
		if sib == winner || sib.finished {
			continue
		}
		sib.killed = true
		sib.proc.Cancel()
		t.stats.Kills++
	}
}

// interval returns the monitor period, 0 when nothing is enabled.
func (t *TaskTracker) interval() float64 {
	iv := math.Inf(1)
	if t.spec.Enabled {
		iv = math.Min(iv, t.spec.CheckInterval)
	}
	if t.pre.Enabled {
		iv = math.Min(iv, t.pre.CheckInterval)
	}
	if math.IsInf(iv, 1) {
		return 0
	}
	return iv
}

// arm schedules the next monitor tick if monitoring is enabled and a tick
// is not already pending. The monitor disarms itself whenever no task is
// outstanding so the event queue can drain (Launch re-arms it).
func (t *TaskTracker) arm() {
	if t.timer != nil || t.eng == nil || t.outstanding == 0 {
		return
	}
	iv := t.interval()
	if iv <= 0 {
		return
	}
	t.timer = t.eng.Schedule(iv, t.tick)
}

func (t *TaskTracker) tick() {
	t.timer = nil
	if t.outstanding == 0 {
		return
	}
	t.compactTasks()
	if t.spec.Enabled {
		t.speculate()
	}
	if t.pre.Enabled {
		t.preempt()
	}
	t.arm()
}

// compactTasks removes settled tasks from the scan set (launch order
// preserved): the monitors only care about live attempts, and
// completed-task statistics already live in t.groups. Attempts of a
// settled task whose procs have all fully unwound can never be referenced
// again — the deterministic boundary at which they return to the free
// list.
func (t *TaskTracker) compactTasks() {
	live := t.tasks[:0]
	for _, task := range t.tasks {
		if !task.settled {
			live = append(live, task)
			continue
		}
		t.recycleAttempts(task)
	}
	for i := len(live); i < len(t.tasks); i++ {
		t.tasks[i] = nil
	}
	t.tasks = live
	t.settledLive = 0
}

// recycleAttempts returns a settled task's attempts to the free list,
// provided every one of them has fully unwound (a still-unwinding kill
// keeps the whole set alive — it will simply be collected by the GC
// instead).
func (t *TaskTracker) recycleAttempts(task *trackedTask) {
	for _, a := range task.attempts {
		if !a.done {
			return
		}
	}
	for i, a := range task.attempts {
		a.task, a.proc = nil, nil
		t.apool = append(t.apool, a)
		task.attempts[i] = nil
	}
	task.attempts = nil
}

// speculate scans running attempts for stragglers and launches backup
// attempts on alternate nodes.
func (t *TaskTracker) speculate() {
	now := t.eng.Now()
	for _, task := range t.tasks {
		if task.settled || !task.spec.Restartable || int(task.backups) >= t.spec.MaxBackupsPerTask {
			continue
		}
		// MinCompleted is at least 1, so a group no attempt has won yet
		// waits here.
		g := task.group
		if g.rates.n() < t.spec.MinCompleted {
			continue
		}
		medianRate, medianDur := g.rates.median(), g.durs.median()
		for _, a := range task.attempts {
			if !a.started || a.finished {
				continue
			}
			elapsed := now - a.start
			// Judge only attempts that have outlived both the grace period
			// and the median task: a healthy attempt mid-run reads slow on
			// coarse milestone progress, but it also finishes near the
			// median, so age gates the false positives out.
			if elapsed < t.spec.MinRuntime || elapsed < medianDur {
				continue
			}
			if a.progress/elapsed >= t.spec.SlowFraction*medianRate {
				continue
			}
			node := t.backupNode(task)
			if node < 0 {
				continue
			}
			task.backups++
			t.stats.Backups++
			if t.tr != nil {
				t.tr.Instant("speculate:"+task.spec.Name, "sched", node, now)
			}
			t.spawn(task, node, true)
			break
		}
	}
}

// backupNode picks the node for a speculative attempt: not yet used by
// any attempt of the task and not down, preferring the most free slots
// (lowest index on ties). Returns -1 when every healthy node already
// hosts an attempt. With rack information installed a node in a rack no
// attempt has touched wins over the rest, so a retry escapes a failing
// rack, not just a failing node — on a single rack no such node exists
// and the plain choice stands.
func (t *TaskTracker) backupNode(task *trackedTask) int {
	used := make(map[int]bool, len(task.attempts))
	var usedRacks map[int]bool
	if t.rackOf != nil {
		usedRacks = make(map[int]bool, len(task.attempts))
	}
	for _, a := range task.attempts {
		used[a.node] = true
		if usedRacks != nil && a.node < len(t.rackOf) {
			usedRacks[t.rackOf[a.node]] = true
		}
	}
	pool := task.spec.Pool
	best, bestOff := -1, -1 // bestOff: best candidate in an untouched rack
	for node := 0; node < pool.Nodes(); node++ {
		if used[node] || t.down[node] {
			continue
		}
		if best < 0 || pool.Free(node) > pool.Free(best) {
			best = node
		}
		if usedRacks == nil || (node < len(t.rackOf) && usedRacks[t.rackOf[node]]) {
			continue
		}
		if bestOff < 0 || pool.Free(node) > pool.Free(bestOff) {
			bestOff = node
		}
	}
	if bestOff >= 0 {
		return bestOff
	}
	return best
}

// preempt reclaims slots for starved jobs in Fair pools: it kills the
// newest restartable attempt of an over-share job on the starved node and
// requeues the task on its preferred node.
func (t *TaskTracker) preempt() {
	now := t.eng.Now()
	for _, pool := range t.pools {
		if pool.Policy() != Fair {
			continue
		}
		starved, node := pool.Starved(now, t.pre.Patience)
		if starved == nil {
			continue
		}
		if pool.Debt(node) > 0 {
			// A shrink is still draining this node: a kill would free a
			// slot only for the debt to retire it, wasting the victim's
			// work with nothing reaching the starved waiter. Hold off
			// until the node is back within its width.
			continue
		}
		var victim *Attempt
		var vtask *trackedTask
		for _, task := range t.tasks {
			if task.settled || !task.spec.Restartable || task.spec.Pool != pool {
				continue
			}
			h := task.spec.Handle
			if h == starved {
				continue
			}
			// The victim's job must stay at or above its weighted fair
			// share after losing one slot — preemption rebalances, it
			// never starves the victim in turn.
			if float64(pool.Held(h)-1) < pool.FairShare(h)-1e-9 {
				continue
			}
			for _, a := range task.attempts {
				if !a.started || a.finished || a.node != node {
					continue
				}
				if victim == nil || a.start >= victim.start {
					victim, vtask = a, task
				}
			}
		}
		if victim == nil {
			continue
		}
		victim.killed = true
		victim.proc.Cancel()
		t.stats.Kills++
		t.stats.Preemptions++
		if t.tr != nil {
			t.tr.Instant("preempt:"+vtask.spec.Name, "sched", node, now)
		}
		t.spawn(vtask, vtask.spec.Node, false)
	}
}
