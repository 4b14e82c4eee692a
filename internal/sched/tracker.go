package sched

import (
	"fmt"
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
	// Fail runs exactly once if the winning attempt's Body or Done errored,
	// or the task failed for good (see NodeDown). An attempt whose proc
	// had started and is killed by anything but the tracker —
	// sim.Engine.CancelAll, as taskrt.Base.RunSolo unwinds a deadlock —
	// fails its task once no other attempt of it is live, and a winner so
	// killed while its Done runs fails its task too: Fail gets an error
	// naming the task and the attempt, then Final runs. An attempt
	// cancelled before its proc first runs never runs its body, so it
	// settles nothing. (The tracker's own kills are a winner cancelling
	// its siblings, a preemption and a node-down requeue.)
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
	start    float64
	end      float64
	progress float64
	run      int32 // its slot in TaskTracker.running while it is on it
	backup   bool
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
	seq        int32 // launch ordinal, the running list's first key (fits the padding)
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
	tasks []*trackedTask // launch order; settle compacts settled ones away, amortised
	pools []*SlotPool
	seen  map[*SlotPool]bool

	// running holds every attempt that has been granted its slot and not
	// yet finished or unwound, ordered by (task launch order, attempt
	// index): the order a walk of tasks and then of their attempts visits
	// them, so the monitor scans only what runs and still meets its
	// candidates in launch order. A grant appends and a finish leaves a
	// nil hole, both O(1); tidyRunning closes the holes (and sorts, after
	// a grant out of launch order) at each tick and whenever holes are
	// half the list.
	running     []*Attempt
	runHoles    int
	runMax      int64 // the largest runKey appended since the last tidy
	runUnsorted bool  // an attempt was appended below runMax

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
	settledLive int   // settled tasks still in tasks, compacted amortised
	nextUID     int64 // attempt ids, scoping temp output paths
	timer       *sim.Timer
	stats       TrackerStats

	// tr records the attempt lifecycle as spans and instants when set.
	// Tracing is pure observation — it reads the simulated clock at
	// existing lifecycle boundaries and never adds simulation events —
	// so a traced run stays bit-identical to an untraced one.
	tr *trace.Tracer

	// apool is the attempt free list, refilled by unwound with a settled
	// task's attempts once every one of them has fully unwound.
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
