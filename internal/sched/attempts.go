package sched

import (
	"fmt"
	"slices"

	"github.com/datampi/datampi-go/internal/sim"
)

// Launch admits one task and spawns its first attempt on its preferred
// node. The attempt acquires a slot from the task's pool, runs Body, and
// on first finish delivers Done/Fail then Final exactly once.
func (t *TaskTracker) Launch(ts TaskSpec) {
	if ts.Pool == nil || ts.Handle == nil || ts.Body == nil {
		panic("sched: TaskSpec needs Pool, Handle and Body")
	}
	task := &trackedTask{spec: ts, seq: int32(t.stats.Tasks), group: t.group(ts.Handle, ts.Group)}
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
			t.finish(att)
			t.closeAttemptSpan(att, "killed")
			t.discardOutputs(task, att)
			if holding {
				t.releaseSlot(task, att, node)
			}
			killed := func() error {
				return fmt.Errorf("sched: task %s: attempt %d killed outside the tracker", task.spec.Name, att.index)
			}
			switch {
			case att.won:
				// A winner killed while its Done commits (nothing but an
				// outside kill reaches a settled task's winner): the task
				// settled, but its Fail and Final are still owed.
				if task.spec.Fail != nil {
					task.spec.Fail(killed())
				}
				if task.spec.Final != nil {
					task.spec.Final()
				}
			case !att.killed && !task.settled && !live(task):
				// A kill the tracker did not order: nothing respawns the
				// task, so it fails (see TaskSpec).
				t.failTask(task, killed())
			}
			t.unwound(task, att)
		}()
		if task.spec.Pre != nil && !task.gatePassed {
			if task.spec.Pre(p) {
				// Admission gate says skip (e.g. the job already failed):
				// settle without running the body or taking a slot.
				t.finish(att)
				t.settle(task)
				if task.spec.Final != nil {
					task.spec.Final()
				}
				t.unwound(task, att)
				return
			}
			task.gatePassed = true
		}
		task.spec.Pool.Acquire(p, node, task.spec.Handle, "slot")
		holding = true
		att.start = p.Engine().Now()
		att.started = true
		t.startRunning(att)
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
		t.finish(att)
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
		t.unwound(task, att)
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

// finish marks an attempt finished — its body returned, its gate skipped
// the task, or its kill unwound — and takes it off the running list if
// its slot was granted. A winner killed while its Done commits finishes
// twice; the second call changes nothing.
func (t *TaskTracker) finish(att *Attempt) {
	if att.started && !att.finished {
		t.stopRunning(att)
	}
	att.finished = true
}

// settle marks a task resolved and, when it was the last outstanding one,
// cancels the pending monitor tick so the simulation clock is not held
// open past job completion. Settled tasks leave tasks in amortised
// batches, once they are over an eighth of it, so a settle pays about
// eight moves: pure bookkeeping that keeps tasks close to the unsettled
// ones and adds no simulation events.
func (t *TaskTracker) settle(task *trackedTask) {
	task.settled = true
	t.settledLive++
	if t.settledLive > 64 && t.settledLive*8 > len(t.tasks) {
		t.compactTasks()
	}
	t.outstanding--
	if t.tr != nil {
		t.tr.Counter("tasks.outstanding", 0, t.eng.Now(), float64(t.outstanding))
	}
	if t.outstanding == 0 && t.timer != nil {
		t.timer.Cancel()
		t.timer = nil
	}
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

// compactTasks removes settled tasks from tasks (launch order preserved):
// NodesDown only cares about unsettled tasks, and completed-task
// statistics already live in t.groups.
func (t *TaskTracker) compactTasks() {
	t.tasks = slices.DeleteFunc(t.tasks, func(task *trackedTask) bool { return task.settled })
	t.settledLive = 0
}

// unwound marks att's proc fully unwound: no code path touches the
// attempt again. Once every attempt of a settled task has unwound, the
// attempts return to the free list — a deterministic lifecycle boundary,
// so pooling cannot perturb the simulation.
func (t *TaskTracker) unwound(task *trackedTask, att *Attempt) {
	att.done = true
	if !task.settled {
		return
	}
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
