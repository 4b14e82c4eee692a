package sched

import (
	"fmt"
	"math"
	"slices"
)

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
	// A failed task settles, and settle may compact t.tasks in place, so
	// the walk runs over a copy.
	for _, task := range slices.Clone(t.tasks) {
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
		if live(task) {
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

// live reports whether some attempt of task is neither finished nor
// killed: one that may still settle it.
func live(task *trackedTask) bool {
	for _, a := range task.attempts {
		if !a.finished && !a.killed {
			return true
		}
	}
	return false
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
