package sched

import (
	"cmp"
	"math"
	"slices"
)

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

// tick is one monitor pass: speculation, then preemption, each over the
// running list only.
func (t *TaskTracker) tick() {
	t.timer = nil
	if t.outstanding == 0 {
		return
	}
	if t.runHoles > 0 || t.runUnsorted {
		t.tidyRunning()
	}
	if t.spec.Enabled {
		t.speculate()
	}
	if t.pre.Enabled {
		t.preempt()
	}
	t.arm()
}

// runKey is an attempt's place in the running list: task launch order,
// then attempt index.
func runKey(a *Attempt) int64 { return int64(a.task.seq)<<32 | int64(a.index) }

// startRunning appends an attempt whose slot was just granted to the
// running list. Grants come mostly in launch order, so the list mostly
// stays sorted.
func (t *TaskTracker) startRunning(a *Attempt) {
	if k := runKey(a); k > t.runMax {
		t.runMax = k
	} else {
		t.runUnsorted = true
	}
	a.run = int32(len(t.running))
	t.running = append(t.running, a)
}

// stopRunning leaves a hole where a finished or unwound attempt was.
func (t *TaskTracker) stopRunning(a *Attempt) {
	t.running[a.run] = nil
	t.runHoles++
	if t.runHoles > 64 && t.runHoles*2 > len(t.running) {
		t.tidyRunning()
	}
}

// tidyRunning closes the running list's holes and restores its order.
func (t *TaskTracker) tidyRunning() {
	t.running = slices.DeleteFunc(t.running, func(a *Attempt) bool { return a == nil })
	if t.runUnsorted {
		slices.SortFunc(t.running, func(a, b *Attempt) int { return cmp.Compare(runKey(a), runKey(b)) })
	}
	t.runHoles, t.runMax, t.runUnsorted = 0, 0, false
	for i, a := range t.running {
		a.run = int32(i)
	}
	if n := len(t.running); n > 0 {
		t.runMax = runKey(t.running[n-1])
	}
}

// speculate scans running attempts for stragglers and launches backup
// attempts on alternate nodes, at most one per task and tick; an attempt
// cancelled from outside but not yet unwound is no straggler. spawn only
// schedules the backup's proc, so the running list cannot change under
// the walk.
func (t *TaskTracker) speculate() {
	now := t.eng.Now()
	var last *trackedTask // the task this tick last launched a backup for
	for _, a := range t.running {
		task := a.task
		if task == last || task.settled || a.proc.Cancelled() || !task.spec.Restartable || int(task.backups) >= t.spec.MaxBackupsPerTask {
			continue
		}
		// MinCompleted is at least 1, so a group no attempt has won yet
		// waits here.
		g := task.group
		if g.rates.n() < t.spec.MinCompleted {
			continue
		}
		elapsed := now - a.start
		// Judge only attempts that have outlived both the grace period
		// and the median task: a healthy attempt mid-run reads slow on
		// coarse milestone progress, but it also finishes near the
		// median, so age gates the false positives out.
		if elapsed < t.spec.MinRuntime || elapsed < g.durs.median() {
			continue
		}
		if a.progress/elapsed >= t.spec.SlowFraction*g.rates.median() {
			continue
		}
		node := t.backupNode(task)
		if node < 0 {
			continue
		}
		last = task
		task.backups++
		t.stats.Backups++
		if t.tr != nil {
			t.tr.Instant("speculate:"+task.spec.Name, "sched", node, now)
		}
		t.spawn(task, node, true)
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
// requeues the task on its preferred node. An attempt cancelled from
// outside but not yet unwound is no victim: its kill fails its task.
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
		for _, a := range t.running {
			task := a.task
			if a.node != node || task.settled || a.proc.Cancelled() || !task.spec.Restartable || task.spec.Pool != pool {
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
			if victim == nil || a.start >= victim.start {
				victim = a
			}
		}
		if victim == nil {
			continue
		}
		vtask := victim.task
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
