package sched

import (
	"strings"
	"testing"

	"github.com/datampi/datampi-go/internal/sim"
)

// TestNodeDownRetriesRunningAttempts fails a node mid-run: the attempts
// caught on it must be killed and requeued on healthy nodes, every task
// must still complete exactly once, and the retries must avoid the dead
// node.
func TestNodeDownRetriesRunningAttempts(t *testing.T) {
	eng, pool := trackerRig()
	tr := NewTaskTracker(eng, SpeculationConfig{}, PreemptionConfig{})
	h := &JobHandle{name: "job", weight: 1}

	doneNodes := make([]int, 8)
	finals := 0
	for i := 0; i < 8; i++ {
		i := i
		tr.Launch(TaskSpec{
			Name: "task", Node: i, Pool: pool, Handle: h,
			Group: "g", Restartable: true,
			Body: func(p *sim.Proc, att *Attempt) (any, error) {
				p.Sleep(20)
				return att.Node(), nil
			},
			Done: func(p *sim.Proc, v any, att *Attempt) error {
				doneNodes[i] = v.(int)
				return nil
			},
			Final: func() { finals++ },
		})
	}
	eng.Schedule(5, func() { tr.NodeDown(3) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if finals != 8 {
		t.Fatalf("finals = %d, want every task to complete exactly once", finals)
	}
	for i, n := range doneNodes {
		if n == 3 {
			t.Fatalf("task %d completed on the dead node", i)
		}
	}
	st := tr.Stats()
	if st.Retries != 1 || st.Kills != 1 {
		t.Fatalf("stats = %+v, want exactly the node-3 attempt killed and retried", st)
	}
	// The retry is requeued at the failure instant (t=5) but every healthy
	// node's single slot is busy until t=20; it then restarts from scratch
	// and finishes at t=40.
	if eng.Now() != 40 {
		t.Fatalf("drained at t=%v, want 40 (retry queued until a slot freed, then re-ran)", eng.Now())
	}
}

// TestNodeDownRequeuesQueuedAttempts: a task whose only attempt is still
// waiting for a slot on the failed node must be requeued even when it is
// not restartable — its body never ran, so nothing is lost.
func TestNodeDownRequeuesQueuedAttempts(t *testing.T) {
	eng := sim.NewEngine()
	pool := NewSlotPool(FIFO, 2, 1)
	tr := NewTaskTracker(eng, SpeculationConfig{}, PreemptionConfig{})
	h := &JobHandle{name: "job", weight: 1}

	ran := make(map[string]int)
	launch := func(name string, node int, restartable bool, d float64) {
		tr.Launch(TaskSpec{
			Name: name, Node: node, Pool: pool, Handle: h,
			Group: "g", Restartable: restartable,
			Body: func(p *sim.Proc, att *Attempt) (any, error) {
				ran[name] = att.Node()
				p.Sleep(d)
				return nil, nil
			},
		})
	}
	launch("holder", 0, true, 50) // occupies node 0's only slot
	launch("queued", 0, false, 5) // waits behind it, never started
	eng.Schedule(10, func() { tr.NodeDown(0) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n, ok := ran["queued"]; !ok || n == 0 {
		t.Fatalf("queued task ran=%v on node %d, want a healthy-node retry", ok, n)
	}
	if n := ran["holder"]; n == 0 {
		t.Fatalf("holder retried on the dead node (%d)", n)
	}
	st := tr.Stats()
	if st.Retries != 2 {
		t.Fatalf("stats = %+v, want both attempts requeued", st)
	}
}

// TestNodeDownFailsStartedNonRestartable: a non-restartable attempt whose
// body already ran on the failed node cannot be re-executed — the task
// must fail, exactly once, instead of deadlocking the job.
func TestNodeDownFailsStartedNonRestartable(t *testing.T) {
	eng, pool := trackerRig()
	tr := NewTaskTracker(eng, SpeculationConfig{}, PreemptionConfig{})
	h := &JobHandle{name: "job", weight: 1}

	var failErr error
	fails, finals := 0, 0
	tr.Launch(TaskSpec{
		Name: "stateful", Node: 2, Pool: pool, Handle: h, Group: "g",
		Body: func(p *sim.Proc, att *Attempt) (any, error) {
			p.Sleep(30)
			return nil, nil
		},
		Fail:  func(err error) { fails++; failErr = err },
		Final: func() { finals++ },
	})
	eng.Schedule(5, func() { tr.NodeDown(2) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fails != 1 || finals != 1 {
		t.Fatalf("fails=%d finals=%d, want exactly one failure delivery", fails, finals)
	}
	if failErr == nil || !strings.Contains(failErr.Error(), "non-restartable") {
		t.Fatalf("unhelpful failure: %v", failErr)
	}
	st := tr.Stats()
	if st.Retries != 0 || st.Kills != 1 {
		t.Fatalf("stats = %+v, want a kill but no retry", st)
	}
}

// TestNodeDownSparesTasksWithLiveSiblings: when a speculative backup on a
// healthy node is already racing, losing the straggler's node must not
// spawn a third attempt.
func TestNodeDownSparesTasksWithLiveSiblings(t *testing.T) {
	eng, pool := trackerRig()
	tr := NewTaskTracker(eng, SpeculationConfig{
		Enabled:       true,
		SlowFraction:  0.5,
		MinRuntime:    1,
		CheckInterval: 1,
		MinCompleted:  3,
	}, PreemptionConfig{})
	h := &JobHandle{name: "job", weight: 1}
	for i := 0; i < 8; i++ {
		tr.Launch(TaskSpec{
			Name: "task", Node: i, Pool: pool, Handle: h,
			Group: "g", Restartable: true,
			Body: func(p *sim.Proc, att *Attempt) (any, error) {
				if att.Node() == 0 && att.Index() == 0 {
					p.Sleep(100) // straggler on node 0
				} else {
					p.Sleep(10)
				}
				return nil, nil
			},
		})
	}
	// Let the backup launch (after medians exist, ~t=12), then fail the
	// straggler's node while the backup is healthy.
	eng.Schedule(14, func() { tr.NodeDown(0) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Backups != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want the existing backup to carry the task with no extra retry", st)
	}
}

// TestNodeDownRetryRetakesPreGate: an attempt killed while parked inside
// its Pre admission gate leaves the gate unpassed, so the retried attempt
// must run Pre again — a slow-start reducer requeued by node failure may
// not jump its admission window.
func TestNodeDownRetryRetakesPreGate(t *testing.T) {
	eng, pool := trackerRig()
	tr := NewTaskTracker(eng, SpeculationConfig{}, PreemptionConfig{})
	h := &JobHandle{name: "job", weight: 1}

	var gate sim.Cond
	open := false
	preRuns, bodyRuns := 0, 0
	tr.Launch(TaskSpec{
		Name: "gated", Node: 1, Pool: pool, Handle: h, Group: "g",
		Restartable: true,
		Pre: func(p *sim.Proc) bool {
			preRuns++
			for !open {
				gate.Wait(p, "gate")
			}
			return false
		},
		Body: func(p *sim.Proc, att *Attempt) (any, error) {
			bodyRuns++
			p.Sleep(1)
			return nil, nil
		},
	})
	eng.Schedule(5, func() { tr.NodeDown(1) }) // kill it mid-Pre
	eng.Schedule(10, func() {
		if bodyRuns != 0 {
			t.Fatalf("body ran before the gate opened (retry skipped Pre)")
		}
		open = true
		gate.Broadcast()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if preRuns != 2 {
		t.Fatalf("Pre ran %d times, want 2 (original + retried attempt)", preRuns)
	}
	if bodyRuns != 1 {
		t.Fatalf("body ran %d times, want 1", bodyRuns)
	}
}

// TestLaunchRoutesAroundDownNode: tasks launched after a failure must not
// be placed on the dead node.
func TestLaunchRoutesAroundDownNode(t *testing.T) {
	eng, pool := trackerRig()
	tr := NewTaskTracker(eng, SpeculationConfig{}, PreemptionConfig{})
	h := &JobHandle{name: "job", weight: 1}
	tr.NodeDown(5)
	got := -1
	tr.Launch(TaskSpec{
		Name: "late", Node: 5, Pool: pool, Handle: h, Group: "g",
		Body: func(p *sim.Proc, att *Attempt) (any, error) {
			got = att.Node()
			return nil, nil
		},
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got == 5 || got < 0 {
		t.Fatalf("attempt ran on node %d, want a healthy reroute", got)
	}
}

// TestMaxRetriesPermanentFailure chases a task with node failures until it
// exhausts its retry budget: the task must fail for good (Fail and Final
// run, PermanentFails counted) instead of retrying forever or deadlocking.
func TestMaxRetriesPermanentFailure(t *testing.T) {
	eng, pool := trackerRig()
	tr := NewTaskTracker(eng, SpeculationConfig{}, PreemptionConfig{})
	h := &JobHandle{name: "job", weight: 1}

	cur := -1
	var failErr error
	finals := 0
	tr.Launch(TaskSpec{
		Name: "doomed", Node: 0, Pool: pool, Handle: h, Group: "g",
		Restartable: true,
		Body: func(p *sim.Proc, att *Attempt) (any, error) {
			cur = att.Node()
			p.Sleep(100)
			return nil, nil
		},
		Fail:  func(err error) { failErr = err },
		Final: func() { finals++ },
	})
	// Kill whichever node the live attempt is on, maxRetries+1 times, 30s
	// apart (longer than the 16s backoff cap, so each kill finds a running
	// retry); the node comes straight back so healthy nodes never run out.
	// The first maxRetries failures spend the budget, the last exceeds it.
	for k := 0; k <= maxRetries; k++ {
		eng.Schedule(5+30*float64(k), func() {
			n := cur
			tr.NodeDown(n)
			tr.NodeUp(n)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if failErr == nil || !strings.Contains(failErr.Error(), "failed permanently") {
		t.Fatalf("want a permanent failure, got %v", failErr)
	}
	if finals != 1 {
		t.Fatalf("finals = %d, want exactly one settlement", finals)
	}
	st := tr.Stats()
	if st.PermanentFails != 1 || st.Retries != maxRetries || st.Kills != maxRetries+1 {
		t.Fatalf("stats = %+v, want 1 permanent fail after %d retries", st, maxRetries)
	}
}

// TestRetryBackoffDelaysRepeatedFailures: the first retry is immediate
// (the single-failure fast path), but the second and third back off
// exponentially (2s, then 4s) before re-dispatching.
func TestRetryBackoffDelaysRepeatedFailures(t *testing.T) {
	eng, pool := trackerRig()
	tr := NewTaskTracker(eng, SpeculationConfig{}, PreemptionConfig{})
	h := &JobHandle{name: "job", weight: 1}

	cur := -1
	tr.Launch(TaskSpec{
		Name: "chased", Node: 0, Pool: pool, Handle: h, Group: "g",
		Restartable: true,
		Body: func(p *sim.Proc, att *Attempt) (any, error) {
			cur = att.Node()
			p.Sleep(100)
			return nil, nil
		},
	})
	eng.Schedule(5, func() { tr.NodeDown(cur) })  // retry 1: immediate
	eng.Schedule(10, func() { tr.NodeDown(cur) }) // retry 2: +2s backoff
	eng.Schedule(20, func() { tr.NodeDown(cur) }) // retry 3: +4s backoff
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Retries != 3 || st.PermanentFails != 0 {
		t.Fatalf("stats = %+v, want 3 retries and no permanent failure", st)
	}
	// Last kill at t=20, 4s backoff, then the body's full 100s from scratch.
	if eng.Now() != 124 {
		t.Fatalf("drained at t=%v, want 124 (20 + 4s backoff + 100s re-run)", eng.Now())
	}
}

// TestNodesDownMassKillRequeuesAcrossRacks fails half the cluster (one
// whole rack) in a single correlated step: every attempt caught in the
// rack is killed and requeued, and with the topology wired the retries
// prefer nodes outside the failed rack.
func TestNodesDownMassKillRequeuesAcrossRacks(t *testing.T) {
	eng, pool := trackerRig()
	tr := NewTaskTracker(eng, SpeculationConfig{}, PreemptionConfig{})
	tr.SetTopology([]int{0, 0, 0, 0, 1, 1, 1, 1})
	h := &JobHandle{name: "job", weight: 1}

	doneNodes := make([]int, 8)
	finals := 0
	for i := 0; i < 8; i++ {
		i := i
		tr.Launch(TaskSpec{
			Name: "task", Node: i, Pool: pool, Handle: h, Group: "g",
			Restartable: true,
			Body: func(p *sim.Proc, att *Attempt) (any, error) {
				p.Sleep(20)
				return att.Node(), nil
			},
			Done: func(p *sim.Proc, v any, att *Attempt) error {
				doneNodes[i] = v.(int)
				return nil
			},
			Final: func() { finals++ },
		})
	}
	eng.Schedule(5, func() { tr.NodesDown([]int{0, 1, 2, 3}) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if finals != 8 {
		t.Fatalf("finals = %d, want every task settled exactly once", finals)
	}
	st := tr.Stats()
	if st.Kills != 4 || st.Retries != 4 {
		t.Fatalf("stats = %+v, want the 4 rack-0 attempts killed and retried", st)
	}
	for i, n := range doneNodes {
		if n < 4 {
			t.Fatalf("task %d completed on failed-rack node %d", i, n)
		}
	}
}

// TestRackExclusionPrefersOtherRack: after one failure in rack 0, the
// retry must land in rack 1 even though other rack-0 nodes are idle —
// correlated failures make same-rack retries a bad bet.
func TestRackExclusionPrefersOtherRack(t *testing.T) {
	eng, pool := trackerRig()
	tr := NewTaskTracker(eng, SpeculationConfig{}, PreemptionConfig{})
	tr.SetTopology([]int{0, 0, 0, 0, 1, 1, 1, 1})
	h := &JobHandle{name: "job", weight: 1}

	got := -1
	tr.Launch(TaskSpec{
		Name: "task", Node: 0, Pool: pool, Handle: h, Group: "g",
		Restartable: true,
		Body: func(p *sim.Proc, att *Attempt) (any, error) {
			p.Sleep(20)
			return att.Node(), nil
		},
		Done: func(p *sim.Proc, v any, att *Attempt) error {
			got = v.(int)
			return nil
		},
	})
	eng.Schedule(5, func() { tr.NodeDown(0) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got < 4 {
		t.Fatalf("retry landed on node %d, want a rack-1 node (4-7)", got)
	}
}
