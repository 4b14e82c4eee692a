package sched

import (
	"fmt"
	"strings"
	"testing"

	"github.com/datampi/datampi-go/internal/sim"
)

// TestPoolSizeMismatchPanics: a second caller asking for a different
// perNode must not silently share the first caller's size.
func TestPoolSizeMismatchPanics(t *testing.T) {
	ps := NewPoolSet(FIFO, 4)
	ps.Pool("map", 4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("mismatched Pool size did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "already sized") {
			t.Fatalf("unhelpful panic: %v", r)
		}
	}()
	ps.Pool("map", 2)
}

// TestPoolGrowGrantsWaiters widens a full pool and checks queued waiters
// get the new slots immediately.
func TestPoolGrowGrantsWaiters(t *testing.T) {
	eng := sim.NewEngine()
	ps := NewPoolSet(FIFO, 1)
	pool := ps.Pool("kind", 1)
	h := &JobHandle{name: "a", weight: 1}
	running := 0
	for i := 0; i < 3; i++ {
		eng.Go("t", func(p *sim.Proc) {
			pool.Acquire(p, 0, h, "slot")
			running++
			p.Sleep(10)
			pool.Release(0, h)
		})
	}
	eng.Schedule(1, func() {
		if running != 1 {
			t.Fatalf("before grow: %d running, want 1", running)
		}
		ps.PoolGrow("kind", 3)
	})
	eng.Schedule(2, func() {
		if running != 3 {
			t.Fatalf("after grow: %d running, want 3", running)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if pool.PerNode() != 3 || pool.Free(0) != 3 {
		t.Fatalf("pool should end wide and free: perNode=%d free=%d", pool.PerNode(), pool.Free(0))
	}
}

// TestWeightedFairShares gives two deeply-backlogged jobs weights 2 and 1
// on a 6-slot node and checks the steady-state slot split is 4:2.
func TestWeightedFairShares(t *testing.T) {
	eng := sim.NewEngine()
	pool := NewSlotPool(Fair, 1, 6)
	a := &JobHandle{name: "a", seq: 0, weight: 2}
	b := &JobHandle{name: "b", seq: 1, weight: 1}
	for _, h := range []*JobHandle{a, b} {
		for i := 0; i < 30; i++ {
			h := h
			eng.Go(h.name, func(p *sim.Proc) {
				pool.Acquire(p, 0, h, "slot")
				p.Sleep(1)
				pool.Release(0, h)
			})
		}
	}
	// Sample mid-run, after the initial FIFO fill has churned through.
	for _, at := range []float64{3.5, 4.5, 5.5} {
		at := at
		eng.Schedule(at, func() {
			if pool.Held(a) != 4 || pool.Held(b) != 2 {
				t.Fatalf("t=%v: held a=%d b=%d, want 4:2 for weights 2:1",
					at, pool.Held(a), pool.Held(b))
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// trackerRig is a minimal testbed for tracker tests: an engine and one
// Fair pool of 1 slot on each of 8 nodes.
func trackerRig() (*sim.Engine, *SlotPool) {
	return sim.NewEngine(), NewSlotPool(Fair, 8, 1)
}

// TestStragglerBackupFirstFinisherWins runs 8 single-slot tasks, one per
// node, with node 0 pathologically slow. The monitor must launch exactly
// one backup, the backup must win, the straggler must be cancelled with
// its cleanup run, and the completion callbacks must fire exactly once.
func TestStragglerBackupFirstFinisherWins(t *testing.T) {
	eng, pool := trackerRig()
	tr := NewTaskTracker(eng, SpeculationConfig{
		Enabled:       true,
		SlowFraction:  0.5,
		MinRuntime:    1,
		CheckInterval: 1,
		MinCompleted:  3,
	}, PreemptionConfig{})
	h := &JobHandle{name: "job", weight: 1}

	doneCount := make([]int, 8)
	finalCount := make([]int, 8)
	cleanups := 0
	var winner *Attempt
	for i := 0; i < 8; i++ {
		i := i
		tr.Launch(TaskSpec{
			Name: "task", Node: i, Pool: pool, Handle: h,
			Group: "g", Restartable: true,
			Body: func(p *sim.Proc, att *Attempt) (any, error) {
				defer func() { cleanups++ }()
				if att.Node() == 0 {
					p.Sleep(100) // straggling node
				} else {
					p.Sleep(10)
				}
				return att.Node(), nil
			},
			Done: func(p *sim.Proc, v any, att *Attempt) error {
				doneCount[i]++
				if i == 0 {
					winner = att
				}
				return nil
			},
			Final: func() { finalCount[i]++ },
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if doneCount[i] != 1 || finalCount[i] != 1 {
			t.Fatalf("task %d: done=%d final=%d, want exactly 1 each", i, doneCount[i], finalCount[i])
		}
	}
	if winner == nil || !winner.Backup() {
		t.Fatalf("task 0 should be won by the backup attempt, got %+v", winner)
	}
	st := tr.Stats()
	if st.Backups != 1 || st.BackupWins != 1 || st.Kills != 1 {
		t.Fatalf("stats = %+v, want 1 backup, 1 win, 1 kill", st)
	}
	// 8 bodies started + 1 backup; every started body ran its deferred
	// cleanup (the cancelled straggler included).
	if cleanups != 9 {
		t.Fatalf("cleanups = %d, want 9 (original attempts + backup, straggler unwound)", cleanups)
	}
	for n := 0; n < 8; n++ {
		if pool.Free(n) != 1 {
			t.Fatalf("node %d leaked a slot: free=%d", n, pool.Free(n))
		}
	}
	if eng.Now() >= 100 {
		t.Fatalf("speculation did not shorten the run: finished at %v", eng.Now())
	}
}

// TestBackupCancelledWhenOriginalWins flags a task as slow, then lets the
// original finish first anyway: the backup must be cancelled and the
// original's result delivered.
func TestBackupCancelledWhenOriginalWins(t *testing.T) {
	eng, pool := trackerRig()
	tr := NewTaskTracker(eng, SpeculationConfig{
		Enabled:       true,
		SlowFraction:  0.5,
		MinRuntime:    1,
		CheckInterval: 1,
		MinCompleted:  3,
	}, PreemptionConfig{})
	h := &JobHandle{name: "job", weight: 1}
	var winners []int
	for i := 0; i < 8; i++ {
		i := i
		tr.Launch(TaskSpec{
			Name: "task", Node: i, Pool: pool, Handle: h,
			Group: "g", Restartable: true,
			Body: func(p *sim.Proc, att *Attempt) (any, error) {
				switch {
				case att.Index() > 0:
					p.Sleep(50) // backups are slower than the "straggler"
				case att.Node() == 0:
					p.Sleep(30) // slow-ish original, but it gets there first
				default:
					p.Sleep(10)
				}
				return i, nil
			},
			Done: func(p *sim.Proc, v any, att *Attempt) error {
				if att.Index() == 0 {
					winners = append(winners, v.(int))
				}
				return nil
			},
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(winners) != 8 {
		t.Fatalf("only %d tasks won by their original attempt, want all 8", len(winners))
	}
	st := tr.Stats()
	if st.Backups != 1 || st.BackupWins != 0 || st.Kills != 1 {
		t.Fatalf("stats = %+v, want the losing backup killed", st)
	}
}

// TestPreemptionKillAndRequeue backs a Fair pool into starvation: job A
// camps on every slot with long tasks, job B arrives later. The monitor
// must kill A's newest attempts until B holds its fair share, requeue the
// preempted tasks, and everything must still complete exactly once.
func TestPreemptionKillAndRequeue(t *testing.T) {
	eng := sim.NewEngine()
	pool := NewSlotPool(Fair, 1, 4)
	tr := NewTaskTracker(eng, SpeculationConfig{},
		PreemptionConfig{Enabled: true, Patience: 5, CheckInterval: 1})
	a := &JobHandle{name: "a", seq: 0, weight: 1}
	b := &JobHandle{name: "b", seq: 1, weight: 1}

	aDone, bDone := 0, 0
	var bFinishedAt float64
	for i := 0; i < 4; i++ {
		tr.Launch(TaskSpec{
			Name: "a-task", Node: 0, Pool: pool, Handle: a,
			Group: "g", Restartable: true,
			Body: func(p *sim.Proc, att *Attempt) (any, error) {
				p.Sleep(200)
				return nil, nil
			},
			Done: func(p *sim.Proc, v any, att *Attempt) error { aDone++; return nil },
		})
	}
	eng.Schedule(10, func() {
		for i := 0; i < 2; i++ {
			tr.Launch(TaskSpec{
				Name: "b-task", Node: 0, Pool: pool, Handle: b,
				Group: "g", Restartable: true,
				Body: func(p *sim.Proc, att *Attempt) (any, error) {
					p.Sleep(5)
					return nil, nil
				},
				Done: func(p *sim.Proc, v any, att *Attempt) error {
					bDone++
					bFinishedAt = eng.Now()
					return nil
				},
			})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if aDone != 4 || bDone != 2 {
		t.Fatalf("aDone=%d bDone=%d, want 4 and 2 (requeued tasks complete)", aDone, bDone)
	}
	st := tr.Stats()
	if st.Preemptions < 2 || st.Kills != st.Preemptions {
		t.Fatalf("stats = %+v, want >=2 preemptions, each a kill-and-requeue", st)
	}
	// Without preemption B would wait for A's 200s tasks; with it B's 5s
	// tasks finish within patience + a few monitor ticks of arrival.
	if bFinishedAt > 40 {
		t.Fatalf("starved job finished at t=%v, preemption did not reclaim slots", bFinishedAt)
	}
	if pool.Free(0) != 4 {
		t.Fatalf("pool leaked slots: free=%d", pool.Free(0))
	}
}

// TestTrackerDisabledAddsNoEvents: with speculation and preemption off the
// tracker must not schedule monitor events (the simulation must drain at
// the last task's completion instant, as pre-tracker engines did).
func TestTrackerDisabledAddsNoEvents(t *testing.T) {
	eng, pool := trackerRig()
	tr := NewTaskTracker(eng, SpeculationConfig{}, PreemptionConfig{})
	h := &JobHandle{name: "job", weight: 1}
	tr.Launch(TaskSpec{
		Name: "only", Node: 0, Pool: pool, Handle: h, Group: "g",
		Body: func(p *sim.Proc, att *Attempt) (any, error) {
			p.Sleep(7)
			return nil, nil
		},
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 7 {
		t.Fatalf("simulation drained at t=%v, want exactly 7", eng.Now())
	}
}

// TestTrackerStatsString: the report line, and a value under %+v still
// field by field (bench/ hashes that form into sim_digest).
func TestTrackerStatsString(t *testing.T) {
	st := TrackerStats{Tasks: 9, Backups: 2, BackupWins: 1, Kills: 3, Preemptions: 4, Retries: 5}
	if got, want := st.String(), "tracker: 9 tasks, 2 backups (1 wins), 3 kills, 4 preemptions, 5 retries"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := fmt.Sprintf("%+v", st); !strings.HasPrefix(got, "{Tasks:9 Backups:2 ") {
		t.Fatalf("%%+v of a value prints %q", got)
	}
}
