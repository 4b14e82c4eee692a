package sched

import (
	"fmt"
	"strings"
	"testing"

	"github.com/datampi/datampi-go/internal/sim"
)

// TestPoolSizeMismatchRefused: a second caller asking for a different
// perNode must not silently share the first caller's size. PoolSet.Pool
// refuses it with nil, and JobControl.Pools turns that into an error that
// names the pool and both widths, creating none of the kinds after it.
func TestPoolSizeMismatchRefused(t *testing.T) {
	ps := NewPoolSet(FIFO, 4)
	sp := ps.Pool("map", 4)
	if got := ps.Pool("map", 2); got != nil {
		t.Fatalf("mismatched Pool size shared a %d-slot pool", got.PerNode())
	}
	if ps.Pool("map", 4) != sp {
		t.Fatal("a matching caller no longer gets the pool")
	}
	ctl := &JobControl{pools: ps}
	pools, err := ctl.Pools(2, "map", "reduce")
	if pools != nil || err == nil || !strings.Contains(err.Error(), `pool "map" is sized at 4 slots/node, this job wants 2`) {
		t.Fatalf("Pools = %v, %v; want an error naming the pool and both widths", pools, err)
	}
	if _, ok := ps.Get("reduce"); ok {
		t.Fatal("Pools created a kind after the mismatched one")
	}
	if pools, err := ctl.Pools(4, "map", "reduce"); err != nil || pools[0] != sp || pools[1].PerNode() != 4 {
		t.Fatalf("Pools = %v, %v; want the map pool and a new 4-slot reduce pool", pools, err)
	}
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
// original's result delivered. In the second case the backup finishes at
// the very instant the original does: the original's wake-up was queued
// first, so it settles the task and the backup, cancelled while parked,
// unwinds instead of delivering a second result.
func TestBackupCancelledWhenOriginalWins(t *testing.T) {
	for _, tc := range []struct {
		name      string
		backupEnd float64 // simulated time a backup's body returns
	}{{"backup slower", 1e9}, {"same instant", 30}} {
		t.Run(tc.name, func(t *testing.T) {
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
			dones := 0
			for i := 0; i < 8; i++ {
				tr.Launch(TaskSpec{
					Name: "task", Node: i, Pool: pool, Handle: h,
					Group: "g", Restartable: true,
					Body: func(p *sim.Proc, att *Attempt) (any, error) {
						switch {
						case att.Index() > 0:
							// backups are no faster than the "straggler"
							p.Sleep(min(50, tc.backupEnd-p.Engine().Now()))
						case att.Node() == 0:
							p.Sleep(30) // slow-ish original, but it gets there first
						default:
							p.Sleep(10)
						}
						return i, nil
					},
					Done: func(p *sim.Proc, v any, att *Attempt) error {
						dones++
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
			if len(winners) != 8 || dones != 8 {
				t.Fatalf("%d tasks won by their original attempt, %d Done calls; want 8 and 8", len(winners), dones)
			}
			st := tr.Stats()
			if st.Backups != 1 || st.BackupWins != 0 || st.Kills != 1 {
				t.Fatalf("stats = %+v, want the losing backup killed", st)
			}
			if eng.Now() != 30 {
				t.Fatalf("drained at t=%v, want 30 (the original's finish)", eng.Now())
			}
		})
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
// the last task's completion instant).
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

// TestExternalKillSettlesTask cancels every proc from outside the tracker
// (sim.Engine.CancelAll, as taskrt.Base.RunSolo unwinds a deadlock) while
// tasks run, wait for a slot, wait at their Pre gate and race speculative
// backups. Every task must settle as failed exactly once, so the monitor
// disarms and the simulation drains.
func TestExternalKillSettlesTask(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec SpeculationConfig
		pre  PreemptionConfig
	}{
		{"speculation", SpeculationConfig{Enabled: true, CheckInterval: 1}, PreemptionConfig{}},
		{"preemption", SpeculationConfig{}, PreemptionConfig{Enabled: true, Patience: 5, CheckInterval: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			pool := NewSlotPool(Fair, 4, 2)
			tr := NewTaskTracker(eng, tc.spec, tc.pre)
			var stuck sim.Cond // nothing signals it
			fails, finals := map[string]int{}, map[string]int{}
			launch := func(name string, h *JobHandle, d float64, pre bool) {
				ts := TaskSpec{
					Name: name, Node: len(finals) % 4, Pool: pool, Handle: h, Group: "g", Restartable: true,
					Body: func(p *sim.Proc, att *Attempt) (any, error) {
						if d > 0 {
							p.Sleep(d)
						} else {
							stuck.Wait(p, "stuck")
						}
						return nil, nil
					},
					Fail: func(err error) {
						if !strings.Contains(err.Error(), "killed outside the tracker") {
							t.Errorf("%s failed with %v", name, err)
						}
						fails[name]++
					},
					Final: func() { finals[name]++ },
				}
				if pre {
					ts.Pre = func(p *sim.Proc) bool { stuck.Wait(p, "gate"); return false }
				}
				finals[name] = 0
				tr.Launch(ts)
			}
			a, b := &JobHandle{name: "a", weight: 1}, &JobHandle{name: "b", weight: 1}
			for i := 0; i < 3; i++ {
				launch(fmt.Sprintf("quick-%d", i), a, 1, false)
			}
			for i := 0; i < 10; i++ {
				launch(fmt.Sprintf("stuck-%d", i), a, 0, false)
			}
			launch("gated", a, 0, true)
			eng.Schedule(8, func() {
				for i := 0; i < 4; i++ {
					launch(fmt.Sprintf("starved-%d", i), b, 0, false)
				}
			})
			if _, err := eng.RunUntil(30); err != nil {
				t.Fatal(err)
			}
			if st := tr.Stats(); st.Backups+st.Preemptions == 0 {
				t.Fatalf("%v: the monitor acted on nothing before the kill", st)
			}
			eng.CancelAll()
			if _, err := eng.RunUntil(1e6); err != nil {
				t.Fatal(err)
			}
			if tr.outstanding != 0 || tr.timer != nil {
				t.Fatalf("%d tasks outstanding, monitor armed=%v, after every attempt was killed", tr.outstanding, tr.timer != nil)
			}
			for name, n := range finals {
				wantFail := 1
				if strings.HasPrefix(name, "quick") {
					wantFail = 0
				}
				if n != 1 || fails[name] != wantFail {
					t.Fatalf("%s: Final ran %d times, Fail %d; want 1 and %d", name, n, fails[name], wantFail)
				}
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if free := pool.Free(0) + pool.Free(1) + pool.Free(2) + pool.Free(3); free != 8 {
				t.Fatalf("%d of 8 slots free after the unwind", free)
			}
		})
	}
}
