package sched

import (
	"testing"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/sim"
)

// BenchmarkPlace10kBlocks measures the placement hot path: 10k blocks
// (3 replicas each) assigned across the paper's 8-node testbed.
func BenchmarkPlace10kBlocks(b *testing.B) {
	blocks := make([]*dfs.Block, 10000)
	for i := range blocks {
		blocks[i] = &dfs.Block{
			ID:        int64(i),
			Locations: []int{i % 8, (i + 3) % 8, (i + 5) % 8},
		}
	}
	pl := Placer{Nodes: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Place(blocks)
	}
}

// BenchmarkSlotPoolChurn measures acquire/release churn through one
// contended pool: 10k short tasks from two jobs over 8 nodes.
func BenchmarkSlotPoolChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		pool := NewSlotPool(Fair, 8, 4)
		h1 := &JobHandle{name: "a", seq: 0, weight: 1}
		h2 := &JobHandle{name: "b", seq: 1, weight: 1}
		for tsk := 0; tsk < 10000; tsk++ {
			h := h1
			if tsk%2 == 1 {
				h = h2
			}
			h, node := h, tsk%8
			eng.Go("t", func(p *sim.Proc) {
				pool.Acquire(p, node, h, "slot")
				p.Sleep(1)
				pool.Release(node, h)
			})
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrackerTick measures one straggler-monitor tick (ns/op) over
// the shape tenants-mix gives the tracker: about 2,000 launched tasks of
// three jobs under speculation, of which 16 hold the slots of a Fair pool
// (8 nodes x 2) and run while the rest queue behind them. A tick scans
// every unsettled task to find the running attempts. The running tasks
// sleep past the end of the benchmark and MinRuntime is never reached, so
// no tick launches a backup and every tick sees the same state.
func BenchmarkTrackerTick(b *testing.B) {
	eng := sim.NewEngine()
	spec := SpeculationConfig{Enabled: true, MinRuntime: 1e12}
	tr := NewTaskTracker(eng, spec, PreemptionConfig{})
	pool := NewSlotPool(Fair, 8, 2)
	jobs := []*JobHandle{{name: "a", seq: 0, weight: 1}, {name: "b", seq: 1, weight: 1}, {name: "c", seq: 2, weight: 1}}
	launch := func(n int, secs float64) {
		for i := range n {
			tr.Launch(TaskSpec{
				Name: "task", Node: i % 8, Pool: pool, Handle: jobs[i%len(jobs)], Group: "map", Restartable: true,
				Body: func(p *sim.Proc, att *Attempt) (any, error) {
					att.Report(0.5)
					p.Sleep(secs)
					return nil, nil
				},
			})
		}
	}
	// Short tasks first, so every job's group has completed attempts and
	// the scan reads its medians; then the long ones.
	iv := tr.interval()
	for _, phase := range []struct {
		n    int
		secs float64
	}{{48, 1}, {2000, 1e12}} {
		launch(phase.n, phase.secs)
		if _, err := eng.RunUntil(eng.Now() + 20*iv); err != nil {
			b.Fatal(err)
		}
	}
	running := 0
	for _, task := range tr.tasks {
		for _, a := range task.attempts {
			if a.started && !a.finished {
				running++
			}
		}
	}
	if running != 16 || len(tr.tasks) != 2000 {
		b.Fatalf("%d running of %d unsettled tasks, want 16 of 2000", running, len(tr.tasks))
	}
	b.ReportAllocs()
	for b.Loop() {
		if n, err := eng.RunUntil(eng.Now() + iv); err != nil || n != 1 {
			b.Fatalf("%d events, %v; want one tick", n, err)
		}
	}
	if st := tr.Stats(); st.Backups != 0 {
		b.Fatalf("%d backups launched", st.Backups)
	}
	// Unwind every attempt: each fails its task, so the monitor disarms.
	eng.CancelAll()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}
