package main

import (
	"fmt"
	"math"
	"math/rand"
)

// The kernel-stub workload: jobs whose tasks touch only the simulation
// kernel (disk and CPU processor-sharing resources, the fabric, timers)
// and the scheduling layer (queue, Fair slot pool, tracker with
// speculation and preemption). No record is generated, sorted or
// shuffled, so a data-plane optimisation must leave it alone and a
// kernel optimisation shows here first.
const (
	stubNodes        = 64
	stubJobs         = 27000
	stubTasksPerJob  = 8
	stubSlotsPerNode = 4
	// Arrivals stay under the stub cluster's service capacity
	// (64 nodes x 4 slots / ~1.2 s per task / 8 tasks per job ~ 26
	// jobs/s) so the queue depth is bounded.
	stubRate = 18.0
	// One task in fifty stalls on its first attempt for longer than the
	// speculation grace period, so the tracker's straggler monitor, backup
	// attempts and loser kills do work too.
	stubStragglerShare = 0.02
	stubStall          = 40.0
)

// stubEngine is a sched.Engine owned by the benchmark, after the shape
// of harness.churnEngine: Submit spawns a driver proc that launches
// tracker tasks; each task body uses the node's disk, then its CPU, then
// sends over the fabric, then sleeps.
type stubEngine struct {
	c    *simCluster
	seed int64
	next int64 // per-submission RNG stream index
}

func (e *stubEngine) Name() string         { return "stub" }
func (e *stubEngine) Cluster() *simCluster { return e.c }
func (e *stubEngine) Run(s spec) result {
	return result{Engine: e.Name(), Job: s.Name, Err: fmt.Errorf("stub engine is queue-only")}
}

func (e *stubEngine) Submit(s spec, ctl *jobControl, done func(result)) {
	eng := e.c.Eng
	res := result{Engine: e.Name(), Job: s.Name, Start: eng.Now()}
	rng := rand.New(rand.NewSource(e.seed + e.next))
	e.next++
	eng.Go("stub:"+s.Name, func(driver *simProc) {
		driver.Sleep(0.05) // job-init handshake
		pool := ctl.Pool("stub", stubSlotsPerNode)
		var wg simWaitGroup
		for t := 0; t < stubTasksPerJob; t++ {
			wg.Add(1)
			node, dst := rng.Intn(e.c.N()), rng.Intn(e.c.N())
			diskBytes := (2 + rng.Float64()*14) * mbBytes
			cpuSec := 0.05 + rng.Float64()*0.4
			netBytes := (1 + rng.Float64()*7) * mbBytes
			pause := rng.Float64() * 0.2
			straggler := rng.Float64() < stubStragglerShare
			ctl.Launch(taskSpec{
				Name:        fmt.Sprintf("%s/t%d", s.Name, t),
				Node:        node,
				Pool:        pool,
				Group:       "stub",
				Restartable: true,
				Body: func(p *simProc, att *attempt) (any, error) {
					if straggler && !att.Backup() {
						p.Sleep(stubStall)
					}
					n := e.c.Node(att.Node())
					n.Disk.Use(p, diskBytes, "disk")
					n.CPU.Use(p, cpuSec, "compute")
					e.c.Net.Transfer(p, att.Node(), dst, netBytes, "net")
					p.Sleep(pause)
					return nil, nil
				},
				Final: wg.Done,
			})
		}
		wg.Wait(driver)
		res.End = eng.Now()
		res.Elapsed = res.End - res.Start
		if done != nil {
			done(res)
		}
	})
}

// setupStub builds the stub cluster and admits the whole trace; the
// measured region is Queue.Run.
func setupStub(r *rep) { r.stubPoint(stubJobs) }

func (r *rep) stubPoint(jobs int) {
	pt := &point{id: "kernel-stub", layer: "sched"}
	r.points = append(r.points, pt)
	var c *simCluster
	r.rec.call("cluster", "NewWith", "", func() {
		hw := defaultHardware()
		hw.Nodes = stubNodes
		c = newCluster(hw, fidelityFast)
	})
	e := &stubEngine{c: c, seed: r.seed + 1000}
	var q *queue
	var resp sketch
	st := &r.sched
	r.rec.call("sched", "NewQueue+Admit", "", func() {
		q = newQueue(c.Eng, c.N(), fair)
		q.SetSpeculation(speculationConfig{Enabled: true})
		q.SetPreemption(preemptionConfig{Enabled: true})
		q.DiscardSettled(true)
		q.OnComplete(func(sub *submission) {
			res := sub.Result()
			if res.Err != nil {
				st.failed++
				return
			}
			resp.Add(res.End - sub.Arrival())
			st.slotSeconds += q.SlotSeconds(sub)
		})
		tenants := []struct {
			name   string
			weight float64
		}{{"t-heavy", 2}, {"t-a", 1}, {"t-b", 1}}
		rng := rand.New(rand.NewSource(r.seed))
		at := 0.0
		for i := 0; i < jobs; i++ {
			at += -math.Log(1-rng.Float64()) / stubRate
			tn := tenants[i%len(tenants)]
			q.Admit(tn.name, at, tn.weight, e, spec{Name: fmt.Sprintf("j%d", i)})
		}
	})
	if r.traced {
		tr := newTracer(traceConfig{})
		q.SetTracer(tr)
		r.traces = append(r.traces, engineTrace{"", tr})
	}
	pt.run = func() {
		r.rec.call("sched", "Queue.Run", pt.id, func() { q.Run() })
		d := resp.Dist()
		st.jobs, st.tracker, st.makespan = jobs, q.TrackerStats(), c.Eng.Now()
		st.slots = stubSlotsPerNode * stubNodes
		st.p50, st.p95 = d.P50, d.P95
		st.failed += jobs - q.Completed()
		pt.ops, pt.fails = jobs, st.failed
	}
}
