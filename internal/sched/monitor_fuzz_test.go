package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/trace"
)

// FuzzMonitorMatchesFullScan drives one tracker with speculation and
// preemption on through random launches, finishes, kills from outside the
// tracker, NodeDown/NodesDown/NodeUp and Fair starvation, over a Fair and
// a FIFO pool on 2-5 nodes. Every monitor tick first runs the full-scan
// oracle below — the selection the monitor made when it walked every
// unsettled task and every (node, job) FIFO head — on the state the tick
// is about to see; after the tick the backups it launched (task and node,
// in launch order) and each pool's preemption victim must be the
// oracle's. At quiesce the tracker must hold nothing, and every task's
// Final has run once.
func FuzzMonitorMatchesFullScan(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		ops := make([]byte, 300)
		rng.Read(ops)
		f.Add(ops)
	}
	// Three backups allowed, and at one tick both the original and its
	// first backup straggle: the tick launches one backup for the task.
	f.Add([]byte("2800070C000"))
	// A kill lands on a winner while its Done commits, after the winner
	// left the running list.
	f.Add([]byte("00000000000\xf5$100"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		checkMonitor(t, data)
	})
}

// TestMonitorFuzzSeedsAct pins that the fuzz seeds exercise what the
// oracle compares: ticks that launch backups and ticks that preempt.
func TestMonitorFuzzSeedsAct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sum TrackerStats
	ticks := 0
	for i := 0; i < 8; i++ {
		ops := make([]byte, 300)
		rng.Read(ops)
		st, n := checkMonitor(t, ops)
		sum.Backups += st.Backups
		sum.Preemptions += st.Preemptions
		sum.Retries += st.Retries
		ticks += n
	}
	t.Logf("%d ticks, %d backups, %d preemptions, %d retries", ticks, sum.Backups, sum.Preemptions, sum.Retries)
	if sum.Backups == 0 || sum.Preemptions == 0 || sum.Retries == 0 || ticks < 100 {
		t.Fatalf("seeds made %d ticks with %d backups, %d preemptions, %d retries; want some of each",
			ticks, sum.Backups, sum.Preemptions, sum.Retries)
	}
}

// monitorRig interposes on the tracker's monitor timer: each tick the
// tracker arms is replaced, at the same instant and with nothing
// scheduled in between, by checkedTick. What a tick did is read off the
// tracer's instants ("speculate:<task>" and "preempt:<task>" on the
// node acted for), in the order the tick did it.
type monitorRig struct {
	t     *testing.T
	eng   *sim.Engine
	tr    *TaskTracker
	trc   *trace.Tracer
	timer *sim.Timer // the interposed tick, nil when none is pending
	ticks int
}

// hook swaps a freshly armed monitor tick for a checked one. The tracker
// arms only in Launch and at the end of a tick, so calling hook right
// after each leaves no tick unchecked.
func (r *monitorRig) hook() {
	if r.tr.timer == nil || r.tr.timer == r.timer {
		return
	}
	r.tr.timer.Cancel()
	r.timer = r.eng.Schedule(r.tr.interval(), r.checkedTick)
	r.tr.timer = r.timer
}

func (r *monitorRig) checkedTick() {
	tr, now := r.tr, r.eng.Now()
	wantB, wantV := fullScanBackups(tr), fullScanVictims(tr)
	for _, pool := range tr.pools {
		if pool.Policy() != Fair {
			continue
		}
		gh, gn := pool.Starved(now, tr.pre.Patience)
		if wh, wn := starvedFullScan(pool, now, tr.pre.Patience); gh != wh || gn != wn {
			r.t.Fatalf("tick %d at t=%v: Starved = %v on %d, full scan %v on %d", r.ticks, now, gh, gn, wh, wn)
		}
	}
	seen := len(r.trc.Instants())
	tr.tick()

	var gotB, gotV []string
	for _, in := range r.trc.Instants()[seen:] {
		if name, ok := strings.CutPrefix(in.Name, "speculate:"); ok {
			gotB = append(gotB, fmt.Sprintf("%s@%d", name, in.Node))
		}
		if name, ok := strings.CutPrefix(in.Name, "preempt:"); ok {
			gotV = append(gotV, fmt.Sprintf("%s@%d", name, in.Node))
		}
	}
	if !slices.Equal(gotB, wantB) {
		r.t.Fatalf("tick %d at t=%v: launched backups %v, full scan %v", r.ticks, now, gotB, wantB)
	}
	var victims []string
	for _, a := range wantV {
		if a == nil {
			continue
		}
		if !a.killed {
			r.t.Fatalf("tick %d at t=%v: full-scan victim %s@%d still runs", r.ticks, now, a.task.spec.Name, a.node)
		}
		victims = append(victims, fmt.Sprintf("%s@%d", a.task.spec.Name, a.node))
	}
	if !slices.Equal(gotV, victims) {
		r.t.Fatalf("tick %d at t=%v: preempted %v, full scan %v", r.ticks, now, gotV, victims)
	}
	r.ticks++
	r.timer = nil
	r.hook()
}

// fullScanBackups is speculate's selection as a walk of every unsettled
// task and of its attempts: the backups a tick launches, in order, as
// "task@node". A tick's launches only touch the task they back up, so
// the picks can be made before any of them.
func fullScanBackups(t *TaskTracker) []string {
	var out []string
	now := t.eng.Now()
	for _, task := range t.tasks {
		if task.settled || !task.spec.Restartable || int(task.backups) >= t.spec.MaxBackupsPerTask {
			continue
		}
		g := task.group
		if g.rates.n() < t.spec.MinCompleted {
			continue
		}
		medianRate, medianDur := g.rates.median(), g.durs.median()
		for _, a := range task.attempts {
			if !a.started || a.finished || a.proc.Cancelled() {
				continue
			}
			elapsed := now - a.start
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
			out = append(out, fmt.Sprintf("%s@%d", task.spec.Name, node))
			break
		}
	}
	return out
}

// fullScanVictims is preempt's selection as a walk of every unsettled
// task: per pool, in the tracker's pool order, the attempt a tick kills
// (nil for none). A kill and its requeue only schedule events, so no
// pool's pick sees another's.
func fullScanVictims(t *TaskTracker) []*Attempt {
	out := make([]*Attempt, len(t.pools))
	now := t.eng.Now()
	for i, pool := range t.pools {
		if pool.Policy() != Fair {
			continue
		}
		starved, node := starvedFullScan(pool, now, t.pre.Patience)
		if starved == nil || pool.Debt(node) > 0 {
			continue
		}
		var victim *Attempt
		for _, task := range t.tasks {
			if task.settled || !task.spec.Restartable || task.spec.Pool != pool {
				continue
			}
			h := task.spec.Handle
			if h == starved || float64(pool.Held(h)-1) < pool.FairShare(h)-1e-9 {
				continue
			}
			for _, a := range task.attempts {
				if !a.started || a.finished || a.proc.Cancelled() || a.node != node {
					continue
				}
				if victim == nil || a.start >= victim.start {
					victim = a
				}
			}
		}
		out[i] = victim
	}
	return out
}

// starvedFullScan is SlotPool.Starved as a walk of every (node, job) FIFO
// head.
func starvedFullScan(sp *SlotPool, now, patience float64) (*JobHandle, int) {
	var starved *JobHandle
	var starvedSeq int64
	node := -1
	for n, qs := range sp.waiting {
		for _, q := range qs {
			w := q.ws[0]
			if now-w.at < patience || float64(q.hi.held)+1 > sp.FairShare(q.h)+1e-9 {
				continue
			}
			if starved == nil || q.h.seq < starved.seq || (q.h == starved && w.seq < starvedSeq) {
				starved, starvedSeq, node = q.h, w.seq, n
			}
		}
	}
	return starved, node
}

// checkMonitor runs one fuzz input and returns the tracker's counters and
// the number of checked ticks. data[0..3] pick the cluster and the
// monitor's knobs; then each pair of bytes is one step, a second and a
// half apart.
func checkMonitor(t *testing.T, data []byte) (TrackerStats, int) {
	t.Helper()
	nodes := 2 + int(data[0])%4
	spec := SpeculationConfig{Enabled: true, MinRuntime: 1, CheckInterval: 1,
		MaxBackupsPerTask: 1 + int(data[1])%3, MinCompleted: 1 + int(data[1]/3)%3}
	pre := PreemptionConfig{Enabled: true, Patience: float64(1 + int(data[2])%4), CheckInterval: 1}
	width := 1 + int(data[3])%2
	ops := data[4:]
	if len(ops) > 400 {
		ops = ops[:400]
	}

	eng := sim.NewEngine()
	tr := NewTaskTracker(eng, spec, pre)
	r := &monitorRig{t: t, eng: eng, tr: tr, trc: trace.New(trace.Config{NoStages: true, NoCounters: true})}
	tr.SetTracer(r.trc)
	pools := []*SlotPool{NewSlotPool(Fair, nodes, width), NewSlotPool(FIFO, nodes, 1)}
	// Distinct admission seqs in an order that is not the index; the last
	// job is heavy, so it can starve while holding a slot.
	jobs := []*JobHandle{
		{name: "a", seq: 2, weight: 1}, {name: "b", seq: 0, weight: 1},
		{name: "c", seq: 1, weight: 1}, {name: "d", seq: 3, weight: 3},
	}
	type stuckTask struct {
		cond     sim.Cond
		released bool
	}
	var stuck []*stuckTask
	var committing []*Attempt // winners whose Done may still be running
	var finals []int          // task (launch order) -> Final calls
	launched := 0
	launch := func(arg int) {
		h := jobs[arg%len(jobs)]
		node := (arg / 4) % nodes
		pool := pools[0]
		if arg%13 == 0 {
			pool = pools[1]
		}
		ti := launched
		ts := TaskSpec{
			Name: fmt.Sprintf("%s%d", h.name, launched), Node: node, Pool: pool, Handle: h,
			Group: fmt.Sprint(arg % 2), Restartable: arg%7 != 0, Retryable: arg%5 == 0,
			Final: func() { finals[ti]++ },
		}
		launched++
		finals = append(finals, 0)
		if arg%4 == 1 {
			ts.Done = func(p *sim.Proc, v any, att *Attempt) error {
				committing = append(committing, att)
				p.Sleep(2) // the output commit takes simulated time
				return nil
			}
		}
		if arg%3 == 0 {
			s := &stuckTask{}
			stuck = append(stuck, s)
			ts.Body = func(p *sim.Proc, att *Attempt) (any, error) {
				att.Report(0.1)
				for !s.released {
					s.cond.Wait(p, "stuck")
				}
				return nil, nil
			}
		} else {
			secs := float64(1 + (arg/8)%6)
			ts.Body = func(p *sim.Proc, att *Attempt) (any, error) {
				d := secs
				if att.Node() == 0 {
					d *= 4 // a slow node makes stragglers
				}
				for k := 1; k <= 4; k++ {
					p.Sleep(d / 4)
					att.Report(float64(k) / 4)
				}
				return nil, nil
			}
		}
		tr.Launch(ts)
		r.hook()
	}
	var step func(ops []byte)
	step = func(ops []byte) {
		if len(ops) < 2 {
			// Drain: every node back, every stuck task released.
			for n := 0; n < nodes; n++ {
				tr.NodeUp(n)
			}
			for _, s := range stuck {
				s.released = true
				s.cond.Broadcast()
			}
			return
		}
		op, arg := ops[0]%8, int(ops[1])
		switch op {
		case 0, 1, 2:
			launch(arg)
		case 3: // finish a stuck task: every attempt of it returns
			if len(stuck) > 0 {
				s := stuck[arg%len(stuck)]
				s.released = true
				s.cond.Broadcast()
			}
		case 4: // a kill the tracker did not order, of a running or committing attempt
			live := running(tr)
			for _, a := range committing {
				if a.won && !a.done { // a recycled attempt is neither
					live = append(live, a)
				}
			}
			if len(live) > 0 {
				live[arg%len(live)].proc.Cancel()
			}
		case 5:
			tr.NodeDown(arg % nodes)
		case 6:
			tr.NodeUp(arg % nodes)
		case 7:
			tr.NodesDown([]int{arg % nodes, (arg + 1) % nodes})
			eng.Schedule(3, func() { tr.NodeUp(arg % nodes); tr.NodeUp((arg + 1) % nodes) })
		}
		eng.Schedule(1.5, func() { step(ops[2:]) })
	}
	eng.Schedule(0.25, func() { step(ops) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	checkQuiesced(t, tr)
	for ti, n := range finals {
		if n != 1 {
			t.Fatalf("task %d of %d: Final ran %d times", ti, launched, n)
		}
	}
	return tr.Stats(), r.ticks
}
