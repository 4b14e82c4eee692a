package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// A differential schedule runs once per implementation and yields a
// trace: who completed, in completion order, and when; then the traffic
// and busy integrals at quiesce.
type completion struct {
	id int
	at float64
}

type trace struct {
	done      []completion
	integrals []float64
}

func (tr *trace) mark(e *Engine, id int) func() {
	return func() { tr.done = append(tr.done, completion{id, e.Now()}) }
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b))
}

// sameTrace requires identical completion order and times and integrals
// within tol relative.
func sameTrace(got, want trace, tol float64) error {
	if len(got.done) != len(want.done) {
		return fmt.Errorf("%d completions, oracle %d", len(got.done), len(want.done))
	}
	for i, g := range got.done {
		w := want.done[i]
		if g.id != w.id {
			return fmt.Errorf("completion %d: id %d at %.12g, oracle id %d at %.12g", i, g.id, g.at, w.id, w.at)
		}
		if !relClose(g.at, w.at, tol) {
			return fmt.Errorf("completion %d (id %d): %.15g, oracle %.15g", i, g.id, g.at, w.at)
		}
	}
	for i, g := range got.integrals {
		if !relClose(g, want.integrals[i], tol) {
			return fmt.Errorf("integral %d: %.15g, oracle %.15g", i, g, want.integrals[i])
		}
	}
	return nil
}

// runPSScenario exercises one randomized processor-sharing workload.
func runPSScenario(k allocators, seed int64) trace {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	allowance, alpha := 0, 0.0
	if rng.Intn(2) == 0 {
		allowance, alpha = 3, 0.2
	}
	r := k.ps(e, 100, 30, allowance, alpha)
	var tr trace
	n := 5 + rng.Intn(40)
	for i := 0; i < n; i++ {
		delay := rng.Float64() * 5
		amount := 1 + rng.Float64()*500
		done := tr.mark(e, i)
		e.Schedule(delay, func() { r.Start(amount, done) })
	}
	if rng.Intn(3) == 0 {
		e.Schedule(2, func() { r.Rescale(0.5) })
		e.Schedule(4, func() { r.Rescale(2) })
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	tr.integrals = []float64{r.BusyIntegral()}
	return tr
}

// runFabricScenario exercises one randomized Fabric workload.
func runFabricScenario(k allocators, seed int64) trace {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	nodes := 3 + rng.Intn(8)
	fb := k.net(e, nodes, 100)
	var tr trace
	n := 5 + rng.Intn(50)
	for i := 0; i < n; i++ {
		delay := rng.Float64() * 5
		src, dst := rng.Intn(nodes), rng.Intn(nodes)
		bytes := 1 + rng.Float64()*800
		done := tr.mark(e, i)
		e.Schedule(delay, func() { fb.StartFlow(src, dst, bytes, done) })
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	for i := 0; i < nodes; i++ {
		tr.integrals = append(tr.integrals, fb.RxIntegral(i), fb.TxIntegral(i))
	}
	return tr
}

// scenarioSeeds is how many randomized schedules the differential tests
// (and the fuzz seed corpus) run per resource kind.
const scenarioSeeds = 60

// TestOracleDifferentialPS differences randomized PSResource schedules
// between the virtual-time allocator and the rescan oracle.
func TestOracleDifferentialPS(t *testing.T) {
	for seed := int64(0); seed < scenarioSeeds; seed++ {
		if err := sameTrace(runPSScenario(production, seed), runPSScenario(oracle, seed), 1e-9); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestOracleDifferentialFabric differences randomized fabric schedules
// and traffic integrals between the incremental allocator and the oracle.
func TestOracleDifferentialFabric(t *testing.T) {
	for seed := int64(0); seed < scenarioSeeds; seed++ {
		if err := sameTrace(runFabricScenario(production, seed), runFabricScenario(oracle, seed), 1e-9); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestAllocatorDeterminism re-runs one contended scenario per
// implementation and requires bit-identical traces.
func TestAllocatorDeterminism(t *testing.T) {
	for _, k := range []allocators{production, oracle} {
		if err := sameTrace(runFabricScenario(k, 17), runFabricScenario(k, 17), 0); err != nil {
			t.Fatalf("%s fabric: nondeterministic: %v", k.name, err)
		}
		if err := sameTrace(runPSScenario(k, 17), runPSScenario(k, 17), 0); err != nil {
			t.Fatalf("%s ps: nondeterministic: %v", k.name, err)
		}
	}
}

// The churn schedule is the heaviest one the oracle runs: a task-churn
// scale scenario with >1k concurrent fluid flows across 16 CPUs, 16 disks
// and the fabric, a watchdog timer armed and cancelled per shuffle round,
// and a fifth of the workers killed mid-flight — the regime mixed-tenancy
// traces push the kernel into.

const churnMB = 1 << 20

type churnTransfer struct {
	dst   int
	bytes float64
}

type churnRound struct {
	cpuSec    float64
	diskBytes float64
	transfers []churnTransfer
	pause     float64
}

// churnWorker is a fully precomputed work script, so both implementations
// execute the exact same scenario.
type churnWorker struct {
	node     int
	delay    float64
	rounds   []churnRound
	cancelAt float64 // <0: never cancelled
}

// churnScript generates the deterministic scenario for a given size.
func churnScript(workers, nodes int, seed int64) []churnWorker {
	rng := rand.New(rand.NewSource(seed))
	ws := make([]churnWorker, workers)
	for w := range ws {
		wk := &ws[w]
		wk.node = w % nodes
		wk.delay = rng.Float64() * 2
		wk.cancelAt = -1
		if rng.Float64() < 0.20 {
			wk.cancelAt = 2 + rng.Float64()*20
		}
		nr := 3 + rng.Intn(4)
		wk.rounds = make([]churnRound, nr)
		for r := range wk.rounds {
			rd := &wk.rounds[r]
			rd.cpuSec = 0.02 + rng.Float64()*0.3
			rd.diskBytes = (1 + rng.Float64()*15) * churnMB
			nt := 1 + rng.Intn(3)
			rd.transfers = make([]churnTransfer, nt)
			for t := range rd.transfers {
				dst := rng.Intn(nodes)
				rd.transfers[t] = churnTransfer{dst: dst, bytes: (0.5 + rng.Float64()*8) * churnMB}
			}
			rd.pause = rng.Float64() * 0.2
		}
	}
	return ws
}

type churnStats struct {
	cancelled int
	peakFlows int // max concurrent fluid flows observed (fabric + CPUs + disks)
}

// runChurn plays the churn script on one implementation. Completion ids
// are worker*8+round; the trace ends with the makespan.
func runChurn(k allocators, workers int, seed int64) (trace, churnStats) {
	const nodes = 16
	script := churnScript(workers, nodes, seed)

	eng := NewEngine()
	fabric := k.net(eng, nodes, 117*churnMB)
	cpus := make([]psAlloc, nodes)
	disks := make([]psAlloc, nodes)
	for i := 0; i < nodes; i++ {
		cpus[i] = k.ps(eng, 8, 1, 0, 0)
		disks[i] = k.ps(eng, 120*churnMB, 130*churnMB, 0, 0)
	}

	var tr trace
	var st churnStats
	live := 0
	for w := range script {
		wk := script[w]
		live++
		p := eng.Go(fmt.Sprintf("worker-%d", w), func(p *Proc) {
			defer func() { live-- }()
			p.Node = wk.node
			p.Sleep(wk.delay)
			for ri, rd := range wk.rounds {
				cpus[wk.node].Use(p, rd.cpuSec, "compute")
				disks[wk.node].Use(p, rd.diskBytes, "disk")
				var wg WaitGroup
				wg.Add(len(rd.transfers))
				for _, t := range rd.transfers {
					fabric.StartFlow(wk.node, t.dst, t.bytes, wg.Done)
				}
				// Watchdog timeout, cancelled on completion: the
				// speculation/preemption cancel-churn pattern. The cancel
				// is deferred so a worker killed while parked in wg.Wait
				// unwinds through it too.
				func() {
					watchdog := eng.Schedule(120, func() {})
					defer watchdog.Cancel()
					p.BlockReason = "shuffle-io"
					wg.Wait(p)
				}()
				tr.done = append(tr.done, completion{w*8 + ri, eng.Now()})
				p.Sleep(rd.pause)
			}
		})
		if wk.cancelAt >= 0 {
			eng.Schedule(wk.cancelAt, func() {
				if !p.Cancelled() {
					st.cancelled++
					p.Cancel()
				}
			})
		}
	}

	var monitor func()
	monitor = func() {
		n := fabric.ActiveFlows()
		for i := 0; i < nodes; i++ {
			n += cpus[i].ActiveFlows() + disks[i].ActiveFlows()
		}
		if n > st.peakFlows {
			st.peakFlows = n
		}
		if live > 0 {
			eng.Schedule(0.25, monitor)
		}
	}
	eng.Schedule(0.25, monitor)

	if err := eng.Run(); err != nil {
		panic(fmt.Sprintf("churn on %s: %v", k.name, err))
	}
	tr.done = append(tr.done, completion{-1, eng.Now()})
	for i := 0; i < nodes; i++ {
		tr.integrals = append(tr.integrals, cpus[i].BusyIntegral(), disks[i].BusyIntegral(),
			fabric.RxIntegral(i), fabric.TxIntegral(i))
	}
	return tr, st
}

// TestOracleDifferentialChurn differences the churn schedule: every
// shuffle round of every worker, the makespan and all 64 integrals.
func TestOracleDifferentialChurn(t *testing.T) {
	t.Parallel()
	const workers = 1400
	got, gs := runChurn(production, workers, 1)
	want, ws := runChurn(oracle, workers, 1)
	if err := sameTrace(got, want, 1e-9); err != nil {
		t.Fatal(err)
	}
	if gs != ws {
		t.Fatalf("stats diverged: production %+v, oracle %+v", gs, ws)
	}
	if gs.peakFlows < 1000 || gs.cancelled < workers/10 {
		t.Fatalf("schedule too light to mean anything: %+v", gs)
	}
	if again, _ := runChurn(production, workers, 1); sameTrace(again, got, 0) != nil {
		t.Fatal("production allocators not deterministic on the churn schedule")
	}
}
