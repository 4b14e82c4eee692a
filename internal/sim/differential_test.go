package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// TestOracleDifferentialFabric differences randomized fabric schedules,
// and the DataMPI-shaped all-to-all family, and their traffic integrals
// between the incremental allocator and the rescan oracle.
func TestOracleDifferentialFabric(t *testing.T) {
	for seed := int64(0); seed < scenarioSeeds; seed++ {
		if err := sameTrace(runFabricScenario(production, seed), runFabricScenario(oracle, seed), 1e-9); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	for seed := int64(0); seed < allToAllSeeds; seed++ {
		bs := allToAllBursts(seed)
		if err := sameTrace(runBursts(production, bs).tr, runBursts(oracle, bs).tr, 1e-9); err != nil {
			t.Fatalf("all-to-all seed %d: %v", seed, err)
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

// sameBits requires identical completion order, completion times and
// integrals bit for bit: tolerance 0.
func sameBits(got, want trace) error {
	if len(got.done) != len(want.done) {
		return fmt.Errorf("%d completions, want %d", len(got.done), len(want.done))
	}
	for i, g := range got.done {
		w := want.done[i]
		if g.id != w.id || math.Float64bits(g.at) != math.Float64bits(w.at) {
			return fmt.Errorf("completion %d: id %d at %v (%#x), want id %d at %v (%#x)",
				i, g.id, g.at, math.Float64bits(g.at), w.id, w.at, math.Float64bits(w.at))
		}
	}
	if len(got.integrals) != len(want.integrals) {
		return fmt.Errorf("%d integrals, want %d", len(got.integrals), len(want.integrals))
	}
	for i, g := range got.integrals {
		if w := want.integrals[i]; math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("integral %d: %v, want %v", i, g, w)
		}
	}
	return nil
}

// A burst is a wave of the DataMPI shuffle pattern on an 8-node fabric:
// at one instant every O task on a source node pushes one partition to
// every destination node at once, so the fabric carries hundreds of
// flows, several per (src, dst) pair, and equal partitions of one pair
// complete on one instant. A node that is both a source and a
// destination sends its own partition over loopback.
type burst struct {
	at         float64
	srcs, dsts uint8 // node masks
	tasks      int   // O tasks per source node
	bytes      float64
	shape      uint8 // shapeChain | shapeTaskSizes | shapeDstSizes
}

const (
	// shapeChain: each partition of the first O task is forwarded, once
	// delivered, from its destination to the next node, starting a flow
	// at a completion instant.
	shapeChain = 1 << iota
	// shapeTaskSizes: task t's partitions are (1 + t%3) times the size.
	shapeTaskSizes
	// shapeDstSizes: partitions to destination d are (1 + d%2) times
	// the size.
	shapeDstSizes
)

const (
	burstNodes  = 8
	burstLinkBW = 1 << 18
	burstBytes  = 6 // encoded size: dt*8, srcs, dsts, tasks-1, bytes/64-1, shape
	maxBursts   = 5
)

// decodeBursts reads up to maxBursts bursts from data.
func decodeBursts(data []byte) []burst {
	var bs []burst
	at := 0.0
	for i := 0; i+burstBytes <= len(data) && len(bs) < maxBursts; i += burstBytes {
		d := data[i : i+burstBytes]
		at += float64(d[0]) / 8
		bs = append(bs, burst{at: at, srcs: d[1], dsts: d[2], tasks: 1 + int(d[3]%8),
			bytes: float64(1+int(d[4])) * 64, shape: d[5]})
	}
	return bs
}

// encodeBursts is decodeBursts' inverse for bursts it can represent
// (gaps up to 255/8 s, longer ones are cut to that).
func encodeBursts(bs []burst) []byte {
	var out []byte
	prev := 0.0
	for _, b := range bs {
		dt := byte(min((b.at-prev)*8, 255))
		prev += float64(dt) / 8
		out = append(out, dt, b.srcs, b.dsts, byte(b.tasks-1), byte(b.bytes/64-1), b.shape)
	}
	return out
}

// allToAllBursts is the DataMPI-shaped family: three to five all-to-all
// waves of 5 to 7 O tasks per node, 320 to 448 flows started at one
// instant, each wave landing as the previous one drains.
func allToAllBursts(seed int64) []burst {
	rng := rand.New(rand.NewSource(seed))
	bs := make([]burst, 3+rng.Intn(3))
	for i := range bs {
		b := burst{srcs: 0xff, dsts: 0xff, tasks: 5 + rng.Intn(3),
			bytes: float64(64+rng.Intn(192)) * 64, shape: uint8(rng.Intn(8))}
		if i > 0 {
			// The next wave lands as the previous one drains. (Equal
			// partitions of a symmetric wave all complete on its last
			// instant, so an earlier landing would double the flows in
			// flight.)
			prev := bs[i-1]
			b.at = prev.at + (math.Ceil(prev.drain()*8)+float64(rng.Intn(3)))/8
		}
		bs[i] = b
	}
	return bs
}

// size is the bytes task t sends to dst.
func (b burst) size(t, dst int) float64 {
	bytes := b.bytes
	if b.shape&shapeTaskSizes != 0 {
		bytes *= float64(1 + t%3)
	}
	if b.shape&shapeDstSizes != 0 {
		bytes *= float64(1 + dst%2)
	}
	return bytes
}

// drain is how long the burst takes on an idle fabric, forwarded
// partitions included.
func (b burst) drain() float64 {
	b.at = 0
	r := runBursts(production, []burst{b})
	return r.tr.done[len(r.tr.done)-1].at
}

// flowKey is what the fabric says about a flow when it starts: its pair
// and its start sequence number (0 for allocators that keep none).
type flowKey struct {
	src, dst int
	seq      int64
}

// burstRun is one schedule's outcome on one implementation.
type burstRun struct {
	tr       trace
	keys     []flowKey // by flow id, ids in start order
	peak     int       // most flows in flight right after a wave started
	sameTime int       // completions on an instant shared with the previous one
}

// runBursts plays bursts on one implementation. Flow ids are assigned in
// start order; the trace lists them in completion order.
func runBursts(k allocators, bs []burst) burstRun {
	e := NewEngine()
	fb := k.net(e, burstNodes, burstLinkBW)
	var r burstRun
	var start func(src, dst int, bytes float64, chain bool)
	start = func(src, dst int, bytes float64, chain bool) {
		id := len(r.keys)
		r.keys = append(r.keys, flowKey{})
		done := func() {
			if n := len(r.tr.done); n > 0 && r.tr.done[n-1].at == e.Now() {
				r.sameTime++
			}
			r.tr.done = append(r.tr.done, completion{id, e.Now()})
			if chain {
				start(dst, (dst+1)%burstNodes, bytes, false)
			}
		}
		h := fb.StartFlow(src, dst, bytes, done)
		r.keys[id] = flowKey{h.Src, h.Dst, h.seq}
	}
	for _, b := range bs {
		e.Schedule(b.at, func() {
			for src := 0; src < burstNodes; src++ {
				if b.srcs>>src&1 == 0 {
					continue
				}
				for t := 0; t < b.tasks; t++ {
					for dst := 0; dst < burstNodes; dst++ {
						if b.dsts>>dst&1 == 0 {
							continue
						}
						start(src, dst, b.size(t, dst), t == 0 && b.shape&shapeChain != 0)
					}
				}
			}
			r.peak = max(r.peak, fb.ActiveFlows())
		})
	}
	if err := e.Run(); err != nil {
		panic(fmt.Sprintf("bursts on %s: %v", k.name, err))
	}
	if n := fb.ActiveFlows(); n != 0 {
		panic(fmt.Sprintf("bursts on %s: %d flows still active at quiesce", k.name, n))
	}
	for i := 0; i < burstNodes; i++ {
		r.tr.integrals = append(r.tr.integrals, fb.RxIntegral(i), fb.TxIntegral(i))
	}
	return r
}

// matchPerFlow plays bursts on Fabric and on the per-flow allocator and
// requires every completion (order, time bits, pair, start sequence) and
// every traffic integral to be identical.
func matchPerFlow(bs []burst) error {
	got, want := runBursts(production, bs), runBursts(perFlow, bs)
	if err := sameBits(got.tr, want.tr); err != nil {
		return err
	}
	for id, g := range got.keys {
		if w := want.keys[id]; g != w {
			return fmt.Errorf("flow %d started as %+v, per-flow %+v", id, g, w)
		}
	}
	return nil
}

// allToAllSeeds is how many DataMPI-shaped schedules the tests run.
const allToAllSeeds = 12

// TestFabricMatchesPerFlowAllToAll holds Fabric to the per-flow allocator
// at tolerance 0 on the DataMPI-shaped family, and checks that the family
// is as heavy as it claims and survives the fuzz encoding intact.
func TestFabricMatchesPerFlowAllToAll(t *testing.T) {
	for seed := int64(0); seed < allToAllSeeds; seed++ {
		bs := allToAllBursts(seed)
		if err := matchPerFlow(bs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := decodeBursts(encodeBursts(bs)); !slices.Equal(got, bs) {
			t.Fatalf("seed %d: encoded as %+v, not %+v", seed, got, bs)
		}
		r := runBursts(production, bs)
		if r.peak < 300 || r.peak > 500 || r.sameTime < len(r.tr.done)/2 {
			t.Fatalf("seed %d: peak %d flows in flight, %d of %d completions on a shared instant",
				seed, r.peak, r.sameTime, len(r.tr.done))
		}
	}
}
