package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// A fuzz schedule is a run of 4-byte events {op, dt, a, b} over two small
// PS resources (one plain, one with thrash) and a 4-node fabric. Times and
// amounts are multiples of 1/16 and 1/8, so same-instant arrivals,
// same-instant completions and zero-size flows are common rather than
// measure-zero.
const (
	fuzzEventBytes = 4
	fuzzMaxEvents  = 256
)

const (
	opUse       = iota // proc: Use(amount)
	opStart            // Start(amount, cb)
	opRescale          // Rescale by 1/4, 1/2, 2 or 4, kept within [1/16, 16]
	opTransfer         // proc: Transfer(src, dst, bytes), then Use(bytes/8)
	opStartFlow        // StartFlow(src, dst, bytes, cb)
	opKill             // Cancel one of the procs created so far
	fuzzOps
)

var fuzzRescale = [4]float64{0.25, 0.5, 2, 4}

// runFuzzSchedule decodes data and plays it on one implementation.
// Completion ids are 2*event (+1 for a transfer proc's trailing Use).
func runFuzzSchedule(k allocators, data []byte) (trace, error) {
	e := NewEngine()
	ps := [2]psAlloc{k.ps(e, 100, 30, 0, 0), k.ps(e, 100, 30, 3, 0.2)}
	scale := [2]float64{1, 1}
	const nodes = 4
	fb := k.net(e, nodes, 100)

	var tr trace
	var procs []*Proc
	at := 0.0
	for ev := 0; ev < fuzzMaxEvents && (ev+1)*fuzzEventBytes <= len(data); ev++ {
		d := data[ev*fuzzEventBytes:]
		op, which, a, b := d[0]%fuzzOps, d[0]>>3&1, d[2], d[3]
		at += float64(d[1]) / 16
		start := at
		r := ps[which]
		amount := float64(a)*4 + float64(b)/8
		src, dst := int(a&3), int(a>>2&3)
		bytes := float64(a>>4)*64 + float64(b)
		done := tr.mark(e, 2*ev)
		switch op {
		case opUse:
			procs = append(procs, e.Go(fmt.Sprintf("use-%d", ev), func(p *Proc) {
				p.Sleep(start)
				r.Use(p, amount, "use")
				done()
			}))
		case opStart:
			e.Schedule(start, func() { r.Start(amount, done) })
		case opRescale:
			f := fuzzRescale[b&3]
			if s := scale[which] * f; s >= 1.0/16 && s <= 16 {
				scale[which] = s
				e.Schedule(start, func() { r.Rescale(f) })
			}
		case opTransfer:
			procs = append(procs, e.Go(fmt.Sprintf("xfer-%d", ev), func(p *Proc) {
				p.Sleep(start)
				fb.Transfer(p, src, dst, bytes, "net")
				done()
				r.Use(p, bytes/8, "use")
				tr.done = append(tr.done, completion{2*ev + 1, e.Now()})
			}))
		case opStartFlow:
			e.Schedule(start, func() { fb.StartFlow(src, dst, bytes, done) })
		case opKill:
			if len(procs) > 0 {
				e.Schedule(start, procs[int(a)%len(procs)].Cancel)
			}
		}
	}
	if err := e.Run(); err != nil {
		return tr, fmt.Errorf("%s: %w", k.name, err)
	}
	if n := ps[0].ActiveFlows() + ps[1].ActiveFlows() + fb.ActiveFlows(); n != 0 {
		return tr, fmt.Errorf("%s: %d flows still active at quiesce", k.name, n)
	}
	tr.integrals = []float64{ps[0].BusyIntegral(), ps[1].BusyIntegral()}
	for i := 0; i < nodes; i++ {
		tr.integrals = append(tr.integrals, fb.RxIntegral(i), fb.TxIntegral(i))
	}
	return tr, nil
}

// churnCorpus renders a small churn script in the fuzz encoding: every
// worker becomes a transfer-then-compute proc, every scripted kill an
// opKill on that proc, in time order.
func churnCorpus() []byte {
	type event struct {
		at     float64
		worker int
		kill   bool
	}
	script := churnScript(48, 4, 1)
	var evs []event
	for w, wk := range script {
		evs = append(evs, event{at: wk.delay, worker: w})
		if wk.cancelAt >= 0 {
			evs = append(evs, event{at: wk.cancelAt, worker: w, kill: true})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	var out []byte
	procIndex := make(map[int]byte)
	prev := 0.0
	for _, ev := range evs {
		dt := byte((ev.at - prev) * 16)
		prev += float64(dt) / 16
		wk := script[ev.worker]
		if ev.kill {
			out = append(out, opKill, dt, procIndex[ev.worker], 0)
			continue
		}
		procIndex[ev.worker] = byte(len(procIndex))
		tr := wk.rounds[0].transfers[0]
		a := byte(wk.node) | byte(tr.dst)<<2 | byte(tr.bytes/churnMB)<<4
		out = append(out, opTransfer|byte(ev.worker&1)<<3, dt, a, byte(wk.rounds[0].cpuSec*512))
	}
	return out
}

// FuzzAllocatorsMatchOracle plays the decoded schedule on PSResource and
// Fabric and on refPS and refFabric: completion order must be identical,
// completion times and the busy/traffic integrals within 1e-9 relative.
// The seed corpus is one random schedule per seed the randomized
// differential tests use, the churn script and a hand-built tie, so plain
// `go test` runs them as regression inputs.
func FuzzAllocatorsMatchOracle(f *testing.F) {
	for seed := int64(0); seed < scenarioSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, fuzzEventBytes*(5+rng.Intn(60)))
		rng.Read(data)
		f.Add(data)
	}
	f.Add(churnCorpus())
	// Same-instant completions on disjoint links, started 3->2 before
	// 1->0: callbacks must fire in (Src, Dst) order, not start order.
	f.Add([]byte{opStartFlow, 0, 3 | 2<<2 | 1<<4, 0, opStartFlow, 0, 1 | 0<<2 | 1<<4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := runFuzzSchedule(production, data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runFuzzSchedule(oracle, data)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameTrace(got, want, 1e-9); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzFabricMatchesPerFlow holds Fabric to the per-flow allocator it
// replaced at tolerance 0. The input is read twice: as up to five bursts
// of the DataMPI shuffle pattern on 8 nodes (decodeBursts: waves of O
// tasks pushing a partition to every destination at one instant, several
// flows per pair, chained forwards), compared on completion order, time
// bits, pair, start sequence and traffic integrals; and as a 4-node
// FuzzAllocatorsMatchOracle schedule (procs, kills, PS resources),
// compared bit for bit. The seed corpus holds the all-to-all family,
// small masked bursts and the oracle fuzzer's seeds.
func FuzzFabricMatchesPerFlow(f *testing.F) {
	for seed := int64(0); seed < allToAllSeeds; seed++ {
		f.Add(encodeBursts(allToAllBursts(seed)))
	}
	for seed := int64(0); seed < scenarioSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, fuzzEventBytes*(5+rng.Intn(60)))
		rng.Read(data)
		f.Add(data)
	}
	f.Add(churnCorpus())
	// Two masked waves at one instant (lower half to upper half and
	// back) and, 1/8 s later, a chained all-to-all wave.
	f.Add([]byte{0, 0x0f, 0xf0, 3, 0, 0, 0, 0xf0, 0x0f, 3, 0, shapeTaskSizes, 1, 0xff, 0xff, 0, 255, shapeChain | shapeDstSizes})
	f.Fuzz(func(t *testing.T, data []byte) {
		if bs := decodeBursts(data); len(bs) > 0 {
			if err := matchPerFlow(bs); err != nil {
				t.Fatalf("bursts: %v", err)
			}
		}
		got, err := runFuzzSchedule(production, data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runFuzzSchedule(perFlow, data)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(got, want); err != nil {
			t.Fatalf("schedule: %v", err)
		}
	})
}
