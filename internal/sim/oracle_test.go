package sim

import (
	"math"
	"sort"
)

// The test oracle: the full-rescan fluid allocators every production
// resource shipped with through PR 2 and the PR 1 golden timings were
// recorded on. They recompute every flow's rate from scratch at each flow
// event — O(F) to O(F log F) per event, trivially auditable — and live
// here, outside the product, so the differential tests and
// FuzzAllocatorsMatchOracle can difference PSResource and Fabric against
// them. The advance/reallocate bodies are the originals with the flow
// weight (always 1 in every caller) folded out.

type refPSFlow struct {
	remaining float64
	rate      float64
	onDone    func()
}

// refPS is the rescan processor-sharing allocator.
type refPS struct {
	eng             *Engine
	capacity        float64
	perFlowCap      float64
	thrashAllowance int
	thrashAlpha     float64

	flows        []*refPSFlow // start order
	last         float64
	timer        *Timer
	busyIntegral float64
}

func (r *refPS) Rescale(factor float64) {
	r.advance()
	r.capacity *= factor
	r.perFlowCap *= factor
	r.reallocate()
}

func (r *refPS) Use(p *Proc, amount float64, reason string) {
	if amount <= workEpsilon {
		return
	}
	r.start(&refPSFlow{remaining: amount, onDone: p.Unpark})
	p.Park(reason)
}

func (r *refPS) Start(amount float64, onDone func()) {
	if amount <= workEpsilon {
		if onDone != nil {
			r.eng.Post(0, onDone)
		}
		return
	}
	r.start(&refPSFlow{remaining: amount, onDone: onDone})
}

func (r *refPS) start(f *refPSFlow) {
	r.advance()
	r.flows = append(r.flows, f)
	r.reallocate()
}

// advance applies elapsed time to all flows at their current rates.
func (r *refPS) advance() {
	now := r.eng.now
	dt := now - r.last
	r.last = now
	if dt <= 0 || len(r.flows) == 0 {
		return
	}
	used := 0.0
	for _, f := range r.flows {
		f.remaining -= f.rate * dt
		used += f.rate
	}
	r.busyIntegral += used * dt
}

// reallocate recomputes fair-share rates and schedules the next completion.
func (r *refPS) reallocate() {
	if r.timer != nil {
		r.timer.Cancel()
		r.timer = nil
	}
	// Collect finished flows first (can happen after advance), keeping the
	// survivors in start order.
	var finished []*refPSFlow
	kept := r.flows[:0]
	for _, f := range r.flows {
		if flowDone(f.remaining, f.rate) {
			finished = append(finished, f)
		} else {
			kept = append(kept, f)
		}
	}
	r.flows = kept
	// Completion callbacks may start new flows; run them via the scheduler
	// so state stays consistent.
	for _, f := range finished {
		if f.onDone != nil {
			r.eng.Schedule(0, f.onDone)
		}
	}
	if len(r.flows) == 0 {
		return
	}
	total := float64(len(r.flows))
	effCap := r.capacity
	if r.thrashAlpha > 0 {
		if over := len(r.flows) - r.thrashAllowance; over > 0 {
			effCap = r.capacity / (1 + r.thrashAlpha*float64(over))
		}
	}
	// Water-filling with the per-flow cap: capped flows return their excess
	// to the pool. Two passes suffice because all uncapped flows share
	// equally.
	capLeft := effCap
	left := total
	for _, f := range r.flows {
		share := effCap / total
		if share > r.perFlowCap {
			f.rate = r.perFlowCap
			capLeft -= r.perFlowCap
			left--
		} else {
			f.rate = 0 // assigned below
		}
	}
	if left > 0 {
		for _, f := range r.flows {
			if f.rate == 0 {
				f.rate = math.Min(r.perFlowCap, capLeft/left)
			}
		}
	}
	next := math.Inf(1)
	for _, f := range r.flows {
		if f.rate <= 0 {
			continue
		}
		if t := f.remaining / f.rate; t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		return
	}
	r.timer = r.eng.Schedule(next, func() {
		r.advance()
		r.reallocate()
	})
}

func (r *refPS) ActiveFlows() int { return len(r.flows) }

func (r *refPS) BusyIntegral() float64 {
	r.advance()
	return r.busyIntegral
}

// refFabric is the rescan max-min allocator: every flow event re-sorts and
// progressively refills the whole fabric. It keeps its flows in the
// production Flow struct (Src, Dst, remaining, rate, onDone only).
type refFabric struct {
	eng        *Engine
	nodes      int
	linkBW     float64
	loopbackBW float64

	flows      []*Flow // start order
	last       float64
	timer      *Timer
	rxIntegral []float64
	txIntegral []float64
}

func newRefFabric(eng *Engine, n int, linkBW float64) *refFabric {
	return &refFabric{
		eng:        eng,
		nodes:      n,
		linkBW:     linkBW,
		loopbackBW: 40 * linkBW,
		rxIntegral: make([]float64, n),
		txIntegral: make([]float64, n),
	}
}

func (fb *refFabric) Transfer(p *Proc, src, dst int, bytes float64, reason string) {
	if bytes <= workEpsilon {
		return
	}
	fb.startFlow(&Flow{Src: src, Dst: dst, remaining: bytes, onDone: p.Unpark})
	p.Park(reason)
}

func (fb *refFabric) StartFlow(src, dst int, bytes float64, onDone func()) *Flow {
	f := &Flow{Src: src, Dst: dst, remaining: bytes, onDone: onDone}
	if bytes <= workEpsilon {
		if onDone != nil {
			fb.eng.Post(0, onDone)
		}
		return f
	}
	fb.startFlow(f)
	return f
}

func (fb *refFabric) startFlow(f *Flow) {
	fb.advance()
	fb.flows = append(fb.flows, f)
	fb.reallocate()
}

// advance applies elapsed time to all flows.
func (fb *refFabric) advance() {
	now := fb.eng.now
	dt := now - fb.last
	fb.last = now
	if dt <= 0 || len(fb.flows) == 0 {
		return
	}
	for _, f := range fb.flows {
		f.remaining -= f.rate * dt
		if f.Src != f.Dst {
			fb.txIntegral[f.Src] += f.rate * dt
			fb.rxIntegral[f.Dst] += f.rate * dt
		}
	}
}

// reallocate computes progressive-filling max-min fair rates. Each network
// flow consumes capacity on two links: egress(src) and ingress(dst).
// Loopback flows get fixed loopback bandwidth.
func (fb *refFabric) reallocate() {
	if fb.timer != nil {
		fb.timer.Cancel()
		fb.timer = nil
	}
	var finished []*Flow
	kept := fb.flows[:0]
	for _, f := range fb.flows {
		if flowDone(f.remaining, f.rate) {
			finished = append(finished, f)
		} else {
			kept = append(kept, f)
		}
	}
	fb.flows = kept
	// Deterministic callback order: (Src, Dst), ties in start order.
	sort.SliceStable(finished, func(i, j int) bool {
		if finished[i].Src != finished[j].Src {
			return finished[i].Src < finished[j].Src
		}
		return finished[i].Dst < finished[j].Dst
	})
	for _, f := range finished {
		if f.onDone != nil {
			fb.eng.Schedule(0, f.onDone)
		}
	}
	if len(fb.flows) == 0 {
		return
	}

	// Progressive filling. Links are indexed: egress i -> i, ingress i -> nodes+i.
	type linkState struct {
		cap   float64
		count int
	}
	links := make([]linkState, 2*fb.nodes)
	for i := range links {
		links[i].cap = fb.linkBW
	}
	var netFlows []*Flow
	for _, f := range fb.flows {
		if f.Src == f.Dst {
			f.rate = fb.loopbackBW
			continue
		}
		f.rate = -1 // unassigned
		links[f.Src].count++
		links[fb.nodes+f.Dst].count++
		netFlows = append(netFlows, f)
	}
	sort.SliceStable(netFlows, func(i, j int) bool {
		if netFlows[i].Src != netFlows[j].Src {
			return netFlows[i].Src < netFlows[j].Src
		}
		return netFlows[i].Dst < netFlows[j].Dst
	})
	unassigned := len(netFlows)
	for unassigned > 0 {
		// Find the bottleneck link: smallest fair share among links with
		// unassigned flows.
		bottleneck := -1
		best := math.Inf(1)
		for li := range links {
			if links[li].count == 0 {
				continue
			}
			share := links[li].cap / float64(links[li].count)
			if share < best {
				best = share
				bottleneck = li
			}
		}
		if bottleneck < 0 {
			break
		}
		// Fix every unassigned flow crossing the bottleneck at the share.
		for _, f := range netFlows {
			if f.rate >= 0 {
				continue
			}
			eg, in := f.Src, fb.nodes+f.Dst
			if eg != bottleneck && in != bottleneck {
				continue
			}
			f.rate = best
			links[eg].cap -= best
			links[eg].count--
			links[in].cap -= best
			links[in].count--
			unassigned--
		}
		if links[bottleneck].cap < 0 {
			links[bottleneck].cap = 0
		}
	}

	next := math.Inf(1)
	for _, f := range fb.flows {
		if f.rate <= 0 {
			continue
		}
		if t := f.remaining / f.rate; t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		return
	}
	fb.timer = fb.eng.Schedule(next, func() {
		fb.advance()
		fb.reallocate()
	})
}

func (fb *refFabric) RxIntegral(i int) float64 {
	fb.advance()
	return fb.rxIntegral[i]
}

func (fb *refFabric) TxIntegral(i int) float64 {
	fb.advance()
	return fb.txIntegral[i]
}

func (fb *refFabric) ActiveFlows() int { return len(fb.flows) }

// psAlloc and netAlloc are what a differential schedule drives; PSResource
// and refPS, Fabric and refFabric satisfy them.
type psAlloc interface {
	Use(p *Proc, amount float64, reason string)
	Start(amount float64, onDone func())
	Rescale(factor float64)
	BusyIntegral() float64
	ActiveFlows() int
}

type netAlloc interface {
	Transfer(p *Proc, src, dst int, bytes float64, reason string)
	StartFlow(src, dst int, bytes float64, onDone func()) *Flow
	RxIntegral(i int) float64
	TxIntegral(i int) float64
	ActiveFlows() int
}

// allocators builds a schedule's resources on one implementation.
type allocators struct {
	name string
	ps   func(e *Engine, capacity, perFlowCap float64, thrashAllowance int, thrashAlpha float64) psAlloc
	net  func(e *Engine, nodes int, linkBW float64) netAlloc
}

var (
	production = allocators{
		name: "production",
		ps: func(e *Engine, capacity, perFlowCap float64, allowance int, alpha float64) psAlloc {
			r := NewPSResource(e, "res", capacity, perFlowCap)
			r.ThrashAllowance, r.ThrashAlpha = allowance, alpha
			return r
		},
		net: func(e *Engine, nodes int, linkBW float64) netAlloc { return NewFabric(e, nodes, linkBW) },
	}
	oracle = allocators{
		name: "oracle",
		ps: func(e *Engine, capacity, perFlowCap float64, allowance int, alpha float64) psAlloc {
			return &refPS{eng: e, capacity: capacity, perFlowCap: perFlowCap,
				thrashAllowance: allowance, thrashAlpha: alpha}
		},
		net: func(e *Engine, nodes int, linkBW float64) netAlloc { return newRefFabric(e, nodes, linkBW) },
	}
)
