package sim

import (
	"container/heap"
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

// perFlowFabric is the per-flow incremental max-min allocator Fabric ran
// on before it kept flows per (src, dst) pair: each link lists its flows
// in (Src, Dst, seq) order, a refill floods and fills the dirty component
// flow by flow, and completions come off one container/heap of flows,
// repaired with a Fix per flow whose rate moved. Fabric does the same
// float operations in the same order, so FuzzFabricMatchesPerFlow holds
// it to this allocator at tolerance 0.
type perFlowFabric struct {
	eng        *Engine
	nodes      int
	linkBW     float64
	loopbackBW float64

	rxIntegral []float64
	txIntegral []float64

	links     []pfLink
	cheap     pfHeap // completions keyed by (predicted finish time, seq)
	rxRate    []float64
	txRate    []float64
	nodeLast  []float64
	timer     *Timer
	seqCtr    int64
	fillEpoch int
}

type pfLink struct {
	flows []*pfFlow
	cap   float64
	count int
	mark  int
}

// pfFlow is a Flow with the heap index and fill mark the per-flow
// allocator keeps on each flow.
type pfFlow struct {
	Flow
	hidx int
	mark int
}

type pfHeap []*pfFlow

func (h pfHeap) Len() int { return len(h) }
func (h pfHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}
func (h pfHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].hidx = i
	h[j].hidx = j
}
func (h *pfHeap) Push(x any) {
	f := x.(*pfFlow)
	f.hidx = len(*h)
	*h = append(*h, f)
}
func (h *pfHeap) Pop() any {
	old := *h
	n := len(old)
	f := old[n-1]
	old[n-1] = nil
	f.hidx = -1
	*h = old[:n-1]
	return f
}

// pfLess is the registry (and completion-callback) order.
func pfLess(a, b *pfFlow) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	return a.seq < b.seq
}

func newPerFlowFabric(eng *Engine, n int, linkBW float64) *perFlowFabric {
	return &perFlowFabric{
		eng:        eng,
		nodes:      n,
		linkBW:     linkBW,
		loopbackBW: 40 * linkBW,
		rxIntegral: make([]float64, n),
		txIntegral: make([]float64, n),
		links:      make([]pfLink, 2*n),
		rxRate:     make([]float64, n),
		txRate:     make([]float64, n),
		nodeLast:   make([]float64, n),
	}
}

func (fb *perFlowFabric) Transfer(p *Proc, src, dst int, bytes float64, reason string) {
	if bytes <= workEpsilon {
		return
	}
	fb.start(&pfFlow{Flow: Flow{Src: src, Dst: dst, remaining: bytes, onDone: p.Unpark}})
	p.Park(reason)
}

func (fb *perFlowFabric) StartFlow(src, dst int, bytes float64, onDone func()) *Flow {
	f := &pfFlow{Flow: Flow{Src: src, Dst: dst, remaining: bytes, onDone: onDone}}
	if bytes <= workEpsilon {
		if onDone != nil {
			fb.eng.Post(0, onDone)
		}
		return &f.Flow
	}
	fb.start(f)
	return &f.Flow
}

func (fb *perFlowFabric) settleNode(i int) {
	now := fb.eng.now
	dt := now - fb.nodeLast[i]
	fb.nodeLast[i] = now
	if dt <= 0 {
		return
	}
	fb.rxIntegral[i] += fb.rxRate[i] * dt
	fb.txIntegral[i] += fb.txRate[i] * dt
}

func (fb *perFlowFabric) start(f *pfFlow) {
	now := fb.eng.now
	f.seq = fb.seqCtr
	fb.seqCtr++
	f.settledAt = now
	f.hidx = -1
	dirty := fb.collect()
	if f.Src == f.Dst {
		f.loop = true
		f.rate = fb.loopbackBW
		f.finish = now + f.remaining/fb.loopbackBW
		heap.Push(&fb.cheap, f)
	} else {
		eg, in := f.Src, fb.nodes+f.Dst
		fb.links[eg].flows = pfInsert(fb.links[eg].flows, f)
		fb.links[in].flows = pfInsert(fb.links[in].flows, f)
		f.rate = 0
		f.finish = math.Inf(1)
		heap.Push(&fb.cheap, f)
		dirty = append(dirty, eg, in)
	}
	if len(dirty) > 0 {
		fb.refill(dirty)
	}
	fb.program()
}

func (fb *perFlowFabric) tick() {
	if dirty := fb.collect(); len(dirty) > 0 {
		fb.refill(dirty)
	}
	fb.program()
}

func pfInsert(s []*pfFlow, f *pfFlow) []*pfFlow {
	i := sort.Search(len(s), func(k int) bool { return pfLess(f, s[k]) })
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = f
	return s
}

func pfRemove(s []*pfFlow, f *pfFlow) []*pfFlow {
	i := sort.Search(len(s), func(k int) bool { return !pfLess(s[k], f) })
	copy(s[i:], s[i+1:])
	s[len(s)-1] = nil
	return s[:len(s)-1]
}

// collect pops every finished flow, fires callbacks in (Src, Dst, seq)
// order and returns the links the flows vacated.
func (fb *perFlowFabric) collect() []int {
	var dirty []int
	now := fb.eng.now
	var batch []*pfFlow
	for len(fb.cheap) > 0 {
		f := fb.cheap[0]
		rem := f.remaining - f.rate*(now-f.settledAt)
		if !flowDone(rem, f.rate) && !(f.finish <= now) {
			break
		}
		heap.Pop(&fb.cheap)
		batch = append(batch, f)
	}
	sort.Slice(batch, func(i, j int) bool { return pfLess(batch[i], batch[j]) })
	for _, f := range batch {
		if !f.loop {
			eg, in := f.Src, fb.nodes+f.Dst
			fb.links[eg].flows = pfRemove(fb.links[eg].flows, f)
			fb.links[in].flows = pfRemove(fb.links[in].flows, f)
			fb.settleNode(f.Src)
			fb.settleNode(f.Dst)
			fb.txRate[f.Src] -= f.rate
			fb.rxRate[f.Dst] -= f.rate
			dirty = append(dirty, eg, in)
		}
		if f.onDone != nil {
			fb.eng.Post(0, f.onDone)
		}
	}
	return dirty
}

// refill recomputes max-min rates over the component reachable from the
// dirty links, flow by flow.
func (fb *perFlowFabric) refill(dirtyLinks []int) {
	fb.fillEpoch++
	ep := fb.fillEpoch
	var comp, stack []int
	for _, li := range dirtyLinks {
		if fb.links[li].mark != ep {
			fb.links[li].mark = ep
			stack = append(stack, li)
		}
	}
	for len(stack) > 0 {
		li := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		comp = append(comp, li)
		for _, f := range fb.links[li].flows {
			other := f.Src
			if li == f.Src {
				other = fb.nodes + f.Dst
			}
			if fb.links[other].mark != ep {
				fb.links[other].mark = ep
				stack = append(stack, other)
			}
		}
	}
	sort.Ints(comp)

	unassigned := 0
	for _, li := range comp {
		l := &fb.links[li]
		l.cap = fb.linkBW
		l.count = len(l.flows)
		unassigned += l.count
	}
	unassigned /= 2

	now := fb.eng.now
	for unassigned > 0 {
		bottleneck, best := -1, math.Inf(1)
		for _, li := range comp {
			l := &fb.links[li]
			if l.count == 0 {
				continue
			}
			if share := l.cap / float64(l.count); share < best {
				best, bottleneck = share, li
			}
		}
		if bottleneck < 0 {
			break
		}
		for _, f := range fb.links[bottleneck].flows {
			if f.mark == ep {
				continue
			}
			f.mark = ep
			eg, in := f.Src, fb.nodes+f.Dst
			fb.links[eg].cap -= best
			fb.links[eg].count--
			fb.links[in].cap -= best
			fb.links[in].count--
			unassigned--
			fb.applyRate(f, best, now)
		}
		if fb.links[bottleneck].cap < 0 {
			fb.links[bottleneck].cap = 0
		}
	}

	for _, li := range comp {
		node := li
		if li >= fb.nodes {
			node = li - fb.nodes
		}
		fb.settleNode(node)
	}
	for _, li := range comp {
		sum := 0.0
		for _, f := range fb.links[li].flows {
			sum += f.rate
		}
		if li < fb.nodes {
			fb.txRate[li] = sum
		} else {
			fb.rxRate[li-fb.nodes] = sum
		}
	}
}

func (fb *perFlowFabric) applyRate(f *pfFlow, rate, now float64) {
	if rate == f.rate {
		return
	}
	if d := now - f.settledAt; d > 0 {
		f.remaining -= f.rate * d
	}
	f.settledAt = now
	f.rate = rate
	if rate > 0 {
		f.finish = now + f.remaining/rate
	} else {
		f.finish = math.Inf(1)
	}
	heap.Fix(&fb.cheap, f.hidx)
}

func (fb *perFlowFabric) program() {
	if fb.timer == nil {
		fb.timer = &Timer{eng: fb.eng, index: -1, fn: fb.tick}
	} else {
		fb.timer.Cancel()
	}
	if len(fb.cheap) == 0 || math.IsInf(fb.cheap[0].finish, 1) {
		return
	}
	fb.eng.rearm(fb.timer, fb.cheap[0].finish-fb.eng.now)
}

func (fb *perFlowFabric) RxIntegral(i int) float64 {
	fb.settleNode(i)
	return fb.rxIntegral[i]
}

func (fb *perFlowFabric) TxIntegral(i int) float64 {
	fb.settleNode(i)
	return fb.txIntegral[i]
}

func (fb *perFlowFabric) ActiveFlows() int { return len(fb.cheap) }

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
	// perFlow is production PSResource with the per-flow fabric.
	perFlow = allocators{
		name: "per-flow",
		ps: func(e *Engine, capacity, perFlowCap float64, allowance int, alpha float64) psAlloc {
			return production.ps(e, capacity, perFlowCap, allowance, alpha)
		},
		net: func(e *Engine, nodes int, linkBW float64) netAlloc { return newPerFlowFabric(e, nodes, linkBW) },
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
