package sim

import (
	"cmp"
	"container/heap"
	"math"
	"slices"
)

// Incremental max-min fabric: Fabric's allocator.
//
// Every network flow from src to dst crosses the same two links (egress
// src, ingress dst), so all flows of one (src, dst) pair always get the
// same max-min rate. The fabric keeps in-flight flows per pair, and each
// link's registry lists its pairs in (Src, Dst) order: the component
// flood, the progressive filling and the rate-sum refresh walk at most
// n(n-1) pairs, however many flows are in flight (an all-to-all shuffle
// keeps hundreds).
//
// Max-min fair allocations decompose over connected components of the
// pair-link incidence graph: a flow arrival or completion can only change
// rates within the component reachable from the links it touches, so on
// each flow event only that dirty component is refilled.
//
// Completions come off a min-heap of pairs keyed by each pair's earliest
// (predicted finish, seq) flow; a pair's entry is repaired the moment its
// flows' finish times move, so the heap is whole whenever anything reads
// it. Loopback flows from node s are pair (s, s): in the heap, never on a
// link. Flows whose rate did not change keep their finish time, and
// their remaining bytes are settled lazily, only when the rate actually
// changes. Per-node traffic integrals settle lazily from per-link rate
// sums, which each refill refreshes for its component.
//
// Every float operation is the per-flow allocator's, in its order: a pair
// of k flows takes the fair share off each of its links k times, not k
// times the share once, and adds its rate to each link's sum k times. So
// every rate, finish time and integral equals, bit for bit, the per-flow
// allocator's (perFlowFabric in oracle_test.go, FuzzFabricMatchesPerFlow),
// and the full re-sort-and-refill oracle's (refFabric) to rounding.

// fPair is one (src, dst) pair's in-flight flows, in start (seq) order.
// Every flow carries rate once the pair has been through a fill; flows
// admitted since (fresh) carry 0 until the next one.
type fPair struct {
	src, dst int
	flows    []*Flow
	first    *Flow // earliest (finish, seq) flow, the pair's heap key
	rate     float64
	hidx     int // slot in the pair heap
	mark     int // fill epoch in which the pair's flows got their rate
	fresh    bool
}

// before is the completion order: predicted finish, start order on ties.
// seq is unique, so the order is total.
func (f *Flow) before(g *Flow) bool {
	return f.finish < g.finish || (f.finish == g.finish && f.seq < g.seq)
}

// flowCmp is the completion-callback order: (Src, Dst), then start order.
func flowCmp(a, b *Flow) int {
	if a.Src != b.Src {
		return a.Src - b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst - b.Dst
	}
	return cmp.Compare(a.seq, b.seq)
}

// pairCmp is the link registry order: (Src, Dst).
func pairCmp(a, b *fPair) int {
	if a.src != b.src {
		return a.src - b.src
	}
	return a.dst - b.dst
}

// pairHeap orders in-flight pairs by their earliest flow, maintaining each
// pair's heap index for O(log n) Fix when its flows' finish times move.
type pairHeap []*fPair

func (h pairHeap) Len() int           { return len(h) }
func (h pairHeap) Less(i, j int) bool { return h[i].first.before(h[j].first) }
func (h pairHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].hidx = i
	h[j].hidx = j
}
func (h *pairHeap) Push(x any) {
	p := x.(*fPair)
	p.hidx = len(*h)
	*h = append(*h, p)
}
func (h *pairHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}

// settleNode brings node i's traffic integrals up to now from its links'
// rate sums. Must run before a refill changes the sums.
func (fb *Fabric) settleNode(i int) {
	now := fb.eng.now
	if dt := now - fb.nodeLast[i]; dt > 0 {
		fb.nodeLast[i] = now
		fb.rxIntegral[i] += fb.links[fb.nodes+i].sum * dt
		fb.txIntegral[i] += fb.links[i].sum * dt
	}
}

// fastStart admits a flow: complete anything that finished on the way
// here, register the newcomer, refill its component, rearm the timer.
func (fb *Fabric) fastStart(f *Flow) {
	now := fb.eng.now
	f.seq = fb.seqCtr
	fb.seqCtr++
	f.settledAt = now
	dirty := fb.fastCollect()
	if f.Src == f.Dst {
		f.loop = true
		f.rate = fb.loopbackBW
		f.finish = now + f.remaining/fb.loopbackBW
		fb.admit(f)
	} else {
		f.rate = 0
		f.finish = math.Inf(1)
		fb.admit(f)
		dirty = append(dirty, f.Src, fb.nodes+f.Dst)
	}
	if len(dirty) > 0 {
		fb.refill(dirty)
	}
	fb.fastProgram()
}

// admit adds a flow to its pair, opening the pair if it had no flow in
// flight. A network newcomer's finish is +Inf and its seq the largest, so
// an open pair's heap key stands; a loopback one may be the earliest.
func (fb *Fabric) admit(f *Flow) {
	if fb.pairOf == nil {
		fb.pairOf = make([]*fPair, fb.nodes*fb.nodes)
	}
	fb.nflows++
	id := f.Src*fb.nodes + f.Dst
	p := fb.pairOf[id]
	if p == nil {
		p = fb.openPair(f)
		fb.pairOf[id] = p
	} else {
		p.flows = append(p.flows, f)
		if f.before(p.first) {
			p.first = f
			heap.Fix(&fb.pheap, p.hidx)
		}
	}
	if !f.loop {
		fb.links[f.Src].flows++
		fb.links[fb.nodes+f.Dst].flows++
		p.fresh = true
	}
}

// openPair takes a pooled pair for f's (Src, Dst) with f its one flow and
// enters it in the heap and, for a network pair, in both links'
// registries.
func (fb *Fabric) openPair(f *Flow) *fPair {
	var p *fPair
	if n := len(fb.ppool); n > 0 {
		p = fb.ppool[n-1]
		fb.ppool = fb.ppool[:n-1]
	} else {
		p = &fPair{}
	}
	p.src, p.dst = f.Src, f.Dst
	p.flows = append(p.flows, f)
	p.first, p.rate = f, f.rate
	heap.Push(&fb.pheap, p)
	if !f.loop {
		eg, in := &fb.links[f.Src], &fb.links[fb.nodes+f.Dst]
		i, _ := slices.BinarySearchFunc(eg.pairs, p, pairCmp)
		eg.pairs = slices.Insert(eg.pairs, i, p)
		i, _ = slices.BinarySearchFunc(in.pairs, p, pairCmp)
		in.pairs = slices.Insert(in.pairs, i, p)
	}
	return p
}

// release takes a finished flow out of its pair, repairing the pair's
// heap entry, or closing the pair back into the pool if it was the last.
func (fb *Fabric) release(f *Flow) {
	fb.nflows--
	id := f.Src*fb.nodes + f.Dst
	p := fb.pairOf[id]
	i := slices.Index(p.flows, f)
	p.flows = slices.Delete(p.flows, i, i+1)
	if !f.loop {
		fb.links[f.Src].flows--
		fb.links[fb.nodes+f.Dst].flows--
	}
	if len(p.flows) > 0 {
		p.first = earliest(p.flows)
		heap.Fix(&fb.pheap, p.hidx)
		return
	}
	heap.Remove(&fb.pheap, p.hidx)
	if !f.loop {
		eg, in := &fb.links[f.Src], &fb.links[fb.nodes+f.Dst]
		i, _ = slices.BinarySearchFunc(eg.pairs, p, pairCmp)
		eg.pairs = slices.Delete(eg.pairs, i, i+1)
		i, _ = slices.BinarySearchFunc(in.pairs, p, pairCmp)
		in.pairs = slices.Delete(in.pairs, i, i+1)
	}
	p.first = nil
	fb.pairOf[id] = nil
	fb.ppool = append(fb.ppool, p)
}

// earliest returns the flow that completes first among flows.
func earliest(flows []*Flow) *Flow {
	first := flows[0]
	for _, f := range flows[1:] {
		if f.before(first) {
			first = f
		}
	}
	return first
}

// fastTick is the completion-timer body.
func (fb *Fabric) fastTick() {
	dirty := fb.fastCollect()
	if len(dirty) > 0 {
		fb.refill(dirty)
	}
	fb.fastProgram()
}

// fastCollect pops every finished flow in completion order, fires its
// callback in (Src, Dst), then start order, and returns the links those
// flows vacated.
func (fb *Fabric) fastCollect() []int {
	fb.dirty = fb.dirty[:0]
	now := fb.eng.now
	batch := fb.fbatch[:0]
	for len(fb.pheap) > 0 {
		f := fb.pheap[0].first
		rem := f.remaining - f.rate*(now-f.settledAt)
		if !flowDone(rem, f.rate) && !(f.finish <= now) {
			break
		}
		fb.release(f)
		batch = append(batch, f)
	}
	fb.fbatch = batch[:0]
	if len(batch) == 0 {
		return fb.dirty
	}
	slices.SortFunc(batch, flowCmp)
	for _, f := range batch {
		if !f.loop {
			fb.dirty = append(fb.dirty, f.Src, fb.nodes+f.Dst)
		}
		if f.onDone != nil {
			fb.eng.Post(0, f.onDone)
		}
		// The flow is out of its pair and the heap and its callback is
		// queued by value; the object can serve the next transfer.
		f.onDone = nil
		fb.fpool = append(fb.fpool, f)
	}
	return fb.dirty
}

// refill recomputes max-min rates for the connected component of links
// reachable from the dirty set, leaving every other flow untouched. The
// progressive filling visits bottleneck links by smallest fair share
// (ties to the lowest link index) and pairs within a bottleneck in
// (Src, Dst) order.
func (fb *Fabric) refill(dirtyLinks []int) {
	fb.fillEpoch++
	ep := fb.fillEpoch

	// Flood the component over the pair-link incidence graph.
	comp := fb.comp[:0]
	stack := fb.stack[:0]
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
		for _, p := range fb.links[li].pairs {
			other := p.src
			if li == p.src {
				other = fb.nodes + p.dst
			}
			if fb.links[other].mark != ep {
				fb.links[other].mark = ep
				stack = append(stack, other)
			}
		}
	}
	fb.comp, fb.stack = comp, stack[:0]
	slices.Sort(comp)

	// Settle the touched nodes' integrals at the old rate sums.
	unassigned := 0
	for _, li := range comp {
		node := li
		if li >= fb.nodes {
			node = li - fb.nodes
		}
		fb.settleNode(node)
		l := &fb.links[li]
		l.cap = fb.linkBW
		l.count = l.flows
		unassigned += l.count
	}
	unassigned /= 2 // every network flow sits on exactly two component links

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
		for _, p := range fb.links[bottleneck].pairs {
			if p.mark == ep {
				continue
			}
			p.mark = ep
			k := len(p.flows)
			// One subtraction per flow, as the per-flow fill does them.
			eg, in := &fb.links[p.src], &fb.links[fb.nodes+p.dst]
			egCap, inCap := eg.cap, in.cap
			for range k {
				egCap -= best
				inCap -= best
			}
			eg.cap, in.cap = egCap, inCap
			eg.count -= k
			in.count -= k
			unassigned -= k
			fb.applyRate(p, best, now)
		}
		if fb.links[bottleneck].cap < 0 {
			fb.links[bottleneck].cap = 0
		}
	}

	// Refresh the component's rate sums: each pair's rate is added once
	// per flow, in (Src, Dst) order, as the per-flow allocator summed its
	// flows.
	for _, li := range comp {
		l := &fb.links[li]
		sum := 0.0
		for _, p := range l.pairs {
			for range len(p.flows) {
				sum += p.rate
			}
		}
		l.sum = sum
	}
}

// applyRate installs a pair's new rate on each of its flows whose rate
// differs, settling the flow's remaining bytes at the old rate first, and
// repairs the pair's heap entry at once. A pair whose rate is unchanged
// and that admitted no flow since its last fill is left completely alone:
// its flows keep their finish times and its heap entry stands.
func (fb *Fabric) applyRate(p *fPair, rate, now float64) {
	if rate == p.rate && !p.fresh {
		return
	}
	p.rate, p.fresh = rate, false
	for _, f := range p.flows {
		if f.rate == rate {
			continue
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
	}
	p.first = earliest(p.flows)
	heap.Fix(&fb.pheap, p.hidx)
}

// fastProgram arms the completion timer for the earliest predicted
// finisher, reusing one Timer allocation for the fabric's lifetime.
func (fb *Fabric) fastProgram() {
	if fb.vtimer == nil {
		fb.vtimer = &Timer{eng: fb.eng, index: -1, fn: fb.fastTick}
	} else {
		fb.vtimer.Cancel()
	}
	if len(fb.pheap) == 0 {
		return
	}
	next := fb.pheap[0].first.finish
	if math.IsInf(next, 1) {
		return
	}
	fb.eng.rearm(fb.vtimer, next-fb.eng.now)
}
