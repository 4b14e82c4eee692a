package sim

// Fabric models a non-blocking switched network (the paper's 1 Gigabit
// Ethernet switch): every node has a full-duplex link to the switch, and
// concurrent flows receive progressive-filling max-min fair rates over
// their source egress and destination ingress links.
//
// Node-local transfers (src == dst) bypass the switch and are served at
// loopbackBW without contending with network flows, mirroring the kernel
// loopback path.
type Fabric struct {
	eng        *Engine
	nodes      int
	linkBW     float64 // bytes/sec, per direction, per node
	loopbackBW float64

	// Per-node traffic integrals for utilization accounting, settled
	// lazily from the links' rate sums.
	rxIntegral []float64
	txIntegral []float64

	// Incremental allocator state (see fabric_fast.go).
	links     []fLink   // per-link pair registries: egress i -> i, ingress i -> nodes+i
	pairOf    []*fPair  // open pair src*nodes+dst, nil when idle
	ppool     []*fPair  // closed pairs, reused with their flow slices
	pheap     pairHeap  // pairs in flight by earliest (predicted finish, seq) flow
	nflows    int       // flows in flight
	nodeLast  []float64 // per-node integral settle time
	vtimer    *Timer    // reusable completion timer
	seqCtr    int64
	fillEpoch int
	// scratch buffers, reused across refills
	comp   []int
	stack  []int
	fbatch []*Flow
	dirty  []int

	// fpool is the flow free list: completed flows return here after
	// their callback is dispatched. No caller retains flow handles past
	// completion (StartFlow's return value is only a handle for the
	// in-flight transfer), so recycling is safe.
	fpool []*Flow

	// Zero-byte flow queue: empty-partition sends complete on the next
	// event tick without ever registering on a link, but their handles
	// are pooled too. One Post per flow of the prebound zfire func
	// preserves callback order against interleaved events.
	zq    []*Flow
	zhead int
	zfire func()
}

// fLink is one directed link's pair registry, kept in (Src, Dst) order so
// refills touch pairs (and so flows) in a deterministic order. flows
// counts the network flows crossing the link and sum is their rate sum as
// of the last refill; cap/count/mark are scratch state for the current
// fill pass.
type fLink struct {
	pairs []*fPair
	flows int
	sum   float64
	cap   float64
	count int
	mark  int
}

// Flow is an in-progress network transfer.
type Flow struct {
	Src, Dst  int
	remaining float64
	rate      float64
	onDone    func()

	seq       int64
	settledAt float64 // sim time at which remaining was last materialized
	finish    float64 // predicted completion time, absolute
	loop      bool    // node-local transfer, fixed loopback rate
}

// NewFabric creates a switched fabric for n nodes with the given per-link
// bandwidth (bytes/second each direction).
func NewFabric(eng *Engine, n int, linkBW float64) *Fabric {
	if n <= 0 || linkBW <= 0 {
		panic("sim: fabric needs nodes and positive bandwidth")
	}
	return &Fabric{
		eng:        eng,
		nodes:      n,
		linkBW:     linkBW,
		loopbackBW: 40 * linkBW, // loopback is effectively a memcpy
		rxIntegral: make([]float64, n),
		txIntegral: make([]float64, n),
		links:      make([]fLink, 2*n),
		nodeLast:   make([]float64, n),
	}
}

// Nodes returns the number of endpoints.
func (fb *Fabric) Nodes() int { return fb.nodes }

// Transfer moves bytes from src to dst, blocking the proc until delivery
// completes under max-min fair sharing.
func (fb *Fabric) Transfer(p *Proc, src, dst int, bytes float64, reason string) {
	if bytes <= workEpsilon {
		return
	}
	fb.fastStart(fb.newFlow(src, dst, bytes, p.Unpark))
	p.Park(reason)
}

// StartFlow begins an asynchronous transfer; onDone runs in kernel context
// at completion. It returns the flow handle, valid while the transfer is
// in flight.
func (fb *Fabric) StartFlow(src, dst int, bytes float64, onDone func()) *Flow {
	if bytes <= workEpsilon {
		// The flow never registers on a link; it completes on the next
		// event tick. These handles are pooled like any other flow
		// (empty-partition sends make them common): each queues FIFO
		// behind one Post of the prebound zfire func, so callbacks
		// interleave with other events exactly as direct Posts would.
		if onDone == nil {
			return &Flow{Src: src, Dst: dst, remaining: bytes}
		}
		f := fb.newFlow(src, dst, bytes, onDone)
		if fb.zfire == nil {
			fb.zfire = fb.zeroFire
		}
		fb.zq = append(fb.zq, f)
		fb.eng.Post(0, fb.zfire)
		return f
	}
	f := fb.newFlow(src, dst, bytes, onDone)
	fb.fastStart(f)
	return f
}

// zeroFire completes the oldest queued zero-byte flow: the handle goes
// back to the pool before its callback runs (the callback may start new
// flows that reuse it immediately).
func (fb *Fabric) zeroFire() {
	f := fb.zq[fb.zhead]
	fb.zq[fb.zhead] = nil
	fb.zhead++
	if fb.zhead == len(fb.zq) {
		fb.zq = fb.zq[:0]
		fb.zhead = 0
	}
	cb := f.onDone
	*f = Flow{}
	fb.fpool = append(fb.fpool, f)
	cb()
}

// newFlow pops a pooled flow handle or allocates a fresh one.
func (fb *Fabric) newFlow(src, dst int, bytes float64, onDone func()) *Flow {
	var f *Flow
	if n := len(fb.fpool); n > 0 {
		f = fb.fpool[n-1]
		fb.fpool[n-1] = nil
		fb.fpool = fb.fpool[:n-1]
	} else {
		f = &Flow{}
	}
	*f = Flow{Src: src, Dst: dst, remaining: bytes, onDone: onDone}
	return f
}

// RxIntegral returns total bytes received by node i so far. O(1): only
// node i's integral is settled from its links' rate sums, instead of
// advancing every flow in the fabric per profiler sample.
func (fb *Fabric) RxIntegral(i int) float64 {
	fb.settleNode(i)
	return fb.rxIntegral[i]
}

// TxIntegral returns total bytes sent by node i so far.
func (fb *Fabric) TxIntegral(i int) float64 {
	fb.settleNode(i)
	return fb.txIntegral[i]
}

// ActiveFlows returns the number of in-flight transfers.
func (fb *Fabric) ActiveFlows() int { return fb.nflows }
