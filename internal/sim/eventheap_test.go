package sim

import (
	"container/heap"
	"testing"
)

// refTimer and refHeap are the event queue as it was written before the
// kernel got its own heap: container/heap over the same (at, seq) order.
// They stay here as the oracle — the kernel's heap must pop in the same
// order and also keep every timer in the same slot.
type refTimer struct {
	at    float64
	seq   int64
	index int
	id    int
}

type refHeap []*refTimer

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	t := x.(*refTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}

// A heap script is a run of 3-byte events {op, a, b}. Delays are a&7, so
// same-instant ties (ordered by seq alone) are the common case.
const (
	heapSchedule = iota // Schedule(a&7), keeping the handle
	heapPost            // Post(a&7)
	heapCancel          // Cancel handle b — pending, fired or cancelled before
	heapReset           // Reset handle b to a&7 from now
	heapPop             // fire the earliest event
	heapOps
)

func FuzzEventHeapMatchesContainerHeap(f *testing.F) {
	f.Add([]byte{
		// five timers at one instant, then a later and an earlier one
		heapSchedule, 3, 0, heapPost, 3, 0, heapSchedule, 3, 0, heapPost, 3, 0, heapSchedule, 3, 0,
		heapSchedule, 5, 0, heapSchedule, 1, 0,
		heapPop, 0, 0, heapPop, 0, 0, heapPop, 0, 0, heapPop, 0, 0, heapPop, 0, 0, heapPop, 0, 0, heapPop, 0, 0,
	})
	f.Add([]byte{
		// cancel the timer in the last slot, the root, one in the middle, one twice
		heapSchedule, 1, 0, heapSchedule, 2, 0, heapSchedule, 3, 0, heapSchedule, 4, 0, heapSchedule, 5, 0,
		heapCancel, 0, 4, heapCancel, 0, 0, heapCancel, 0, 2, heapCancel, 0, 2,
		heapPop, 0, 0, heapPop, 0, 0, heapPop, 0, 0,
	})
	f.Add([]byte{
		// reset pending timers both ways, reset a fired and a cancelled one
		heapSchedule, 6, 0, heapSchedule, 2, 0, heapSchedule, 4, 0, heapSchedule, 4, 0,
		heapReset, 0, 0, heapReset, 7, 1, heapPop, 0, 0, heapReset, 3, 0,
		heapCancel, 0, 2, heapReset, 1, 2, heapPost, 1, 0,
		heapPop, 0, 0, heapPop, 0, 0, heapPop, 0, 0, heapPop, 0, 0, heapPop, 0, 0,
	})
	f.Add([]byte{heapPop, 0, 0, heapCancel, 0, 0, heapSchedule, 0, 0, heapCancel, 0, 0, heapPop, 0, 0})

	f.Fuzz(func(t *testing.T, script []byte) {
		e := NewEngine()
		var ref refHeap
		var refNow float64
		var refSeq int64
		type handle struct {
			tm  *Timer
			ref *refTimer
		}
		var handles []handle
		var fired []int
		nextID := 0
		arm := func(r *refTimer, delay float64) {
			r.at, r.seq = refNow+delay, refSeq
			refSeq++
			heap.Push(&ref, r)
		}
		for ev := 0; (ev+1)*3 <= len(script) && ev < 512; ev++ {
			op, a, b := script[ev*3]%heapOps, script[ev*3+1], script[ev*3+2]
			delay := float64(a & 7)
			switch op {
			case heapSchedule, heapPost:
				id := nextID
				nextID++
				fn := func() { fired = append(fired, id) }
				r := &refTimer{id: id}
				arm(r, delay)
				if op == heapPost {
					e.Post(delay, fn)
				} else {
					handles = append(handles, handle{e.Schedule(delay, fn), r})
				}
			case heapCancel:
				if len(handles) == 0 {
					continue
				}
				h := handles[int(b)%len(handles)]
				h.tm.Cancel()
				if h.ref.index >= 0 {
					heap.Remove(&ref, h.ref.index)
				}
			case heapReset:
				if len(handles) == 0 {
					continue
				}
				h := handles[int(b)%len(handles)]
				h.tm.Reset(delay)
				if h.ref.index >= 0 {
					heap.Remove(&ref, h.ref.index)
				}
				arm(h.ref, delay)
			case heapPop:
				if len(ref) == 0 {
					if len(e.events) != 0 {
						t.Fatalf("event %d: oracle empty, kernel holds %d", ev, len(e.events))
					}
					continue
				}
				want := heap.Pop(&ref).(*refTimer)
				refNow = want.at
				n := len(fired)
				if err := e.step(); err != nil {
					t.Fatal(err)
				}
				if len(fired) != n+1 || fired[n] != want.id || e.Now() != refNow {
					t.Fatalf("event %d: fired %v at t=%v, want id %d at t=%v", ev, fired[n:], e.Now(), want.id, refNow)
				}
			}
			if len(e.events) != len(ref) {
				t.Fatalf("event %d: %d queued, oracle %d", ev, len(e.events), len(ref))
			}
			for i, tm := range e.events {
				if r := ref[i]; tm.index != i || tm.at != r.at || tm.seq != r.seq {
					t.Fatalf("event %d slot %d: (at %v seq %d index %d), oracle (at %v seq %d)",
						ev, i, tm.at, tm.seq, tm.index, r.at, r.seq)
				}
			}
			for k, h := range handles {
				if h.tm.index != h.ref.index || h.tm.At() != h.ref.at {
					t.Fatalf("event %d handle %d: index %d At %v, oracle index %d at %v",
						ev, k, h.tm.index, h.tm.At(), h.ref.index, h.ref.at)
				}
			}
		}
	})
}
