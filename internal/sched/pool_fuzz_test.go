package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/datampi/datampi-go/internal/sim"
)

// FuzzSlotPoolGrantOrder drives one SlotPool with random Acquire, Release,
// cancel-while-queued, cancel-between-grant-and-wake, Grow and Shrink
// steps from 2-4 weighted jobs on 2-4 nodes, under FIFO and under Fair,
// against a model that keeps one flat slice of waiters per node and picks
// the minimum of the documented order at every grant: weighted held share
// under Fair, then job admission seq, then waiter seq. Each step runs at
// its own simulated second, so by the next one every grant's wake-up has
// fired and the waiters record grants in the order the pool made them.
// After every step the pool's grants, free slots, held counts and Starved
// answer must equal the model's and free + held - debt must equal the
// width on every node; at quiesce no job accounting may be left.
func FuzzSlotPoolGrantOrder(f *testing.F) {
	// Seeds: long random step sequences, so the corpus alone keeps queues
	// several jobs deep on every node under both policies.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		ops := make([]byte, 400)
		rng.Read(ops)
		ops[2] = byte(i) // policy alternates
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		nJobs, nodes := 2+int(data[0])%3, 2+int(data[1])%3
		policy := Policy(int(data[2]) % 2)
		width := 1 + int(data[3])%3
		data = data[4:]
		jobs := make([]*JobHandle, nJobs)
		for j := range jobs {
			w := 1
			if j < len(data) {
				w += int(data[j]) % 3
			}
			// Distinct admission seqs, as the Queue hands out, in an order
			// that is not the job index.
			jobs[j] = &JobHandle{name: fmt.Sprint("j", j), seq: (j*3 + 1) % 7, weight: float64(w)}
		}
		// At most 300 steps: the model rescans every waiter per check.
		data = data[min(nJobs, len(data)):]
		checkGrantOrder(t, policy, nodes, width, jobs, data[:min(600, len(data))])
	})
}

// modelWaiter is one Acquire, in the model and in the run.
type modelWaiter struct {
	id   int
	job  int
	node int
	seq  int64
	at   float64
	p    *sim.Proc
}

func checkGrantOrder(t *testing.T, policy Policy, nodes, width int, jobs []*JobHandle, ops []byte) {
	t.Helper()
	const patience = 2
	eng := sim.NewEngine()
	sp := NewSlotPool(policy, nodes, width)

	// The model: per-node flat waiter slices, free slots, shrink debt and
	// per-(node, job) held slots.
	queued := make([][]*modelWaiter, nodes)
	free, debt := make([]int, nodes), make([]int, nodes)
	held := make([][]int, nodes)
	for n := range held {
		free[n] = width
		held[n] = make([]int, len(jobs))
	}
	perNode := width
	var seq int64
	var want, got []int        // waiter ids in grant order
	var waiters []*modelWaiter // by id
	step := 0

	jobHeld := func(j int) int {
		s := 0
		for n := range held {
			s += held[n][j]
		}
		return s
	}
	demand := func(j int) bool {
		if jobHeld(j) > 0 {
			return true
		}
		for _, ws := range queued {
			for _, w := range ws {
				if w.job == j {
					return true
				}
			}
		}
		return false
	}
	fairShare := func(j int) float64 {
		total, wsum := float64(nodes*perNode), 0.0
		for k, h := range jobs {
			if demand(k) {
				wsum += h.weight
			}
		}
		if wsum == 0 {
			return total
		}
		return total * jobs[j].weight / wsum
	}
	// before is the documented grant order over two waiters on one node.
	before := func(a, b *modelWaiter) bool {
		if policy == Fair {
			sa := float64(jobHeld(a.job)) / jobs[a.job].weight
			sb := float64(jobHeld(b.job)) / jobs[b.job].weight
			if sa != sb {
				return sa < sb
			}
		}
		if ha, hb := jobs[a.job].seq, jobs[b.job].seq; ha != hb {
			return ha < hb
		}
		return a.seq < b.seq
	}
	grant := func(n int) {
		for free[n] > 0 && len(queued[n]) > 0 {
			bi := 0
			for i, w := range queued[n] {
				if before(w, queued[n][bi]) {
					bi = i
				}
			}
			w := queued[n][bi]
			queued[n] = slices.Delete(queued[n], bi, bi+1)
			free[n]--
			held[n][w.job]++
			want = append(want, w.id)
		}
	}
	starved := func(now float64) (*JobHandle, int) {
		var best *modelWaiter
		for _, ws := range queued {
			for _, w := range ws {
				if now-w.at < patience || float64(jobHeld(w.job))+1 > fairShare(w.job)+1e-9 {
					continue
				}
				if best == nil || jobs[w.job].seq < jobs[best.job].seq ||
					(w.job == best.job && w.seq < best.seq) {
					best = w
				}
			}
		}
		if best == nil {
			return nil, -1
		}
		return jobs[best.job], best.node
	}
	release := func(n, j int) {
		sp.Release(n, jobs[j])
		held[n][j]--
		if debt[n] > 0 {
			debt[n]--
			return
		}
		free[n]++
		grant(n)
	}
	// heldSlot picks a (node, job) holding a slot, or ok false.
	heldSlot := func(pick int) (n, j int, ok bool) {
		var all [][2]int
		for n := range held {
			for j, c := range held[n] {
				if c > 0 {
					all = append(all, [2]int{n, j})
				}
			}
		}
		if len(all) == 0 {
			return 0, 0, false
		}
		s := all[pick%len(all)]
		return s[0], s[1], true
	}
	acquire := func(n, j int) {
		w := &modelWaiter{id: len(waiters), job: j, node: n, seq: seq, at: eng.Now()}
		waiters = append(waiters, w)
		if free[n] > 0 {
			free[n]--
			held[n][j]++
			want = append(want, w.id)
		} else {
			seq++
			queued[n] = append(queued[n], w)
		}
		w.p = eng.Go("w", func(p *sim.Proc) {
			defer func() {
				if r := recover(); r != nil && !sim.IsKilled(r) {
					panic(r)
				}
			}()
			sp.Acquire(p, n, jobs[j], "slot")
			got = append(got, w.id)
		})
	}
	check := func(step int) {
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: pool granted %v, model %v", step, got, want)
		}
		for n := 0; n < nodes; n++ {
			h := 0
			for _, c := range held[n] {
				h += c
			}
			if sp.Free(n) != free[n] || sp.Debt(n) != debt[n] || sp.PerNode() != perNode {
				t.Fatalf("step %d node %d: free %d debt %d width %d, model %d %d %d",
					step, n, sp.Free(n), sp.Debt(n), sp.PerNode(), free[n], debt[n], perNode)
			}
			if sp.Free(n)+h-sp.Debt(n) != sp.PerNode() {
				t.Fatalf("step %d node %d: free %d + held %d - debt %d != width %d",
					step, n, sp.Free(n), h, sp.Debt(n), sp.PerNode())
			}
		}
		for j, h := range jobs {
			if sp.Held(h) != jobHeld(j) {
				t.Fatalf("step %d: job %d holds %d, model %d", step, j, sp.Held(h), jobHeld(j))
			}
		}
		gh, gn := sp.Starved(eng.Now(), patience)
		if wh, wn := starved(eng.Now()); gh != wh || gn != wn {
			t.Fatalf("step %d: Starved = %v on %d, model %v on %d", step, gh, gn, wh, wn)
		}
	}

	var run func(ops []byte)
	run = func(ops []byte) {
		check(step)
		if len(ops) < 2 {
			// Drain: cancel every queued waiter, then, once they have
			// unwound, release every held slot.
			for n, ws := range queued {
				for _, w := range ws {
					w.p.Cancel()
				}
				queued[n] = nil
			}
			eng.Schedule(1, func() {
				for n := range held {
					for j := range held[n] {
						for held[n][j] > 0 {
							release(n, j)
						}
					}
				}
			})
			return
		}
		op, arg := ops[0]%8, int(ops[1])
		switch op {
		case 0, 1, 2, 3: // acquire
			acquire(arg%nodes, (arg/nodes)%len(jobs))
		case 4: // release
			if n, j, ok := heldSlot(arg); ok {
				release(n, j)
			}
		case 5: // cancel a queued waiter
			var all []*modelWaiter
			for _, ws := range queued {
				all = append(all, ws...)
			}
			if len(all) > 0 {
				w := all[arg%len(all)]
				queued[w.node] = slices.DeleteFunc(queued[w.node], func(o *modelWaiter) bool { return o == w })
				w.p.Cancel()
			}
		case 6: // release, then cancel the waiter it granted before it wakes
			if n, j, ok := heldSlot(arg); ok {
				nw := len(want)
				release(n, j)
				if len(want) > nw {
					w := waiters[want[nw]]
					want = want[:nw]
					held[n][w.job]--
					free[n]++
					grant(n)
					w.p.Cancel()
				}
			}
		case 7: // grow or shrink
			if arg%2 == 0 {
				to := min(perNode+1+arg/2%2, 4)
				sp.Grow(to)
				if to > perNode {
					delta := to - perNode
					perNode = to
					for n := range free {
						forgiven := min(debt[n], delta)
						debt[n] -= forgiven
						if add := delta - forgiven; add > 0 {
							free[n] += add
							grant(n)
						}
					}
				}
			} else {
				to := max(perNode-1, 1)
				sp.Shrink(to)
				delta := perNode - to
				perNode = to
				for n := range free {
					take := min(delta, free[n])
					free[n] -= take
					debt[n] += delta - take
				}
			}
		}
		step++
		eng.Schedule(1, func() { run(ops[2:]) })
	}
	eng.Schedule(0, func() { run(ops) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	check(step)
	if len(sp.info) != 0 || sp.wSum != 0 {
		t.Fatalf("quiesced pool keeps accounting for %d jobs, weight sum %v", len(sp.info), sp.wSum)
	}
}
