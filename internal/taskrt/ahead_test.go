package taskrt

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/sched"
)

// withProcs runs the test at GOMAXPROCS n.
func withProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// start is Ahead for a job the test stops when it ends, so no test leaves
// budget to the next.
func start[T any](t *testing.T, n int, work func(i int) T) *Pending[T] {
	j := new(Job)
	t.Cleanup(j.stopAhead)
	return Ahead(j, "", make([]*dfs.Block, n), 0, 0, 0, work)
}

// readyNow is how many results wait for a Take, process-wide.
func readyNow() int {
	ahead.mu.Lock()
	defer ahead.mu.Unlock()
	return ahead.ready
}

// squares is a work function whose result is fresh memory.
func squares(i int) []int {
	out := make([]int, i+1)
	for k := range out {
		out[k] = k * i
	}
	return out
}

// soon fails the test unless f returns within a few seconds.
func soon(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

func TestAheadMatchesInlineAtAnyWorkerCount(t *testing.T) {
	const n = 40
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprint(procs), func(t *testing.T) {
			withProcs(t, procs)
			p := start(t, n, squares)
			// Out of order, as simulated tasks reach their items.
			for _, i := range []int{n - 1, 0, n / 2, 3} {
				if got := p.Take(i); !slices.Equal(got, squares(i)) {
					t.Fatalf("item %d: %v, want %v", i, got, squares(i))
				}
			}
			for i := range n {
				if got := p.Take(i); !slices.Equal(got, squares(i)) {
					t.Fatalf("item %d taken again: %v, want %v", i, got, squares(i))
				}
			}
		})
	}
}

func TestAheadLaterTakeRecomputes(t *testing.T) {
	withProcs(t, 2)
	var calls [3]atomic.Int32
	p := start(t, 3, func(i int) []int { calls[i].Add(1); return squares(i + 1) })
	first, second := p.Take(2), p.Take(2)
	if !slices.Equal(first, second) {
		t.Fatalf("takes differ: %v, %v", first, second)
	}
	if &first[0] == &second[0] {
		t.Fatal("the second Take returned the first one's memory")
	}
	if c := calls[2].Load(); c != 2 {
		t.Fatalf("item 2 computed %d times for two takes", c)
	}
}

// gated returns a work function whose items below n block until gate is
// closed, each telling started when it begins; item n and above do not.
func gated(n int, gate chan struct{}, started chan int, calls *atomic.Int32) func(int) int {
	return func(i int) int {
		calls.Add(1)
		if i < n {
			started <- i
			<-gate
		}
		return i * i
	}
}

func TestAheadTakeRunsAnUnstartedItemOnTheCaller(t *testing.T) {
	withProcs(t, 2) // two workers
	gate, started := make(chan struct{}), make(chan int, 4)
	var calls atomic.Int32
	p := start(t, 4, gated(2, gate, started, &calls))
	<-started
	<-started // both workers hold an item behind the gate
	soon(t, "Take of an item no worker started", func() {
		if got := p.Take(3); got != 9 {
			t.Errorf("item 3 = %d", got)
		}
	})
	close(gate)
	for i := range 4 {
		if got := p.Take(i); got != i*i {
			t.Fatalf("item %d = %d", i, got)
		}
	}
	// 0 and 1 on the workers, 3 on the caller twice, 2 on whoever came
	// first: never more.
	if c := calls.Load(); c != 5 {
		t.Fatalf("%d calls, want 5", c)
	}
}

func TestAheadStopsAtFinishAndFail(t *testing.T) {
	for _, how := range []string{"Finish", "Fail"} {
		t.Run(how, func(t *testing.T) {
			withProcs(t, 2)
			c, b := testBase()
			j := b.Begin("ahead", sched.Solo(c.Eng, c.N()), 0)
			gate, started := make(chan struct{}), make(chan int, 8)
			var calls atomic.Int32
			p := Ahead(j, "", make([]*dfs.Block, 8), 0, 0, 0, gated(8, gate, started, &calls))
			<-started
			<-started
			if how == "Finish" {
				j.Finish(nil)
			} else {
				j.Fail(errors.New("boom"))
			}
			close(gate)
			// The two running items finish and are dropped, so their Takes
			// compute them again; no other item starts.
			soon(t, "Take of a started item", func() { p.Take(0); p.Take(1) })
			if c := calls.Load(); c != 4 {
				t.Fatalf("%d calls, want the 2 already running and the 2 takes", c)
			}
			if got := p.Take(5); got != 25 {
				t.Fatalf("item 5 after %s = %d", how, got)
			}
		})
	}
}

// panicOf returns what f panics with; nil if it returns.
func panicOf(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestAheadTakeSeesWorkErrorsAndPanics: a result's error reaches its Take
// as it is, and a panic on a worker is raised again by the item's first
// Take — under a fingerprint too, where it leaves the shared cell idle, so
// the next caller, another job's or a later Take, computes afresh. A tail
// whose merge panics leaves no entry in the record store. Both run on an
// empty store.
func TestAheadTakeSeesWorkErrorsAndPanics(t *testing.T) {
	withProcs(t, 2)
	errs := []error{errors.New("zero"), nil, errors.New("two")}
	p := start(t, len(errs), func(i int) error { return errs[i] })
	for i, want := range errs {
		if got := p.Take(i); got != want {
			t.Fatalf("item %d: error %v, want %v", i, got, want)
		}
	}

	// The work panics on its first call alone, so a Take that computed the
	// item afresh would return 1.
	onWorker := func() (func(int) int, func()) {
		gate, started := make(chan struct{}), make(chan int, 1)
		var calls atomic.Int32
		return func(int) int {
				if calls.Add(1) == 1 {
					started <- 0
					<-gate
					panic("kaboom")
				}
				return 1
			}, func() {
				<-started // on a worker, not the caller
				close(gate)
			}
	}
	t.Run("own", func(t *testing.T) {
		work, release := onWorker()
		q := start(t, 1, work)
		release()
		if r := panicOf(func() { q.Take(0) }); r != "kaboom" {
			t.Fatalf("Take panicked with %v, want the worker's panic", r)
		}
	})
	t.Run("fingerprint", func(t *testing.T) {
		emptyStore(t, storeBudget)
		_, b := testBase()
		blocks := []*dfs.Block{{ID: 1}}
		work, release := onWorker()
		first := Ahead(sharedJob(t, b), "kaboom", blocks, 0, 0, 1, work)
		release()
		if r := panicOf(func() { first.Take(0) }); r != "kaboom" {
			t.Fatalf("Take panicked with %v, want the worker's panic", r)
		}
		ahead.mu.Lock()
		state := first.es[0].state
		ahead.mu.Unlock()
		if state != idle {
			t.Fatalf("the shared cell is in state %d after a panic, want idle", state)
		}
		second := Ahead(sharedJob(t, b), "kaboom", blocks, 0, 0, 1, func(int) int { return 7 })
		if got := second.Take(0); got != 7 {
			t.Fatalf("a second job of the fingerprint took %d, want its own 7", got)
		}
		if got := first.Take(0); got != 7 {
			t.Fatalf("a later Take took %d, want the store's 7", got)
		}
	})
	t.Run("tail", func(t *testing.T) {
		store := emptyStore(t, storeBudget)
		_, b := testBase()
		var calls atomic.Int64
		spec := countedWords(b, "words", &calls)
		var boom atomic.Bool
		boom.Store(true)
		reduce := spec.Reduce
		spec.Reduce = func(key []byte, values [][]byte) []kv.Pair {
			if boom.Load() {
				panic("kaboom")
			}
			return reduce(key, values)
		}
		_, maps := tailJob(t, b, &spec, spec.Input.Blocks)
		var runs [][]kv.Pair
		for i := range spec.Input.Blocks {
			runs = append(runs, maps.Take(i).Out.Parts[0])
		}
		tails := func() int {
			ahead.mu.Lock()
			defer ahead.mu.Unlock()
			return len(store.tails)
		}
		// On a worker or on the caller, as the tail was reached.
		if r := panicOf(func() { maps.Tail(0, runs) }); r != "kaboom" {
			t.Fatalf("Tail panicked with %v, want the merge's panic", r)
		}
		until(t, "the other tail", func() bool { return ahead.workers == 0 }) // it panics too
		if n := tails(); n != 0 {
			t.Fatalf("%d tails in the store after a panic", n)
		}
		boom.Store(false)
		if text, _ := maps.Tail(0, runs); len(text) == 0 {
			t.Fatal("a later Tail merged no text")
		}
		if n := tails(); n != 1 {
			t.Fatalf("%d tails in the store, want the later one", n)
		}
	})
}

func TestAheadStaysWithinItsBudget(t *testing.T) {
	withProcs(t, 2)
	n := aheadBudget + 50
	var calls atomic.Int32
	p := start(t, n, func(i int) int { calls.Add(1); return i })
	// Wait until the budget is spent and no worker is on an item: no
	// worker may claim another until a Take makes room.
	soon(t, "filling the budget", func() {
		for {
			ahead.mu.Lock()
			busy := false
			for _, c := range p.items {
				busy = busy || c != nil && c.state == running
			}
			full := ahead.ready >= aheadBudget && !busy
			ahead.mu.Unlock()
			if full {
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	// Two workers may both claim while one result is missing.
	if c := calls.Load(); c > aheadBudget+1 {
		t.Fatalf("%d items computed with none taken; the budget is %d", c, aheadBudget)
	}
	for i := range n {
		if got := p.Take(i); got != i {
			t.Fatalf("item %d = %d", i, got)
		}
	}
	if c := calls.Load(); c != int32(n) {
		t.Fatalf("%d calls for %d first takes", c, n)
	}
	if r := readyNow(); r != 0 {
		t.Fatalf("%d results still count against the budget", r)
	}
}

func TestAheadBudgetOutlivesAnAbandonedJob(t *testing.T) {
	withProcs(t, 2)
	func() {
		Ahead(new(Job), "", make([]*dfs.Block, 8), 0, 0, 0, squares) // neither taken nor stopped
		soon(t, "computing the abandoned items", func() {
			for readyNow() < 8 {
				time.Sleep(time.Millisecond)
			}
		})
	}()
	soon(t, "returning an abandoned job's budget", func() {
		for readyNow() != 0 {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	})
}

// tailSpec is a spec that sums each key's values into its output,
// counting Reduce's calls in reduces.
func tailSpec(reduces *atomic.Int64) job.Spec {
	spec := job.Spec{Output: "/out", Reduce: func(key []byte, values [][]byte) []kv.Pair {
		reduces.Add(1)
		return kv.SumReducer(key, values)
	}}
	spec.Normalize()
	return spec
}

// mappedOf is map i's result: nParts runs, run ri holding key "k<ri>"
// with value i+1.
func mappedOf(i, nParts int) Mapped {
	parts := make([][]kv.Pair, nParts)
	for ri := range parts {
		parts[ri] = []kv.Pair{{Key: fmt.Appendf(nil, "k%d", ri), Value: kv.FormatInt(int64(i + 1))}}
	}
	return Mapped{Out: Partitioned{Parts: parts}}
}

// wantTail is tail ri's text over n maps of mappedOf.
func wantTail(ri, n int) string { return fmt.Sprintf("k%d\t%d\n", ri, n*(n+1)/2) }

// until fails the test unless cond, evaluated under the scheduler's
// lock, holds within a few seconds.
func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	soon(t, what, func() {
		for {
			ahead.mu.Lock()
			ok := cond()
			ahead.mu.Unlock()
			if ok {
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// allDone reports whether a worker has computed every item of p and no
// Take has had one yet. ahead.mu is held.
func allDone[T any](p *Pending[T]) bool {
	return !slices.ContainsFunc(p.items, func(c *cell[T]) bool { return c == nil || c.state != done })
}

// takeTails takes every map's result, then each reducer's tail over
// them, and checks the text.
func takeTails(t *testing.T, maps *Pending[Mapped], n, nParts int) {
	t.Helper()
	outs := make([]Mapped, n)
	for i := range outs {
		outs[i] = maps.Take(i)
	}
	for ri := range nParts {
		var runs [][]kv.Pair
		for _, m := range outs {
			runs = append(runs, m.Out.Parts[ri])
		}
		if text, records := maps.Tail(ri, runs); string(text) != wantTail(ri, n) || records != 1 {
			t.Fatalf("tail %d: %q (%d records), want %q", ri, text, records, wantTail(ri, n))
		}
	}
}

// TestTailsStartOnceEveryMapHasAValue: no reduce tail is claimed while a
// map result is missing, whether the others came from workers or from
// takes on the caller; once the last lands, the workers compute every
// tail, each counting against aheadBudget until its reducer takes it.
func TestTailsStartOnceEveryMapHasAValue(t *testing.T) {
	const n, nParts = 5, 3
	for _, onCaller := range []bool{false, true} {
		t.Run(fmt.Sprint("taken on the caller: ", onCaller), func(t *testing.T) {
			withProcs(t, 1) // one worker
			_, b := testBase()
			var reduces atomic.Int64
			spec := tailSpec(&reduces)
			// The one worker holds item 0 behind the gate, or, with every
			// other item taken on the caller first, the last item.
			last := n - 1
			if onCaller {
				last = 0
			}
			gate := make(chan struct{})
			j := sharedJob(t, b)
			open := sync.OnceFunc(func() { close(gate) })
			t.Cleanup(open) // ahead of the job's stop, should the test fail first
			maps := Ahead(j, "", make([]*dfs.Block, n), nParts, 0, 1, func(i int) Mapped {
				if i == last {
					<-gate
				}
				return mappedOf(i, nParts)
			})
			Tails(&spec, maps, nParts)
			if onCaller {
				until(t, "the worker reaching item 0", func() bool { return maps.items[0].state == running })
				for i := 1; i < n; i++ {
					maps.Take(i)
				}
			} else {
				until(t, "the other maps", func() bool { return maps.items[last].state == running && maps.reduce.have == n-1 })
			}
			time.Sleep(10 * time.Millisecond)
			if reduces.Load() != 0 || maps.reduce.tails != nil {
				t.Fatalf("%d tails merged with a map result missing", reduces.Load())
			}
			open()
			until(t, "the tails", func() bool {
				tp := maps.reduce.tails
				return tp != nil && allDone(tp)
			})
			wantReady := nParts + n
			if onCaller {
				wantReady = nParts + 1
			}
			if got := readyNow(); got != wantReady {
				t.Fatalf("%d results count against the budget, want %d maps and tails", got, wantReady)
			}
			takeTails(t, maps, n, nParts)
			if got := reduces.Load(); got != nParts {
				t.Fatalf("Reduce ran %d times for %d tails", got, nParts)
			}
			if got := readyNow(); got != 0 {
				t.Fatalf("%d results still count against the budget", got)
			}
		})
	}
}

// TestTailsStopWithTheJob: once the job fails, no worker claims another
// tail; the ones running are dropped, and every reducer computes its own.
func TestTailsStopWithTheJob(t *testing.T) {
	const n, nParts = 4, 6
	withProcs(t, 2)
	c, b := testBase()
	j := b.Begin("tails", sched.Solo(c.Eng, c.N()), 0)
	gate, started := make(chan struct{}), make(chan int, nParts)
	open := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(open)
	var reduces atomic.Int64
	spec := tailSpec(&reduces)
	reduce := spec.Reduce
	spec.Reduce = func(key []byte, values [][]byte) []kv.Pair {
		if started != nil {
			started <- 0
			<-gate
		}
		return reduce(key, values)
	}
	maps := Ahead(j, "", make([]*dfs.Block, n), nParts, 0, 1, func(i int) Mapped { return mappedOf(i, nParts) })
	Tails(&spec, maps, nParts)
	<-started
	<-started // both workers hold a tail in Reduce
	j.Fail(errors.New("boom"))
	open()
	until(t, "the running tails", func() bool { return ahead.workers == 0 })
	if got := reduces.Load(); got != 2 {
		t.Fatalf("Reduce ran %d times after the stop, want the 2 already running", got)
	}
	started = nil
	takeTails(t, maps, n, nParts)
	if got := reduces.Load(); got != 2+nParts {
		t.Fatalf("Reduce ran %d times, want every tail again on the caller", got)
	}
}

// TestTailsLeaveFailedOrSharedMapsToTheCaller: a map error or a panic on
// a worker keeps every tail off the workers, and so does a job whose map
// results all came from the record store; each reducer merges its own.
func TestTailsLeaveFailedOrSharedMapsToTheCaller(t *testing.T) {
	const n, nParts = 4, 3
	withProcs(t, 2)
	for _, how := range []string{"error", "panic"} {
		t.Run(how, func(t *testing.T) {
			_, b := testBase()
			var reduces atomic.Int64
			spec := tailSpec(&reduces)
			j := sharedJob(t, b)
			maps := Ahead(j, "", make([]*dfs.Block, n), nParts, 0, 1, func(i int) Mapped {
				switch {
				case i != 1:
				case how == "error":
					return Mapped{Err: errors.New("input: bad block")}
				default:
					panic("kaboom")
				}
				return mappedOf(i, nParts)
			})
			Tails(&spec, maps, nParts)
			until(t, "the maps", func() bool {
				return allDone(maps)
			})
			time.Sleep(10 * time.Millisecond)
			if maps.reduce.tails != nil || reduces.Load() != 0 {
				t.Fatal("the tails went ahead of a failed map")
			}
			for ri := range nParts {
				if text, _ := maps.Tail(ri, nil); text != nil {
					t.Fatalf("tail %d over no runs: %q", ri, text)
				}
			}
		})
	}
	t.Run("shared", func(t *testing.T) {
		_, b := testBase()
		var calls atomic.Int64
		spec := countedWords(b, "words", &calls)
		blocks := spec.Input.Blocks
		first := aheadMaps(t, b, &spec, nParts)
		for i := range blocks {
			first.Take(i)
		}
		second := aheadMaps(t, b, &spec, nParts)
		Tails(&spec, second, nParts)
		until(t, "the second job's maps", func() bool { return int(second.reduce.have) == len(blocks) })
		if second.own || second.reduce.tails != nil {
			t.Fatal("the tails of a job that computed no map went ahead")
		}
	})
}
