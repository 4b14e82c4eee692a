package taskrt

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/datampi/datampi-go/internal/dfs"
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

func TestAheadTakeSeesWorkErrorsAndPanics(t *testing.T) {
	withProcs(t, 2)
	errs := []error{errors.New("zero"), nil, errors.New("two")}
	p := start(t, len(errs), func(i int) error { return errs[i] })
	for i, want := range errs {
		if got := p.Take(i); got != want {
			t.Fatalf("item %d: error %v, want %v", i, got, want)
		}
	}

	gate, started := make(chan struct{}), make(chan int, 1)
	q := start(t, 1, func(int) int { started <- 0; <-gate; panic("kaboom") })
	<-started // on a worker, not the caller
	close(gate)
	defer func() {
		if r := recover(); r != "kaboom" {
			t.Fatalf("Take panicked with %v, want the worker's panic", r)
		}
	}()
	q.Take(0)
	t.Fatal("Take returned past a panic in work")
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
			for _, sl := range p.slots {
				busy = busy || sl.state == running
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
