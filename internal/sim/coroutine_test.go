package sim

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestProcPanicSurfacesFromRun pins what a bug in a proc body looks like
// from outside: the panic comes out of Run / RunUntil on the caller's
// goroutine with its own value, where a recover (or the test runner) sees
// it.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	boom := errors.New("boom")
	runs := map[string]func(*Engine){
		"Run":      func(e *Engine) { _ = e.Run() },
		"RunUntil": func(e *Engine) { _, _ = e.RunUntil(10) },
	}
	for name, run := range runs {
		e := NewEngine()
		e.Go("bystander", func(p *Proc) { p.Sleep(5) })
		e.Go("buggy", func(p *Proc) {
			p.Sleep(1)
			panic(boom)
		})
		var got any
		func() {
			defer func() { got = recover() }()
			run(e)
		}()
		if got != boom {
			t.Errorf("%s: recovered %v, want the body's own panic value", name, got)
		}
		if e.Now() != 1 {
			t.Errorf("%s: clock at %v, want the panic's instant 1", name, e.Now())
		}
	}
}

// TestDeadlockNamesWaitReasons: the deadlock error says what each stuck
// proc waits for and on which node, in name order.
func TestDeadlockNamesWaitReasons(t *testing.T) {
	e := NewEngine()
	var never Cond
	var wg WaitGroup
	wg.Add(1)
	e.Go("reduce-3", func(p *Proc) {
		p.Node = 2
		wg.WaitAs(p, "shuffle")
	})
	e.Go("driver", func(p *Proc) { never.Wait(p, "never") })
	e.Go("fine", func(p *Proc) { p.Sleep(1) })
	err := e.Run()
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
	const want = "at t=1.000: 2 process(es) blocked: [driver (never) reduce-3 (shuffle@2)]"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("deadlock error %q does not contain %q", err, want)
	}
	// The stuck procs stay parked and the engine stays usable: the wait
	// can still be satisfied and the run completed.
	wg.Done()
	never.Signal()
	if err := e.Run(); err != nil {
		t.Fatalf("run after releasing the stuck procs: %v", err)
	}
}

// coroutineGoroutines counts the goroutines in this process that are
// iter.Pull coroutines, from a dump of every stack. runtime.NumGoroutine
// cannot be pinned to an exact value here: the previous test's runner
// goroutine may still be on its way out when the next test starts.
func coroutineGoroutines() int {
	buf := make([]byte, 8<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("created by iter.Pull["))
}

// TestNoGoroutineOutlivesRun: every coroutine's goroutine is gone when a
// clean Run returns, and when a RunUntil drains the queue — including
// those whose last body was killed in a Sleep or in a resource wait.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	before := coroutineGoroutines() // procs earlier tests left stuck on purpose
	e := NewEngine()
	disk := NewPSResource(e, "disk", 100, 10)
	spawn := func() {
		for i := 0; i < 1000; i++ {
			p := e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(float64(1 + i%7))
				disk.Use(p, 50, "disk")
				p.Sleep(1)
			})
			switch i % 10 {
			case 0: // mid-Sleep
				e.Schedule(0.5, p.Cancel)
			case 5: // mid-Use
				e.Schedule(float64(1+i%7)+0.01, p.Cancel)
			}
		}
	}
	spawn()
	if n := coroutineGoroutines(); n != before+1000 {
		t.Fatalf("%d coroutine goroutines for 1000 spawned procs, want %d", n, before+1000)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := coroutineGoroutines(); n != before {
		t.Fatalf("%d coroutine goroutines after Run, %d before the first Go", n, before)
	}
	spawn()
	e.Schedule(1e6, func() {})
	if _, err := e.RunUntil(e.Now() + 1e5); err != nil {
		t.Fatal(err)
	}
	if n := coroutineGoroutines(); n == before {
		t.Fatal("RunUntil stopped the pool with an event still queued")
	}
	if _, err := e.RunUntil(e.Now() + 1e6); err != nil {
		t.Fatal(err)
	}
	if n := coroutineGoroutines(); n != before {
		t.Fatalf("%d coroutine goroutines after a draining RunUntil, %d before the first Go", n, before)
	}
}

// TestCoroutineReusedAfterKill: a pooled coroutine whose last body was
// killed mid-Sleep runs the next body from its first line, with nothing of
// the dead proc showing through the new handle.
func TestCoroutineReusedAfterKill(t *testing.T) {
	e := NewEngine()
	cleanups, resumedPastKill := 0, false
	victim := e.Go("victim", func(p *Proc) {
		defer func() { cleanups++ }()
		p.Node = 3
		p.Sleep(100)
		resumedPastKill = true
	})
	co := victim.co
	e.Schedule(1, victim.Cancel)
	var trail []string
	e.Schedule(2, func() {
		if len(e.idle) != 1 || e.idle[0] != co || victim.co != nil {
			t.Fatalf("killed proc's coroutine not back in the pool: idle %v", e.idle)
		}
		next := e.Go("next", func(p *Proc) {
			trail = append(trail, fmt.Sprintf("top reason=%q node=%d cancelled=%v", p.BlockReason, p.Node, p.Cancelled()))
			p.Sleep(1)
			trail = append(trail, fmt.Sprintf("end t=%v", e.Now()))
		})
		if next.co != co || len(e.idle) != 0 {
			t.Fatal("the pooled coroutine was not reused")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if cleanups != 1 || resumedPastKill {
		t.Fatalf("victim: %d deferred cleanups, resumed past the kill: %v", cleanups, resumedPastKill)
	}
	want := []string{`top reason="" node=-1 cancelled=false`, "end t=3"}
	if fmt.Sprint(trail) != fmt.Sprint(want) {
		t.Fatalf("next body's trail %q, want %q", trail, want)
	}
	if !victim.Cancelled() || victim.Node != 3 {
		t.Fatal("the dead proc's handle changed when its coroutine was reused")
	}
}

// TestCondSignalDropsPoppedWaiter: the slot Signal pops is cleared, so a
// long-lived Cond's backing array does not keep dead procs (and their
// body closures) reachable.
func TestCondSignalDropsPoppedWaiter(t *testing.T) {
	e := NewEngine()
	var c Cond
	for i := 0; i < 2; i++ {
		e.Go("w", func(p *Proc) { c.Wait(p, "cond") })
	}
	e.Schedule(1, func() {
		backing := c.waiters
		c.Signal()
		if backing[0] != nil || backing[1] == nil || c.Len() != 1 {
			t.Fatalf("after Signal: slots %v, %d waiting", backing, c.Len())
		}
		c.Signal()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func sleepOnce(p *Proc) { p.Sleep(1) }

// TestProcSpawnAllocs holds a spawn on a pooled coroutine to the Proc
// (both wake-up timers inside it) and its wake-up closure; the third
// object allowed is a caller's body closure.
func TestProcSpawnAllocs(t *testing.T) {
	e := NewEngine()
	keepOpen := e.Schedule(1e9, func() {}) // an emptied queue would stop the pool
	allocs := testing.AllocsPerRun(200, func() {
		e.Go("p", sleepOnce)
		if _, err := e.RunUntil(e.Now() + 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("spawn -> Sleep -> exit allocates %.0f objects in steady state, want <= 3", allocs)
	}
	keepOpen.Cancel()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkProcHandoff is one Sleep(1) per op: a timer through the heap,
// the switch into the proc and the switch back.
func BenchmarkProcHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for i := 0; i < 2; i++ {
		e.Go("p", func(p *Proc) {
			for k := 0; k < (b.N+1)/2; k++ {
				p.Sleep(1)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSpawn is one short-lived proc per op on a warm pool: spawn,
// first resume, Sleep(1), exit, plus the spawning proc's own Sleep.
func BenchmarkProcSpawn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Go("spawner", func(p *Proc) {
		for k := 0; k < b.N; k++ {
			e.Go("child", sleepOnce)
			p.Sleep(2)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
