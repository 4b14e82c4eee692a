package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The parallel sweep runner: experiments whose rows are independent
// deterministic sims (the cells of a paper figure, faultsweep's
// kill-fraction × framework pairs) fan those sims across worker
// goroutines and merge the results in index order.
// Each sim builds its own Rig/FS/engine, so runs share no mutable
// state; determinism is preserved because the merge order is the input
// order, not the completion order — the rendered tables are
// byte-identical to a sequential run.

// workerCap overrides the worker count (0 means GOMAXPROCS).
var workerCap atomic.Int64

// SetWorkers caps the number of concurrent sims a sweep may run
// (n <= 0 restores the default, GOMAXPROCS). The cap only changes
// wall-clock time, never results.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerCap.Store(int64(n))
}

// Workers reports how many workers a sweep of n items will use.
func Workers(n int) int {
	w := int(workerCap.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// sweep runs fn(0..n-1) across Workers(n) goroutines and returns the
// results in index order. All items run even if one fails; the error
// returned is the failing item with the smallest index, so error
// reporting is as deterministic as the results.
func sweep[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	w := Workers(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for k := 0; k < w; k++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					out[i], errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return out, errs[i]
		}
	}
	return out, nil
}
