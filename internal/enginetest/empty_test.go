package enginetest_test

import (
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/core"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/enginetest"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/metrics"
	"github.com/datampi/datampi-go/internal/mr"
	"github.com/datampi/datampi-go/internal/rdd"
	"github.com/datampi/datampi-go/internal/sched"
)

// TestEmptyInputIsRejectedOnEveryEngine: a job with no input is turned
// away by one admission rule on all three engines, solo and queued. It
// fails at once, is charged nothing (no simulated time, no profiler
// sample) and leaves the engine quiesced.
func TestEmptyInputIsRejectedOnEveryEngine(t *testing.T) {
	type engine interface {
		enginetest.Engine
		job.Engine
		AttachProfiler(*metrics.Profiler)
	}
	engines := map[string]func(fs *dfs.FS) engine{
		"mr":   func(fs *dfs.FS) engine { return mr.New(fs, mr.DefaultConfig()) },
		"rdd":  func(fs *dfs.FS) engine { return rdd.New(fs, rdd.DefaultConfig()) },
		"core": func(fs *dfs.FS) engine { return core.New(fs, core.DefaultConfig()) },
	}
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			c := cluster.New(cluster.DefaultHardware())
			fs := dfs.New(c, dfs.DefaultConfig())
			eng := mk(fs)
			prof := metrics.NewProfiler(c, 0.5)
			eng.AttachProfiler(prof)
			spec := job.Spec{
				Name: "empty", FS: fs, Input: fs.Preload("/empty", nil), InputFormat: job.Text,
				Output: "/out", Reducers: 2,
				Map:    func(key, value []byte, emit job.Emit) { emit(value, nil) },
				Reduce: func(key []byte, values [][]byte) []kv.Pair { return nil },
			}
			q := sched.NewQueue(c.Eng, c.N(), sched.FIFO)
			q.Admit("", q.Now(), 1, eng, spec)
			for _, res := range []job.Result{eng.Run(spec), q.Run()[0]} {
				if res.Err == nil || res.Elapsed != 0 {
					t.Fatalf("err %v, elapsed %v: want an error at once", res.Err, res.Elapsed)
				}
			}
			if n := len(prof.Series().Samples); n != 0 {
				t.Fatalf("%d profiler samples: the rejected job started sampling", n)
			}
			enginetest.AssertQuiesced(t, eng)
		})
	}
}
