// Package rdd implements the Spark 0.8-like baseline. Every action has
// the one shape of the paper's Spark workloads (Sort, WordCount, Grep,
// K-means): it maps a job.Spec's input — read from the DFS, or from
// executor memory once the input is cached — into the spec's shuffle,
// written to disk on the map side, and then either writes each reduced
// partition as a part file or collects the reduced pairs. Its stages are
// declared from the spec, not planned: a cache-fill stage when the input
// is marked cached but not resident, a map stage and a reduce stage.
// Cached partitions pay Java-object expansion, and — critically for the
// paper's Figure 3 — a range-partitioned (sorting) reduce stage fails
// with OutOfMemory when its working set exceeds the worker heap.
//
// Spark's structural advantages over Hadoop are modeled directly: one
// executor launch per application instead of per-task JVMs,
// millisecond-scale task dispatch, and in-memory intermediate data.
// Its weaknesses are modeled too: Java object expansion of cached and
// shuffled data (the reason the paper's Spark runs OOM on Normal Sort
// and on Text Sort beyond 8 GB) and GC pressure.
package rdd

import (
	"strconv"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/taskrt"
	"github.com/datampi/datampi-go/internal/transport"
)

// Config is the Spark cost/configuration profile; TasksPerNode counts
// workers, and JobLaunch is paid once per application.
type Config struct {
	taskrt.Profile

	CacheCPUPerByte float64 // building cached RDD objects per nominal byte

	// ExpansionFactor is the in-memory size of data as JVM objects
	// relative to its serialized bytes; SortWorkingSetFactor is the extra
	// working-set multiplier while sort buffers are live.
	ExpansionFactor      float64
	SortWorkingSetFactor float64
	WorkerHeap           float64 // heap per worker ("as large as possible")
	GCLagSecs            float64 // transient garbage lingers this long

	ShuffleBufferBytes float64 // reduce-side fetch buffer before spilling
}

// DefaultConfig returns the calibrated Spark profile. WorkerHeap follows
// the paper's setup: 16 GB nodes, memory given to workers "as large as
// possible" — (16 - 2) GB over 4 workers.
func DefaultConfig() Config {
	return Config{
		Profile: taskrt.Profile{
			TasksPerNode:     4,
			JobLaunch:        3.5,
			TaskStart:        0.15, // task dispatch: milliseconds in Spark
			JobTeardown:      1.0,
			MapCPUPerByte:    0.28e-7,
			ReduceCPUPerByte: 0.35e-7,
			SortCPUPerByte:   0.20e-7,
			RecordCPU:        0.8e-6,
			Overhead:         0.35,
			MemPressureGC:    2.0,
			TaskMem:          1.0 * cluster.GB, // executor base, per worker
			DaemonMem:        0.8 * cluster.GB,
		},
		CacheCPUPerByte:      1.0e-7,
		ExpansionFactor:      4.5,
		SortWorkingSetFactor: 1.6,
		WorkerHeap:           3.5 * cluster.GB,
		GCLagSecs:            6,
		ShuffleBufferBytes:   256 * cluster.MB,
	}
}

// Engine is the Spark-like engine. Create one per application; cached
// inputs persist across jobs run on the same engine (as cached RDDs do
// across actions in one SparkContext) — until an executor holding cached
// partitions dies, which drops the affected caches for recompute. The
// job lifecycle, shuffle edge and part-file commit come from the
// embedded runtime.
type Engine struct {
	taskrt.Base
	Cfg Config

	appStarted bool

	// caches are the inputs Cache marked, in the order it marked them.
	caches []*cache
}

var _ sched.Engine = (*Engine)(nil)

// cache is one input marked for executor memory: the decoded records of
// its blocks, one partition per block, once an action filled it.
type cache struct {
	in    *dfs.File
	parts []partData // resident partitions; nil while not resident
	lost  int        // partitions dropped with failed nodes, awaiting recompute accounting
}

type partData struct {
	pairs   []kv.Pair
	nominal float64
	node    int
}

// New creates an engine (a SparkContext, in effect) over a filesystem.
// The engine subscribes to datanode failures: executors are co-located
// with datanodes, so a node going down also loses the executor cache
// partitions it held (see dropCachesOn).
func New(fs *dfs.FS, cfg Config) *Engine {
	e := &Engine{Cfg: cfg}
	e.Base = taskrt.NewBase("Spark", fs, &e.Cfg.Profile, transport.SparkProfile())
	fs.OnNodeEvent(func(node int, down bool) {
		if down {
			e.dropCachesOn(node)
		}
	})
	return e
}

// Cache marks in for executor memory, as Spark's textFile(...).cache():
// the next action over in fills the cache with its decoded records, and
// the actions after it map those instead of reading the file. A cache
// that does not fit is not kept: its action maps what it filled, and the
// next action fills it again.
func (e *Engine) Cache(in *dfs.File) {
	if e.cacheOf(in) == nil {
		e.caches = append(e.caches, &cache{in: in})
	}
}

// cacheOf returns in's cache, nil when in is not marked.
func (e *Engine) cacheOf(in *dfs.File) *cache {
	for _, c := range e.caches {
		if c.in == in {
			return c
		}
	}
	return nil
}

// dropCachesOn drops every cache with a partition on the dead node —
// Spark loses an executor's in-memory blocks with the executor. Cache
// residency is all-or-nothing here, so the whole cache drops: pins on
// surviving nodes are freed too, and the next action over the input
// fills it again, charging the lost partitions to the tracker's
// cache-recompute counter when the refill lands. Actions already running
// keep the partitions they took; data an executor already fetched is not
// clawed back mid-task.
func (e *Engine) dropCachesOn(node int) {
	for _, c := range e.caches {
		lost := 0
		for _, pd := range c.parts {
			if pd.node == node {
				lost++
			}
		}
		if lost == 0 {
			continue
		}
		for _, pd := range c.parts {
			e.C.Node(pd.node).Mem.Free(pd.nominal * e.Cfg.ExpansionFactor)
		}
		c.parts = nil
		c.lost += lost
	}
}

// Run implements job.Engine: it runs the spec's action exclusively,
// driving the simulation to completion, and writes the reduced
// partitions as part files. The solo action (and its job span) is called
// "action"; the result carries the spec's name.
func (e *Engine) Run(spec job.Spec) job.Result {
	_, res := e.runSolo(spec, false)
	return res
}

// Collect runs the spec's action exclusively, like Run, but writes
// nothing: it returns the reduced pairs of every partition, in the order
// the reduce tasks finished.
func (e *Engine) Collect(spec job.Spec) ([]kv.Pair, job.Result) {
	return e.runSolo(spec, true)
}

func (e *Engine) runSolo(spec job.Spec, collect bool) ([]kv.Pair, job.Result) {
	if j := e.RejectInvalid(&spec, nil); j != nil {
		return nil, j.Res
	}
	var out []kv.Pair
	res := e.RunSolo(func(ctl *sched.JobControl) *taskrt.Job {
		return e.submit("action", &spec, collect, &out, ctl, nil)
	})
	res.Job = spec.Name
	return out, res
}

// Submit implements sched.Engine: it admits the spec's action onto the
// shared simulation without driving the event loop.
func (e *Engine) Submit(spec job.Spec, ctl *sched.JobControl, done func(job.Result)) {
	if e.RejectInvalid(&spec, done) != nil {
		return
	}
	e.submit(spec.Name, &spec, false, nil, ctl, done)
}

func stageName(i int) string { return "stage" + strconv.Itoa(i) }
