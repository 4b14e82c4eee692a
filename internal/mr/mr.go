// Package mr implements the Hadoop 1.x MapReduce baseline: a JobTracker /
// TaskTracker execution model with per-node map and reduce slots, per-task
// JVM launch overheads, a sort-and-spill map output buffer (io.sort.mb),
// slow-start shuffle fetching that begins only after a fraction of maps
// complete, reduce-side merge with disk spills, and replicated HDFS output.
//
// The engine really executes the job's map, combine and reduce functions
// over real bytes; simulated time is charged according to the cost profile
// in Config. The structural costs — disk-materialized map output, fetch
// after map completion (no pipelining within a task), JVM startup per task,
// JVM per-byte processing overhead — are exactly the inefficiencies the
// paper attributes Hadoop's slowness to (Sections 4.3-4.4).
package mr

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/taskrt"
	"github.com/datampi/datampi-go/internal/transport"
)

// Config is the Hadoop cost/configuration profile. Defaults follow the
// paper's setup (Hadoop 1.2.1, 4 map and 4 reduce slots per node) with
// timing constants calibrated once against the paper's Section 4
// measurements; see README "Transport model" and bench/paper_refs.json.
type Config struct {
	taskrt.Profile

	SortBufferBytes   float64 // io.sort.mb map output buffer (nominal bytes)
	ReduceBufferBytes float64 // reduce-side in-memory shuffle buffer

	SlowstartFraction float64 // reducers launch after this fraction of maps

	GarbageFactor  float64 // extra heap per nominal byte processed (capped)
	GarbageCap     float64 // cap on garbage heap per task
	HeapLingerSecs float64 // lazy GC: heap freed this long after task exit
}

// DefaultConfig returns the calibrated Hadoop profile.
func DefaultConfig() Config {
	return Config{
		Profile: taskrt.Profile{
			TasksPerNode:     4,
			JobLaunch:        7.5,
			TaskStart:        1.8, // JVM spawn + heartbeat assignment
			JobTeardown:      3.0,
			MapCPUPerByte:    0.62e-7, // ~62 ns/byte: JVM record reader + Writable
			ReduceCPUPerByte: 0.6e-7,
			SortCPUPerByte:   0.3e-7,
			RecordCPU:        0.7e-6,
			Overhead:         0.55,
			MemPressureGC:    2.5,
			TaskMem:          0.7 * cluster.GB, // JVM heap
			DaemonMem:        1.0 * cluster.GB, // TaskTracker + DataNode
		},
		SortBufferBytes:   100 * cluster.MB,
		ReduceBufferBytes: 140 * cluster.MB,
		SlowstartFraction: 0.05,
		GarbageFactor:     4.0,
		GarbageCap:        1.3 * cluster.GB,
		HeapLingerSecs:    12,
	}
}

// Engine is the Hadoop-like MapReduce engine. It implements both
// job.Engine (exclusive single-job runs) and sched.Engine (job admission
// onto a shared testbed); the job lifecycle, shuffle edge and part-file
// commit come from the embedded runtime.
type Engine struct {
	taskrt.Base
	Cfg Config
}

var _ sched.Engine = (*Engine)(nil)

// New creates an engine over a cluster and filesystem.
func New(fs *dfs.FS, cfg Config) *Engine {
	e := &Engine{Cfg: cfg}
	e.Base = taskrt.NewBase("Hadoop", fs, &e.Cfg.Profile, transport.HadoopProfile())
	return e
}

// Run executes the job exclusively and returns its result (see
// taskrt.Base.RunSolo for the drain and accounting contract).
func (e *Engine) Run(spec job.Spec) job.Result {
	return e.RunSolo(func(ctl *sched.JobControl) *taskrt.Job { return e.submit(spec, ctl, nil) })
}

// Submit implements sched.Engine: it admits the job onto the shared
// simulation without driving the event loop.
func (e *Engine) Submit(spec job.Spec, ctl *sched.JobControl, done func(job.Result)) {
	e.submit(spec, ctl, done)
}

// submit declares the job's map and reduce stages and drives them. done
// (optional) runs in simulation context when the driver completes.
func (e *Engine) submit(spec job.Spec, ctl *sched.JobControl, done func(job.Result)) *taskrt.Job {
	j, slots := e.Admit(&spec, ctl, e.Cfg.DaemonMem, done, e.Cfg.TasksPerNode, "mr-map", "mr-reduce")
	if slots == nil {
		return j
	}
	blocks := spec.Input.Blocks
	nMaps := len(blocks)
	res := &j.Res
	nReduce := spec.Reducers // at least one: see job.Spec.Normalize

	assignment := ctl.Placer().Place(blocks)

	// Each map's record work depends on its block alone, so it starts now,
	// on worker goroutines (or is shared with other jobs of the spec's
	// fingerprint), and the map task picks it up when it runs. Each
	// reducer's record half depends on its partition of every map output
	// alone, so it starts on the same workers once they all exist.
	maps := taskrt.MapAhead(j, &spec, blocks, nReduce, e.Cfg.SortBufferBytes, true)

	// outs is the map→reduce edge. A map output lost with its node is
	// refetched from a surviving copy or regenerated inside the reducer
	// that needs it first (without the JVM launch: it runs in the
	// reducer's; its record work is a later Take, which recomputes it or,
	// with a fingerprint, looks it up).
	outs := j.Outputs(nMaps, "m", func(p *sim.Proc, att *sched.Attempt, mi int) (any, error) {
		return e.runMapTask(p, att, &spec, blocks[mi], maps.Take(mi), mi, nil)
	})

	slowstart := min(int(float64(nMaps)*e.Cfg.SlowstartFraction)+1, nMaps)
	// Job submission: the client uploads the job jar and splits; the
	// JobTracker initializes the job and TaskTrackers heartbeat in.
	j.Drive("jobtracker:"+spec.Name, true, func(*sim.Proc) bool {
		// Map tasks are restartable: the body re-reads its immutable split
		// and publishes its output only through Done.
		j.Run(taskrt.Stage{
			Name: "map-%d", Group: "map", Nodes: assignment, Pool: slots[0], Restart: taskrt.Restartable,
			Body: func(p *sim.Proc, att *sched.Attempt, mi int) (any, error) {
				p.Sleep(e.Cfg.TaskStart)
				att.Report(0.05)
				return e.runMapTask(p, att, &spec, blocks[mi], maps.Take(mi), mi, outs)
			},
			Done: func(p *sim.Proc, att *sched.Attempt, mi int, v any) error {
				res.AddCounter("maps", 1)
				if e.FS.IsLocal(blocks[mi], att.Node()) {
					res.AddCounter("data_local_maps", 1)
				}
				if outs.Publish(mi, att, v.(*taskrt.Output)) == nMaps {
					j.Phase("map", "reduce")
				}
				return nil
			},
		})
		// Reduce tasks are restartable: map outputs persist on the map
		// nodes' disks, so a backup attempt re-fetches every partition and
		// only the winner commits the output file in Done.
		j.Run(taskrt.Stage{
			Name: "reduce-%d", Group: "reduce", Nodes: e.Spread(nReduce), Pool: slots[1], Restart: taskrt.Restartable,
			// Slow-start: the JobTracker does not launch reducers until
			// enough maps have finished.
			Pre: func(p *sim.Proc) bool { return !outs.Await(p, slowstart) },
			Body: func(p *sim.Proc, att *sched.Attempt, ri int) (any, error) {
				return e.runReduceTask(p, att, &spec, ri, outs, maps, res)
			},
			Done: func(p *sim.Proc, att *sched.Attempt, ri int, v any) error {
				j.DependsOn(att)
				// Commit order: the output write (to the attempt-scoped
				// temp path, renamed by the tracker right after Done) goes
				// first, while the task still holds the memory the text
				// sits in; then that memory is released, then the counter.
				if out, ok := v.(*reduceOut); ok {
					res.OutRecords += int64(out.records)
					werr := e.WritePart(p, att, spec.Output, fmt.Sprintf("part-r-%05d", ri), spec.EmitScale(), out.text)
					out.release()
					if werr != nil {
						return werr
					}
				}
				res.AddCounter("reduces", 1)
				return nil
			},
		})
		return true
	}, done)
	return j
}

// runMapTask executes one map task attempt after its JVM launch: streaming
// split read overlapped with the map function and sort/spill I/O, then the
// final merged output written to the local disk. m is the block's record
// work (the real records streamed through the map function into the
// collector); the attempt charges the resource demands it sized,
// overlapped, as Hadoop streams the split through the mapper while the
// spill thread writes. The body is restartable: it derives everything
// from the immutable block and its own copy of m, so a speculative attempt
// can re-run it on another node.
func (e *Engine) runMapTask(p *sim.Proc, att *sched.Attempt, spec *job.Spec, blk *dfs.Block, m taskrt.Mapped, mi int, outs *taskrt.Outputs) (*taskrt.Output, error) {
	cfg := &e.Cfg
	node := att.Node()
	if m.Err != nil {
		return nil, fmt.Errorf("mr: map %w", m.Err)
	}
	inflatedNominal, nominalRecords, out := m.InNominal, m.InRecords, m.Out

	// Task heap residency: base JVM plus garbage proportional to the
	// nominal bytes processed, capped by the configured heap size.
	garbage := cfg.GarbageFactor * inflatedNominal
	if garbage > cfg.GarbageCap {
		garbage = cfg.GarbageCap
	}
	heap := cfg.TaskMem + garbage
	mem := e.C.Node(node).Mem
	mem.MustAlloc(heap)
	defer mem.FreeLazy(e.C.Eng, heap, cfg.HeapLingerSecs)

	// Spill and final map output writes to local disk, each serialized
	// (the emit charge). If there were intermediate spills, the merge
	// re-reads them before the final write.
	diskBytes, mergeRead := out.Spilled+out.OutNominal, out.Merged
	cpuSec := e.MapCPU(spec, spec.MapCPUFactor, inflatedNominal, nominalRecords, diskBytes)
	// Background JVM/GC overhead contends for CPU in parallel.
	gc := e.Overhead(node, cpuSec)
	profileDisk := func() {
		e.Prof.AddDiskWrite(node, diskBytes)
		e.Prof.AddDiskRead(node, mergeRead)
	}

	// Pipelined shuffle: an attempt the edge streams commits output blocks
	// as they land, so reducers fetch while this map still computes — in
	// block-granularity chunks, every resource charge split evenly and a
	// fraction committed per chunk. Every other attempt runs the same
	// totals as one lump.
	nChunks := 1
	st := outs.Stream(att, mi, &out)
	if st != nil {
		// Fail is a no-op after Finish; this covers error and kill unwinds.
		defer st.Fail()
		if bb := e.Transport().PipelineBlock(); out.OutNominal > bb {
			nChunks = int(out.OutNominal/bb) + 1
			if nChunks > 16 {
				nChunks = 16
			}
		}
	} else {
		profileDisk() // a lump accounts its disk traffic as the I/O starts
	}
	k := float64(nChunks)
	for ci := 0; ci < nChunks; ci++ {
		var wg sim.WaitGroup
		if ci == 0 {
			// Split read (disk at replica + network if remote); it
			// overlaps the first chunk.
			if err := e.FS.StartRead(blk, node, &wg); err != nil {
				return nil, err
			}
		}
		e.StartCPU(&wg, node, cpuSec/k, gc/k) // map + sort CPU, single-threaded
		if diskBytes+mergeRead > 0 {
			wg.Add(1)
			e.C.Node(node).Disk.Start((diskBytes+mergeRead)/k, wg.Done)
		}
		// Staged sender-side path: serialize + copy the map output into
		// the shuffle servlet's transfer buffers.
		e.StartSend(&wg, node, out.OutNominal/k, out.OutRecords/k)
		wg.WaitAs(p, "disk")
		if st != nil {
			st.Commit(float64(ci+1) / k)
		}
	}
	if st != nil {
		profileDisk()
		st.Finish()
	}
	return &taskrt.Output{Partitioned: out, Node: node}, nil
}

// reduceOut is a finished reduce body's result, handed to the winning
// attempt's Done: the part file's text and its record count, plus a
// release callback freeing the task's memory (shuffle buffer now, JVM heap
// lazily) — deferred past the output write, because the text being
// written still occupies that memory.
type reduceOut struct {
	text    []byte
	records int
	release func()
}

// runReduceTask pulls every map's partition into the shuffle buffer
// (spilling when it overflows), merges and applies the reduce function and
// returns the encoded output for the winner's Done to commit. Aborting
// because the job failed returns (nil, nil) — untyped nil, so Done skips
// the write. The body is restartable: map outputs persist on the edge, and
// its memory is released on every path — by Done after a completed run
// (via the handed-off release callback), or by the deferred cleanup when
// the attempt is cancelled mid-fetch.
func (e *Engine) runReduceTask(p *sim.Proc, att *sched.Attempt, spec *job.Spec, ri int, outs *taskrt.Outputs,
	maps *taskrt.Pending[taskrt.Mapped], res *job.Result) (any, error) {
	cfg := &e.Cfg
	node := att.Node()
	mem := e.C.Node(node).Mem
	p.Sleep(cfg.TaskStart)
	mem.MustAlloc(cfg.TaskMem)

	buf := e.Buffer(p, node, cfg.ReduceBufferBytes, mem)
	handoff := false
	release := func() {
		buf.Release()
		mem.FreeLazy(e.C.Eng, cfg.TaskMem, cfg.HeapLingerSecs)
	}
	defer func() {
		if !handoff {
			release()
		}
	}()
	runs, err := outs.Pull(p, att, ri,
		func(pulled, n int) { att.Report(0.8 * float64(pulled) / float64(n)) },
		func(nominal float64) {
			res.AddCounter("shuffle_bytes_nominal", int64(nominal))
			buf.Add(nominal)
		})
	if runs == nil {
		return nil, err
	}
	att.Report(0.8)

	buf.Charge(spec, runs)
	text, records := maps.Tail(ri, runs)
	handoff = true
	return &reduceOut{text: text, records: records, release: release}, nil
}
