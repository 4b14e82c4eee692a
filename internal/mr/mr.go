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
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/metrics"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/trace"
	"github.com/datampi/datampi-go/internal/transport"
)

// Config is the Hadoop cost/configuration profile. Defaults follow the
// paper's setup (Hadoop 1.2.1, 4 concurrent tasks per node) with timing
// constants calibrated once against the paper's Section 4 measurements;
// see EXPERIMENTS.md.
type Config struct {
	TasksPerNode int // map slots per node; also reduce slots per node

	JobInit    float64 // job submission, staging, JobTracker init (s)
	TaskLaunch float64 // JVM spawn + heartbeat assignment per task (s)
	JobCommit  float64 // output commit + job cleanup (s)

	SortBufferBytes   float64 // io.sort.mb map output buffer (nominal bytes)
	ReduceBufferBytes float64 // reduce-side in-memory shuffle buffer

	CPUPerByteMap    float64 // core-sec per nominal input byte in map
	CPUPerByteReduce float64 // core-sec per nominal shuffled byte in reduce
	CPUPerByteSort   float64 // core-sec per nominal byte sorted/merged
	CPUPerRecord     float64 // core-sec per nominal record (both sides)
	GCFactor         float64 // background JVM overhead per task core-sec
	// MemPressureGC adds GC storm overhead when node memory utilization
	// exceeds 60%: extra background CPU per task core-second, scaled by
	// how deep into the red zone the node is. This is what makes 6 tasks
	// per node slower than 4 on 16 GB nodes (Figure 2(b)).
	MemPressureGC float64

	SlowstartFraction float64 // reducers launch after this fraction of maps

	JVMBaseMem     float64 // resident heap per running task
	GarbageFactor  float64 // extra heap per nominal byte processed (capped)
	GarbageCap     float64 // cap on garbage heap per task
	HeapLingerSecs float64 // lazy GC: heap freed this long after task exit
	DaemonMem      float64 // TaskTracker + DataNode residency per node

	OutputReplication int

	// Transport overrides the engine's staged communication profile
	// (transport.HadoopProfile when unset, i.e. Name == ""). The
	// CPUPerByteSort field above is mr's inline serialization constant:
	// when Transport is unset it populates the profile's EmitCPUPerByte
	// (map-side spill/output serialization), so existing callers keep
	// their exact cost. Merge passes still read CPUPerByteSort directly
	// — merging is sorting, not serialization.
	Transport transport.Profile
}

// DefaultConfig returns the calibrated Hadoop profile.
func DefaultConfig() Config {
	return Config{
		TasksPerNode:      4,
		JobInit:           7.5,
		TaskLaunch:        1.8,
		JobCommit:         3.0,
		SortBufferBytes:   100 * cluster.MB,
		ReduceBufferBytes: 140 * cluster.MB,
		CPUPerByteMap:     0.62e-7, // ~62 ns/byte: JVM record reader + Writable
		CPUPerByteReduce:  0.6e-7,
		CPUPerByteSort:    0.3e-7,
		CPUPerRecord:      0.7e-6,
		GCFactor:          0.55,
		MemPressureGC:     2.5,
		SlowstartFraction: 0.05,
		JVMBaseMem:        0.7 * cluster.GB,
		GarbageFactor:     4.0,
		GarbageCap:        1.3 * cluster.GB,
		HeapLingerSecs:    12,
		DaemonMem:         1.0 * cluster.GB,
		OutputReplication: 3,
	}
}

// Engine is the Hadoop-like MapReduce engine. It implements both
// job.Engine (exclusive single-job runs) and sched.Engine (job admission
// onto a shared testbed).
type Engine struct {
	C    *cluster.Cluster
	FS   *dfs.FS
	Cfg  Config
	Prof *metrics.Profiler // optional resource profiler
	// Tracer records job/phase/fetch spans for solo Run paths; queue
	// submissions inherit the tracker's tracer instead.
	Tracer *trace.Tracer

	daemons   *sched.Residency // TaskTracker/DataNode residency across jobs
	profiling sched.Profiling  // refcounted sampling across jobs
	tp        *transport.Transport
}

var _ sched.Engine = (*Engine)(nil)

// New creates an engine over a cluster and filesystem.
func New(fs *dfs.FS, cfg Config) *Engine {
	prof := cfg.Transport
	if prof.Name == "" {
		prof = transport.HadoopProfile()
		prof.EmitCPUPerByte = cfg.CPUPerByteSort // deprecated alias
	}
	return &Engine{C: fs.Cluster(), FS: fs, Cfg: cfg, tp: transport.New(fs.Cluster(), prof)}
}

// Transport exposes the engine's staged communication model (disabled
// by default; the scenario WithTransport knob switches it on).
func (e *Engine) Transport() *transport.Transport { return e.tp }

// Name implements job.Engine.
func (e *Engine) Name() string { return "Hadoop" }

// Cluster implements sched.Engine.
func (e *Engine) Cluster() *cluster.Cluster { return e.C }

// scale returns nominal bytes per actual byte.
func (e *Engine) scale() float64 { return e.FS.Config().Scale }

// mapOutput is a completed map task's partitioned, sorted output sitting
// on the map node's local disk.
type mapOutput struct {
	mi      int // producing map task index
	node    int
	parts   [][]kv.Pair // sorted run per reducer
	nominal []float64   // nominal bytes per partition
	records []float64   // nominal records per partition (staged transport)
	invalid bool        // lost with its node; a recompute entry supersedes it
}

// Run executes the job exclusively and returns its result. It drives the
// simulation engine to completion, so the cluster must not have other
// foreground work; co-schedule jobs through a sched.Queue instead.
func (e *Engine) Run(spec job.Spec) job.Result {
	eng := e.C.Eng
	res := new(job.Result)
	completed := false
	e.submit(spec, sched.Solo(eng, e.C.N()), res, func(job.Result) { completed = true })
	if err := eng.Run(); err != nil {
		if res.Err == nil {
			res.Err = err
		}
		if !completed {
			// The driver never reached its cleanup (simulation deadlock):
			// release what submit charged so the engine stays reusable.
			e.profiling.Stop(e.Prof)
			e.releaseDaemons()
		}
	}
	// Exclusive-run accounting: the job ends when the simulation drains
	// (trailing lazy heap frees included), and the reduce phase extends to
	// that point.
	res.End = eng.Now()
	res.Elapsed = res.End - res.Start
	if m, ok := res.Phases["map"]; ok {
		res.Phases["reduce"] = res.End - (res.Start + m)
	}
	return *res
}

// Submit implements sched.Engine: it admits the job onto the shared
// simulation without driving the event loop.
func (e *Engine) Submit(spec job.Spec, ctl *sched.JobControl, done func(job.Result)) {
	e.submit(spec, ctl, new(job.Result), done)
}

// submit spawns the job's driver and task processes. done (optional) runs
// in simulation context when the driver completes.
func (e *Engine) submit(spec job.Spec, ctl *sched.JobControl, res *job.Result, done func(job.Result)) {
	spec.Normalize()
	*res = job.Result{Engine: e.Name(), Job: spec.Name, Phases: map[string]float64{}}
	eng := e.C.Eng
	res.Start = eng.Now()

	blocks := spec.Input.Blocks
	nMaps := len(blocks)
	if nMaps == 0 {
		res.Err = fmt.Errorf("mr: job %s has empty input", spec.Name)
		if done != nil {
			done(*res)
		}
		return
	}

	e.acquireDaemons()
	e.profiling.Start(e.Prof, eng)

	// Tracing: queue submissions carry the scenario's tracer on the
	// tracker; solo runs fall back to the engine field. Pure observation
	// either way — no simulation events, no timing changes.
	tr := ctl.Tracker().Tracer()
	if tr == nil && e.Tracer != nil {
		tr = e.Tracer
		ctl.Tracker().SetTracer(tr)
	}
	e.tp.SetTracer(tr)
	var jsp *trace.Span
	if tr != nil {
		jsp = tr.Begin("job:"+spec.Name, "job", 0, trace.TidDriver, res.Start).
			Annotate("engine", e.Name())
	}
	mapSpans := make([]uint64, nMaps) // map index -> producing attempt's span ID

	assignment := ctl.Placer().Place(blocks)
	mapSlots := ctl.Pool("mr-map", e.Cfg.TasksPerNode)
	reduceSlots := ctl.Pool("mr-reduce", e.Cfg.TasksPerNode)

	outputs := make([]*mapOutput, 0, nMaps)
	mapsDone := 0
	var mapPhaseEnd float64
	var outputsCond sim.Cond // reducers wait here for new map outputs

	// Lost-map-output recovery state: alternates are completed speculative
	// copies that lost a photo finish (kept instead of dropped — a reducer
	// can refetch from one when the winner's node dies), and recomputeGen
	// numbers the re-executed map tasks.
	altOutputs := make(map[int][]*mapOutput)
	recomputeGen := 0
	nodeAlive := func(n int) bool { return e.C.Alive(n) }

	var jobWG sim.WaitGroup
	var jobErr error
	failed := func() bool { return jobErr != nil }
	var board *transport.Board // pipelined-shuffle stream board, set in the driver
	fail := func(err error) {
		if jobErr == nil {
			jobErr = err
		}
		if board != nil {
			board.FailAll() // unblock reducers parked on stream commits
		}
		outputsCond.Broadcast() // unblock reducers waiting for map outputs
	}
	finish := func() {
		res.End = eng.Now()
		res.Elapsed = res.End - res.Start
		if mapPhaseEnd > 0 {
			res.Phases["map"] = mapPhaseEnd - res.Start
			res.Phases["reduce"] = res.End - mapPhaseEnd
		}
		if jsp != nil {
			jsp.EndAt(res.End)
			if mapPhaseEnd > 0 {
				msp := tr.BeginChild(jsp, "map", "phase", 0, trace.TidDriver, res.Start)
				msp.EndAt(mapPhaseEnd)
				rsp := tr.BeginChild(jsp, "reduce", "phase", 0, trace.TidDriver, mapPhaseEnd)
				rsp.EndAt(res.End)
				// Phases derive from the spans; the subtractions are the
				// same floats as the legacy path, so reports stay
				// bit-identical with tracing on.
				res.Phases["map"] = msp.End - msp.Start
				res.Phases["reduce"] = rsp.End - rsp.Start
			}
		}
		res.Err = jobErr
		e.profiling.Stop(e.Prof)
		e.releaseDaemons()
		if done != nil {
			done(*res)
		}
	}

	eng.Go("jobtracker:"+spec.Name, func(driver *sim.Proc) {
		// Job submission: client uploads the job jar and splits; the
		// JobTracker initializes the job and TaskTrackers heartbeat in.
		driver.Sleep(e.Cfg.JobInit)

		nReduce := 0
		if spec.Reduce != nil && spec.Reducers > 0 {
			nReduce = spec.Reducers
		}

		// Pipelined shuffle (staged transport with pipelining on): map
		// attempts publish output streams reducers fetch block by block.
		if nReduce > 0 && e.tp.Pipelined() {
			board = e.tp.NewBoard(func() { outputsCond.Broadcast() })
		}

		jobWG.Add(nMaps)
		for mi := 0; mi < nMaps; mi++ {
			mi := mi
			// Map tasks are restartable: the body re-reads its immutable
			// split and publishes its output only through Done — map-only
			// tasks write the DFS through the attempt-scoped committer, so
			// they can race speculative backups too.
			ctl.Launch(sched.TaskSpec{
				Name:        fmt.Sprintf("map-%d", mi),
				Node:        assignment[mi],
				Pool:        mapSlots,
				Group:       "map",
				Restartable: true,
				CommitFS:    e.FS,
				Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
					return e.runMapTask(p, att, &spec, blocks[mi], att.Node(), nReduce, mi, board)
				},
				Done: func(p *sim.Proc, v any, att *sched.Attempt) error {
					res.AddCounter("maps", 1)
					if e.FS.IsLocal(blocks[mi], att.Node()) {
						res.AddCounter("data_local_maps", 1)
					}
					mo := v.(*mapOutput)
					mo.mi = mi
					outputs = append(outputs, mo)
					mapsDone++
					if mapsDone == nMaps {
						mapPhaseEnd = eng.Now()
					}
					mapSpans[mi] = att.TraceSpan().SpanID()
					if nReduce == 0 {
						jsp.DepOn(mapSpans[mi])
					}
					outputsCond.Broadcast()
					return nil
				},
				Discard: func(v any) {
					// A completed backup that lost the photo finish still
					// materialized this map's output on its own disk; keep
					// it as a refetch source for lost-map-output recovery.
					if mo, ok := v.(*mapOutput); ok && nReduce > 0 {
						mo.mi = mi
						altOutputs[mi] = append(altOutputs[mi], mo)
					}
				},
				Fail:  fail,
				Final: jobWG.Done,
			})
		}

		// recoverMap re-executes the map whose materialized output died
		// with its node: the recomputed output is appended to the shared
		// slice like any late map, and reducers (which dedup by map index)
		// pick it up from there. Requested once per lost output.
		recoverMap := func(mo *mapOutput) {
			if mo.invalid || jobErr != nil {
				return // recompute already in flight, or the job is failing
			}
			mo.invalid = true
			recomputeGen++
			mi := mo.mi
			jobWG.Add(1)
			ctl.Tracker().NoteRecompute()
			ctl.Launch(sched.TaskSpec{
				Name:        fmt.Sprintf("map-%d~r%d", mi, recomputeGen),
				Node:        assignment[mi],
				Pool:        mapSlots,
				Group:       "map",
				Restartable: true,
				CommitFS:    e.FS,
				Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
					return e.runMapTask(p, att, &spec, blocks[mi], att.Node(), nReduce, mi, board)
				},
				Done: func(p *sim.Proc, v any, att *sched.Attempt) error {
					res.AddCounter("maps_recomputed", 1)
					mo2 := v.(*mapOutput)
					mo2.mi = mi
					outputs = append(outputs, mo2)
					mapSpans[mi] = att.TraceSpan().SpanID()
					outputsCond.Broadcast()
					return nil
				},
				Fail:  fail,
				Final: jobWG.Done,
			})
		}

		if nReduce == 0 {
			jobWG.Wait(driver)
			driver.Sleep(e.Cfg.JobCommit)
			finish()
			return
		}

		jobWG.Add(nReduce)
		slowstart := int(float64(nMaps)*e.Cfg.SlowstartFraction) + 1
		if slowstart > nMaps {
			slowstart = nMaps
		}
		for ri := 0; ri < nReduce; ri++ {
			ri := ri
			// Reduce tasks are restartable: map outputs persist on the map
			// nodes' disks, so a backup attempt re-fetches every partition
			// and only the winner commits the output file in Done.
			ctl.Launch(sched.TaskSpec{
				Name:        fmt.Sprintf("reduce-%d", ri),
				Node:        ri % e.C.N(),
				Pool:        reduceSlots,
				Group:       "reduce",
				Restartable: true,
				CommitFS:    e.FS,
				Pre: func(p *sim.Proc) bool {
					// Slow-start: the JobTracker does not launch reducers
					// until enough maps have finished.
					for mapsDone < slowstart && jobErr == nil {
						outputsCond.Wait(p, "slowstart")
					}
					return jobErr != nil
				},
				Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
					return e.runReduceTask(p, att, &spec, ri, att.Node(), nMaps, &outputs, &outputsCond, failed, res,
						nodeAlive, altOutputs, recoverMap, board, mapSpans)
				},
				Done: func(p *sim.Proc, v any, att *sched.Attempt) error {
					jsp.DepOn(att.TraceSpan().SpanID())
					// Commit order mirrors the pre-tracker task body: output
					// write (to the attempt-scoped temp path, renamed by the
					// tracker right after Done), then the task memory the
					// body handed off is released, then the counter.
					if out, ok := v.(*reduceOut); ok {
						res.OutRecords += int64(len(out.reduced))
						var werr error
						if spec.Output != "" {
							enc := job.EncodeTextOutput(out.reduced)
							name := att.ScopedPath(fmt.Sprintf("%s/part-r-%05d", spec.Output, ri))
							w := e.FS.CreateScaled(name, att.Node(), spec.EmitScale())
							werr = w.Write(p, enc)
							if werr == nil {
								werr = w.Close(p)
							}
						}
						out.release()
						if werr != nil {
							return werr
						}
					}
					res.AddCounter("reduces", 1)
					return nil
				},
				Discard: func(v any) {
					if out, ok := v.(*reduceOut); ok {
						out.release()
					}
				},
				Fail:  fail,
				Final: jobWG.Done,
			})
		}
		jobWG.Wait(driver)
		driver.Sleep(e.Cfg.JobCommit)
		finish()
	})
}

// acquireDaemons charges the per-node TaskTracker/DataNode residency when
// the first concurrent job starts; releaseDaemons frees it with the last.
func (e *Engine) acquireDaemons() {
	if e.daemons == nil {
		e.daemons = sched.NewResidency(e.C)
	}
	e.daemons.Acquire(e.Cfg.DaemonMem)
}

func (e *Engine) releaseDaemons() { e.daemons.Release() }

// runMapTask executes one map task attempt: JVM launch, streaming split
// read overlapped with the map function and sort/spill I/O, then the
// final merged output written to the local disk. The body is restartable:
// it derives everything from the immutable block and its own collector,
// so a speculative attempt can re-run it on another node.
func (e *Engine) runMapTask(p *sim.Proc, att *sched.Attempt, spec *job.Spec, blk *dfs.Block, node, nReduce, mi int, board *transport.Board) (*mapOutput, error) {
	cfg := &e.Cfg
	scale := e.scale()
	p.Sleep(cfg.TaskLaunch)
	att.Report(0.05)

	// Decode and process the real records eagerly; collect the resource
	// demands, then charge them overlapped (Hadoop streams the split
	// through the mapper while the spill thread writes).
	recs, inflated, err := job.Records(spec.InputFormat, blk.Data)
	if err != nil {
		return nil, fmt.Errorf("mr: map input: %w", err)
	}
	inflatedNominal := float64(inflated) * scale
	nominalRecords := float64(len(recs)) * scale

	nParts := nReduce
	mapOnly := nParts == 0
	if mapOnly {
		nParts = 1
	}
	coll := kv.NewPartitionCollector(nParts, int(cfg.SortBufferBytes/scale), spec.Combine, spec.Part)
	for _, rec := range recs {
		spec.Map(rec.Key, rec.Value, coll.Emit)
	}
	parts, spillActual, mergeActual := coll.Finish()

	emitScale := spec.EmitScale()
	outActual := 0
	nominal := make([]float64, nParts)
	records := make([]float64, nParts)
	for pi, part := range parts {
		b := 0
		for _, pr := range part {
			b += pr.Size() + 6 // per-record framing overhead on disk
		}
		outActual += b
		nominal[pi] = float64(b) * emitScale
		records[pi] = float64(len(part)) * emitScale
	}

	// Task heap residency: base JVM plus garbage proportional to the
	// nominal bytes processed, capped by the configured heap size.
	garbage := cfg.GarbageFactor * inflatedNominal
	if garbage > cfg.GarbageCap {
		garbage = cfg.GarbageCap
	}
	heap := cfg.JVMBaseMem + garbage
	mem := e.C.Node(node).Mem
	mem.MustAlloc(heap)
	defer mem.FreeLazy(e.C.Eng, heap, cfg.HeapLingerSecs)

	// Spill/output serialization reads the consolidated profile constant
	// (CPUPerByteSort populates it as a deprecated alias).
	cpuSec := spec.CPUAdjust(e.Name()) * (cfg.CPUPerByteMap*spec.MapCPUFactor*inflatedNominal +
		cfg.CPUPerRecord*nominalRecords +
		e.tp.Profile().EmitCPUPerByte*(float64(spillActual+outActual)*emitScale))

	// Spill and final map output writes to local disk. If there were
	// intermediate spills, the merge re-reads them before the final write.
	diskBytes := float64(spillActual+outActual) * emitScale
	mergeRead := float64(mergeActual) * emitScale
	// Background JVM/GC overhead contends for CPU in parallel; memory
	// pressure beyond 60% of node RAM adds GC storms on top.
	gc := e.gcOverhead(node, cpuSec)
	outNominalTotal := 0.0
	outRecords := 0.0
	for pi := range nominal {
		outNominalTotal += nominal[pi]
		outRecords += records[pi]
	}

	// Pipelined shuffle: the winning-eligible first attempt publishes a
	// stream and commits output blocks as they land, so reducers fetch
	// while this map still computes. Backups run the legacy lump shape —
	// their output only matters if they win the photo finish.
	var st *transport.Stream
	if board != nil && !att.Backup() {
		st = board.Open(mi, node, nominal, outRecords)
		// Fail is a no-op after Finish; this covers error and kill unwinds.
		defer st.Fail()
	}

	if st != nil {
		// Block-granularity chunks: every resource charge is split evenly
		// (same totals as the lump path) and a fraction commits per chunk.
		nChunks := 1
		if bb := e.tp.PipelineBlock(); outNominalTotal > bb {
			nChunks = int(outNominalTotal/bb) + 1
			if nChunks > 16 {
				nChunks = 16
			}
		}
		k := float64(nChunks)
		for ci := 0; ci < nChunks; ci++ {
			var cw sim.WaitGroup
			if ci == 0 {
				// The split read overlaps the first chunk.
				if err := e.FS.StartRead(blk, node, &cw); err != nil {
					return nil, err
				}
			}
			cw.Add(1)
			e.C.Node(node).CPU.Start(cpuSec/k, cw.Done)
			if gc > 0 {
				cw.Add(1)
				e.C.Node(node).CPU.Start(gc/k, cw.Done)
			}
			if diskBytes+mergeRead > 0 {
				cw.Add(1)
				e.C.Node(node).Disk.Start((diskBytes+mergeRead)/k, cw.Done)
			}
			if e.tp.Enabled() && outNominalTotal > 0 {
				cw.Add(1)
				e.tp.SendStages(node, outNominalTotal/k, outRecords/k, cw.Done)
			}
			p.BlockReason = "disk"
			cw.Wait(p)
			p.BlockReason = ""
			st.Commit(float64(ci+1) / k)
		}
		if e.Prof != nil {
			e.Prof.AddDiskWrite(node, diskBytes)
			e.Prof.AddDiskRead(node, mergeRead)
		}
		st.Finish()
	} else {
		var wg sim.WaitGroup
		// Split read (disk at replica + network if remote).
		if err := e.FS.StartRead(blk, node, &wg); err != nil {
			return nil, err
		}
		// Map + sort CPU, single-threaded.
		wg.Add(1)
		e.C.Node(node).CPU.Start(cpuSec, wg.Done)
		if gc > 0 {
			wg.Add(1)
			e.C.Node(node).CPU.Start(gc, wg.Done)
		}
		if diskBytes+mergeRead > 0 {
			wg.Add(1)
			e.C.Node(node).Disk.Start(diskBytes+mergeRead, wg.Done)
			if e.Prof != nil {
				e.Prof.AddDiskWrite(node, diskBytes)
				e.Prof.AddDiskRead(node, mergeRead)
			}
		}
		if e.tp.Enabled() && !mapOnly && outNominalTotal > 0 {
			// Staged sender-side path: serialize + copy the map output
			// into the shuffle servlet's transfer buffers.
			wg.Add(1)
			e.tp.SendStages(node, outNominalTotal, outRecords, wg.Done)
		}
		p.BlockReason = "disk"
		wg.Wait(p)
		p.BlockReason = ""
	}

	if mapOnly && spec.Output != "" {
		// Map-only job: write this task's output to its attempt-scoped
		// temp path; the tracker renames the winner's file into place, so
		// even DFS-writing map tasks can race speculative backups.
		enc := job.EncodeTextOutput(parts[0])
		name := att.ScopedPath(fmt.Sprintf("%s/part-m-%05d", spec.Output, blk.ID))
		w := e.FS.CreateScaled(name, node, emitScale)
		if err := w.Write(p, enc); err != nil {
			return nil, err
		}
		if err := w.Close(p); err != nil {
			return nil, err
		}
	}
	return &mapOutput{node: node, parts: parts, nominal: nominal, records: records}, nil
}

// reduceOut is a finished reduce body's result, handed to the winning
// attempt's Done: the reduced pairs plus a release callback freeing the
// task's memory (shuffle buffer now, JVM heap lazily) — deferred past the
// output write exactly as the pre-tracker task body did.
type reduceOut struct {
	reduced []kv.Pair
	release func()
}

// runReduceTask fetches every map's partition and merges (spilling when
// the shuffle buffer overflows), applies the reduce function and returns
// the reduced pairs for the winner's Done to commit. Aborting because the
// job failed returns (nil, nil) — untyped nil, so Done skips the write.
// The body is restartable: map outputs persist in the shared outputs
// slice, and its memory is released on every path — by Done/Discard after
// a completed run (via the handed-off release callback), or by the
// deferred cleanup when the attempt is cancelled mid-fetch.
//
// Lost-map-output story: entries are deduplicated by producing map index,
// and a fetch that targets a dead node falls back to a surviving
// speculative copy when one exists (refetch) or asks recover to re-run
// the producing map (recompute) — the recomputed output arrives as a
// later entry in the shared slice, so the reducer just keeps scanning.
func (e *Engine) runReduceTask(p *sim.Proc, att *sched.Attempt, spec *job.Spec, ri, node, nMaps int,
	outputs *[]*mapOutput, cond *sim.Cond, failed func() bool, res *job.Result,
	alive func(int) bool, alts map[int][]*mapOutput, recover func(*mapOutput), board *transport.Board,
	mapSpans []uint64) (any, error) {
	cfg := &e.Cfg

	// Fetch spans chain each to the previous fetch and to the producing
	// map's attempt span: the shuffle's serialized wall time becomes a
	// dependency path the critical-path walk attributes to "net".
	tr := att.Tracer()
	tsp := att.TraceSpan()
	var lastFetch uint64

	mem := e.C.Node(node).Mem
	p.Sleep(cfg.TaskLaunch)
	mem.MustAlloc(cfg.JVMBaseMem)

	var runs [][]kv.Pair
	seen := make(map[int]bool, nMaps) // producing map indexes consumed
	idx := 0
	bufferedNominal := 0.0
	spilledNominal := 0.0
	bufferedMem := 0.0
	handoff := false
	release := func() {
		mem.Free(bufferedMem)
		mem.FreeLazy(e.C.Eng, cfg.JVMBaseMem, cfg.HeapLingerSecs)
	}
	defer func() {
		if !handoff {
			release()
		}
	}()
	streamed := make(map[int]bool) // map indexes fully fetched via pipelined streams
	nextStream := 0
	// account applies the post-fetch shuffle-buffer bookkeeping for nom
	// bytes pulled into memory (spilling past the buffer cap).
	account := func(nom float64) {
		res.AddCounter("shuffle_bytes_nominal", int64(nom))
		bufferedNominal += nom
		bufferedMem += nom
		mem.MustAlloc(nom)
		if bufferedNominal > cfg.ReduceBufferBytes {
			// In-memory buffer overflow: spill merged runs to local disk.
			e.C.Node(node).Disk.Use(p, bufferedNominal, "shuffle-io")
			if e.Prof != nil {
				e.Prof.AddDiskWrite(node, bufferedNominal)
			}
			spilledNominal += bufferedNominal
			bufferedNominal = 0
			mem.Free(bufferedMem)
			bufferedMem = 0
		}
	}
	// drainStreams block-fetches every newly published pipelined stream
	// in order, pulling committed blocks while the maps still compute. A
	// stream that fails mid-fetch (killed attempt, dead node) is simply
	// abandoned: the outputs scan below covers its map the legacy way.
	drainStreams := func() {
		for nextStream < len(board.Streams()) {
			s := board.Streams()[nextStream]
			nextStream++
			mi := s.Producer()
			if seen[mi] || streamed[mi] || s.Failed() {
				continue
			}
			if s.PartNominal(ri) == 0 {
				streamed[mi] = true // empty partition: adopt pairs at scan time
				continue
			}
			p.BlockReason = "shuffle-io"
			got, ok := s.Fetch(p, ri, node, func(src int, chunk float64) {
				if e.Prof != nil {
					e.Prof.AddDiskRead(src, chunk)
				}
			})
			p.BlockReason = ""
			if !ok {
				continue
			}
			streamed[mi] = true
			account(got)
		}
	}
	for len(seen) < nMaps {
		if board != nil {
			drainStreams()
		}
		for idx >= len(*outputs) {
			if failed() {
				return nil, nil
			}
			if board != nil && nextStream < len(board.Streams()) {
				break // a new stream was published; drain it first
			}
			cond.Wait(p, "shuffle-wait")
		}
		if idx >= len(*outputs) {
			continue
		}
		att.Report(0.8 * float64(len(seen)) / float64(nMaps))
		mo := (*outputs)[idx]
		idx++
		if seen[mo.mi] {
			continue // a recompute superseded an entry this attempt already fetched
		}
		if streamed[mo.mi] {
			// Already fetched block-by-block from the pipelined stream.
			// Map bodies are deterministic, so the winner's materialized
			// pairs are identical to what streamed; adopt them without
			// re-charging fetch I/O.
			seen[mo.mi] = true
			if len(mo.parts[ri]) > 0 {
				runs = append(runs, mo.parts[ri])
			}
			continue
		}
		nom := mo.nominal[ri]
		if nom > 0 && !alive(mo.node) {
			// The materialized output died with its node. Prefer a
			// surviving speculative copy on a live node; otherwise request
			// a recompute and keep scanning — the replacement shows up as
			// a later entry.
			var alt *mapOutput
			for _, cand := range alts[mo.mi] {
				if alive(cand.node) {
					alt = cand
					break
				}
			}
			if alt == nil {
				recover(mo)
				continue
			}
			res.AddCounter("shuffle_refetches", 1)
			mo = alt
			nom = mo.nominal[ri]
		}
		seen[mo.mi] = true
		if nom == 0 {
			if len(mo.parts[ri]) > 0 {
				runs = append(runs, mo.parts[ri])
			}
			continue
		}
		// Fetch: read the partition from the map node's disk and pull it
		// over the network (overlapped, as the TaskTracker streams it).
		var fsp *trace.Span
		if tr != nil {
			fsp = tr.BeginChild(tsp, fmt.Sprintf("fetch:m%d", mo.mi), "net", node, tsp.Tid, e.C.Eng.Now()).
				Annotate("src", fmt.Sprintf("%d", mo.node)).
				Annotate("bytes", fmt.Sprintf("%.0f", nom))
			if int(mo.mi) < len(mapSpans) {
				fsp.DepOn(mapSpans[mo.mi])
			}
			fsp.DepOn(lastFetch)
		}
		var wg sim.WaitGroup
		wg.Add(1)
		e.C.Node(mo.node).Disk.Start(nom, wg.Done)
		if e.tp.Enabled() {
			// Staged path: wire (remote only) + deserialize with
			// per-record Writable costs on the reduce side.
			wg.Add(1)
			e.tp.FetchStages(mo.node, node, nom, mo.records[ri], wg.Done)
		} else if mo.node != node {
			wg.Add(1)
			e.C.Net.StartFlow(mo.node, node, nom, wg.Done)
		}
		if e.Prof != nil {
			e.Prof.AddDiskRead(mo.node, nom)
		}
		p.BlockReason = "shuffle-io"
		wg.Wait(p)
		p.BlockReason = ""
		if fsp != nil {
			fsp.EndAt(e.C.Eng.Now())
			lastFetch = fsp.ID
		}

		runs = append(runs, mo.parts[ri])
		account(nom)
	}
	att.Report(0.8)
	tsp.DepOn(lastFetch)

	// Final merge: spilled runs come back from disk; CPU for the merge.
	totalNominal := bufferedNominal + spilledNominal
	var wg sim.WaitGroup
	if spilledNominal > 0 {
		wg.Add(1)
		e.C.Node(node).Disk.Start(spilledNominal, wg.Done)
		if e.Prof != nil {
			e.Prof.AddDiskRead(node, spilledNominal)
		}
	}
	merged := mergeRuns(runs)
	// Intermediate record counts follow the same saturation rule as
	// intermediate bytes.
	nominalRecords := float64(len(merged)) * spec.EmitScale()
	cpuSec := spec.CPUAdjust(e.Name()) * (cfg.CPUPerByteReduce*spec.ReduceCPUFactor*totalNominal +
		cfg.CPUPerByteSort*totalNominal +
		cfg.CPUPerRecord*nominalRecords)
	wg.Add(1)
	e.C.Node(node).CPU.Start(cpuSec, wg.Done)
	if gc := e.gcOverhead(node, cpuSec); gc > 0 {
		wg.Add(1)
		e.C.Node(node).CPU.Start(gc, wg.Done)
	}
	p.BlockReason = "disk"
	wg.Wait(p)
	p.BlockReason = ""

	handoff = true
	return &reduceOut{reduced: spec.GroupReduce(merged), release: release}, nil
}

// mergeRuns is kv.MergeRuns, whose runs must each be sorted; the engine
// tests wrap it to assert that of every run the engine hands over.
var mergeRuns = kv.MergeRuns

// AttachProfiler wires a resource profiler into the engine.
func (e *Engine) AttachProfiler(p *metrics.Profiler) { e.Prof = p }

// gcOverhead returns the background JVM CPU charged alongside a task:
// the baseline GCFactor plus a memory-pressure GC storm term when the
// node's memory utilization exceeds 60%.
func (e *Engine) gcOverhead(node int, cpuSec float64) float64 {
	gc := e.Cfg.GCFactor * cpuSec
	mem := e.C.Node(node).Mem
	if press := mem.Pressure(); press > 0.7 {
		gc += e.Cfg.MemPressureGC * (press - 0.7) / 0.3 * cpuSec
	}
	return gc
}
