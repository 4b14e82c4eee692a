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
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/taskrt"
	"github.com/datampi/datampi-go/internal/transport"
)

// Config is the Hadoop cost/configuration profile. Defaults follow the
// paper's setup (Hadoop 1.2.1, 4 concurrent tasks per node) with timing
// constants calibrated once against the paper's Section 4 measurements;
// see README "Transport model" and bench/paper_refs.json.
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
	// exceeds 70%: extra background CPU per task core-second, scaled by
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
	// (transport.HadoopProfile when unset, i.e. Name == ""). Map-side
	// spill/output serialization is the profile's EmitCPUPerByte; the
	// merge passes read CPUPerByteSort — merging is sorting, not
	// serialization.
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
// onto a shared testbed); the job lifecycle, shuffle edge and part-file
// commit come from the embedded runtime.
type Engine struct {
	taskrt.Base
	Cfg Config
}

var _ sched.Engine = (*Engine)(nil)

// New creates an engine over a cluster and filesystem.
func New(fs *dfs.FS, cfg Config) *Engine {
	return &Engine{Base: taskrt.NewBase("Hadoop", fs, cfg.Transport, transport.HadoopProfile()), Cfg: cfg}
}

// mapOutput is a completed map task's partitioned, sorted output sitting
// on the map node's local disk.
type mapOutput struct {
	mi                 int // producing map task index
	node               int
	taskrt.Partitioned      // sorted run per reducer, sized (records: staged transport)
	invalid            bool // lost with its node; a recompute entry supersedes it
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

// submit spawns the job's driver and task processes. done (optional) runs
// in simulation context when the driver completes.
func (e *Engine) submit(spec job.Spec, ctl *sched.JobControl, done func(job.Result)) *taskrt.Job {
	j, ok := e.Admit(&spec, ctl, e.Cfg.DaemonMem, done)
	if !ok {
		return j
	}
	blocks := spec.Input.Blocks
	nMaps := len(blocks)
	res := &j.Res
	nReduce := spec.Reducers // at least one: see job.Spec.Normalize

	assignment := ctl.Placer().Place(blocks)
	mapSlots := ctl.Pool("mr-map", e.Cfg.TasksPerNode)
	reduceSlots := ctl.Pool("mr-reduce", e.Cfg.TasksPerNode)

	// sh is what reducers fetch from. Its lost-map-output recovery state:
	// alts are completed speculative copies that lost a photo finish (kept
	// instead of dropped — a reducer can refetch from one when the winner's
	// node dies), and recomputeGen numbers the re-executed map tasks.
	sh := &shuffle{outputs: make([]*mapOutput, 0, nMaps), alts: make(map[int][]*mapOutput), spans: make([]uint64, nMaps)}
	mapsDone := 0
	recomputeGen := 0

	fail := func(err error) {
		j.Fail(err)
		if sh.board != nil {
			sh.board.FailAll() // unblock reducers parked on stream commits
		}
		sh.cond.Broadcast() // unblock reducers waiting for map outputs
	}

	// launchMap launches map mi as the task called name. Map tasks are
	// restartable: the body re-reads its immutable split and publishes its
	// output only through Done. count is the launch's own accounting in
	// the winner's Done.
	launchMap := func(mi int, name string, count func(att *sched.Attempt), discard func(v any)) {
		j.Launch(sched.TaskSpec{
			Name:        name,
			Node:        assignment[mi],
			Pool:        mapSlots,
			Group:       "map",
			Restartable: true,
			Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
				return e.runMapTask(p, att, &spec, blocks[mi], nReduce, mi, sh.board)
			},
			Done: func(p *sim.Proc, v any, att *sched.Attempt) error {
				count(att)
				mo := v.(*mapOutput)
				mo.mi = mi
				sh.outputs = append(sh.outputs, mo)
				sh.spans[mi] = att.TraceSpan().SpanID()
				sh.cond.Broadcast()
				return nil
			},
			Discard: discard,
			Fail:    fail,
		})
	}

	// recover re-executes the map whose materialized output died with its
	// node: the recomputed output is appended to the shared slice like any
	// late map, and reducers (which dedup by map index) pick it up from
	// there. Requested once per lost output.
	sh.recover = func(mo *mapOutput) {
		if mo.invalid || j.Err() != nil {
			return // recompute already in flight, or the job is failing
		}
		mo.invalid = true
		recomputeGen++
		ctl.Tracker().NoteRecompute()
		launchMap(mo.mi, fmt.Sprintf("map-%d~r%d", mo.mi, recomputeGen),
			func(*sched.Attempt) { res.AddCounter("maps_recomputed", 1) }, nil)
	}

	e.C.Eng.Go("jobtracker:"+spec.Name, func(driver *sim.Proc) {
		// Job submission: client uploads the job jar and splits; the
		// JobTracker initializes the job and TaskTrackers heartbeat in.
		driver.Sleep(e.Cfg.JobInit)

		// Pipelined shuffle (staged transport with pipelining on): map
		// attempts publish output streams reducers fetch block by block.
		if e.Transport().Pipelined() {
			sh.board = e.Transport().NewBoard(func() { sh.cond.Broadcast() })
		}

		for mi := 0; mi < nMaps; mi++ {
			launchMap(mi, fmt.Sprintf("map-%d", mi), func(att *sched.Attempt) {
				res.AddCounter("maps", 1)
				if e.FS.IsLocal(blocks[mi], att.Node()) {
					res.AddCounter("data_local_maps", 1)
				}
				if mapsDone++; mapsDone == nMaps {
					j.Phase("map", "reduce")
				}
			}, func(v any) {
				// A completed backup that lost the photo finish still
				// materialized this map's output on its own disk; keep
				// it as a refetch source for lost-map-output recovery.
				if mo, ok := v.(*mapOutput); ok {
					mo.mi = mi
					sh.alts[mi] = append(sh.alts[mi], mo)
				}
			})
		}

		slowstart := int(float64(nMaps)*e.Cfg.SlowstartFraction) + 1
		if slowstart > nMaps {
			slowstart = nMaps
		}
		for ri := 0; ri < nReduce; ri++ {
			// Reduce tasks are restartable: map outputs persist on the map
			// nodes' disks, so a backup attempt re-fetches every partition
			// and only the winner commits the output file in Done.
			j.Launch(sched.TaskSpec{
				Name:        fmt.Sprintf("reduce-%d", ri),
				Node:        ri % e.C.N(),
				Pool:        reduceSlots,
				Group:       "reduce",
				Restartable: true,
				Pre: func(p *sim.Proc) bool {
					// Slow-start: the JobTracker does not launch reducers
					// until enough maps have finished.
					for mapsDone < slowstart && j.Err() == nil {
						sh.cond.Wait(p, "slowstart")
					}
					return j.Err() != nil
				},
				Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
					return e.runReduceTask(p, att, &spec, ri, nMaps, sh, j)
				},
				Done: func(p *sim.Proc, v any, att *sched.Attempt) error {
					j.DependsOn(att)
					// Commit order mirrors the pre-tracker task body: output
					// write (to the attempt-scoped temp path, renamed by the
					// tracker right after Done), then the task memory the
					// body handed off is released, then the counter.
					if out, ok := v.(*reduceOut); ok {
						res.OutRecords += int64(len(out.reduced))
						werr := e.WritePart(p, att, spec.Output, fmt.Sprintf("part-r-%05d", ri), spec.EmitScale(), out.reduced)
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
				Fail: fail,
			})
		}
		j.Wait(driver)
		driver.Sleep(e.Cfg.JobCommit)
		j.Finish(done)
	})
	return j
}

// shuffle is one job's map-output state, shared by its reduce attempts.
type shuffle struct {
	outputs []*mapOutput         // completed map outputs, completion order (recomputes appended)
	cond    sim.Cond             // reducers wait here for new map outputs
	alts    map[int][]*mapOutput // map index -> surviving speculative copies
	spans   []uint64             // map index -> producing attempt's span ID
	board   *transport.Board     // pipelined-shuffle stream board (nil when off)
	recover func(*mapOutput)     // re-run the map behind a lost output
}

// runMapTask executes one map task attempt: JVM launch, streaming split
// read overlapped with the map function and sort/spill I/O, then the
// final merged output written to the local disk. The body is restartable:
// it derives everything from the immutable block and its own collector,
// so a speculative attempt can re-run it on another node.
func (e *Engine) runMapTask(p *sim.Proc, att *sched.Attempt, spec *job.Spec, blk *dfs.Block, nReduce, mi int, board *transport.Board) (*mapOutput, error) {
	cfg := &e.Cfg
	node := att.Node()
	p.Sleep(cfg.TaskLaunch)
	att.Report(0.05)

	// Stream the real records through the map function eagerly; collect
	// the resource demands, then charge them overlapped (Hadoop streams
	// the split through the mapper while the spill thread writes).
	inflatedNominal, nominalRecords, out, err := e.MapBlock(spec, blk, nReduce, cfg.SortBufferBytes)
	if err != nil {
		return nil, fmt.Errorf("mr: map %w", err)
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

	// Spill/output serialization reads the consolidated profile constant.
	// Spill and final map output writes to local disk. If there were
	// intermediate spills, the merge re-reads them before the final write.
	diskBytes, mergeRead := out.Spilled+out.OutNominal, out.Merged
	cpuSec := spec.CPUAdjust(e.Name()) * (cfg.CPUPerByteMap*spec.MapCPUFactor*inflatedNominal +
		cfg.CPUPerRecord*nominalRecords +
		e.Transport().Profile().EmitCPUPerByte*diskBytes)
	// Background JVM/GC overhead contends for CPU in parallel.
	gc := e.GCOverhead(node, cpuSec, cfg.GCFactor, cfg.MemPressureGC)
	profileDisk := func() {
		e.Prof.AddDiskWrite(node, diskBytes)
		e.Prof.AddDiskRead(node, mergeRead)
	}

	// Pipelined shuffle: the winning-eligible first attempt publishes a
	// stream and commits output blocks as they land, so reducers fetch
	// while this map still computes — in block-granularity chunks, every
	// resource charge split evenly and a fraction committed per chunk.
	// Backups, and every attempt with pipelining off, run the same totals
	// as one lump: a backup's output only matters if it wins the photo
	// finish.
	nChunks := 1
	var st *transport.Stream
	if board != nil && !att.Backup() {
		st = board.Open(mi, node, out.Nominal, out.OutRecords)
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

	return &mapOutput{node: node, Partitioned: out}, nil
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
// speculative copy when one exists (refetch) or asks sh.recover to re-run
// the producing map (recompute) — the recomputed output arrives as a
// later entry in the shared slice, so the reducer just keeps scanning.
func (e *Engine) runReduceTask(p *sim.Proc, att *sched.Attempt, spec *job.Spec, ri, nMaps int, sh *shuffle, j *taskrt.Job) (any, error) {
	cfg := &e.Cfg
	node := att.Node()
	board := sh.board

	mem := e.C.Node(node).Mem
	p.Sleep(cfg.TaskLaunch)
	mem.MustAlloc(cfg.JVMBaseMem)

	var runs [][]kv.Pair
	seen := make(map[int]bool, nMaps) // producing map indexes consumed
	idx := 0
	fetches := e.Fetches(p, att, "m")
	buf := e.Buffer(p, node, cfg.ReduceBufferBytes, mem)
	handoff := false
	release := func() {
		buf.Release()
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
		j.Res.AddCounter("shuffle_bytes_nominal", int64(nom))
		buf.Add(nom)
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
			got, ok := s.Fetch(p, ri, node, e.Prof.AddDiskRead)
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
		for idx >= len(sh.outputs) {
			if j.Err() != nil {
				return nil, nil
			}
			if board != nil && nextStream < len(board.Streams()) {
				break // a new stream was published; drain it first
			}
			sh.cond.Wait(p, "shuffle-wait")
		}
		if idx >= len(sh.outputs) {
			continue
		}
		att.Report(0.8 * float64(len(seen)) / float64(nMaps))
		mo := sh.outputs[idx]
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
			if len(mo.Parts[ri]) > 0 {
				runs = append(runs, mo.Parts[ri])
			}
			continue
		}
		nom := mo.Nominal[ri]
		if nom > 0 && !e.C.Alive(mo.node) {
			// The materialized output died with its node. Prefer a
			// surviving speculative copy on a live node; otherwise request
			// a recompute and keep scanning — the replacement shows up as
			// a later entry.
			var alt *mapOutput
			for _, cand := range sh.alts[mo.mi] {
				if e.C.Alive(cand.node) {
					alt = cand
					break
				}
			}
			if alt == nil {
				sh.recover(mo)
				continue
			}
			j.Res.AddCounter("shuffle_refetches", 1)
			mo = alt
			nom = mo.Nominal[ri]
		}
		seen[mo.mi] = true
		if nom == 0 {
			if len(mo.Parts[ri]) > 0 {
				runs = append(runs, mo.Parts[ri])
			}
			continue
		}
		// Fetch: read the partition from the map node's disk and pull it
		// over the network (overlapped, as the TaskTracker streams it).
		fetches.Fetch(mo.mi, mo.node, nom, mo.Records[ri], sh.spans[mo.mi])
		runs = append(runs, mo.Parts[ri])
		account(nom)
	}
	att.Report(0.8)
	fetches.Done()

	reduced := buf.MergeReduce(spec, runs, cfg.CPUPerByteReduce, cfg.CPUPerByteSort, cfg.CPUPerRecord,
		func(cpuSec float64) float64 { return e.GCOverhead(node, cpuSec, cfg.GCFactor, cfg.MemPressureGC) })
	handoff = true
	return &reduceOut{reduced: reduced, release: release}, nil
}
