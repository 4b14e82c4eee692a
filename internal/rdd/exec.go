package rdd

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/taskrt"
)

// action is one job over a spec: its declared stages and what their
// tasks share.
type action struct {
	e       *Engine
	spec    *job.Spec
	collect bool // return the reduced pairs, write no part files
	j       *taskrt.Job
	ctl     *sched.JobControl
	slots   *sched.SlotPool
	// stages are the action's stages, run in this order, each as stage si
	// and waited for: runFill (the paper's Spark Stage 0, which "creates
	// the RDD") when the input is cached but not resident, runMap and
	// runReduce, which leaves its partitions in parts.
	stages []func(driver *sim.Proc, si int) error
	parts  []partData

	// cache is the input's when it is marked cached (nil otherwise): the
	// map stage then reads cached, the partitions resident when the action
	// was submitted, or else what the fill stage leaves — the resident
	// cache, or the filled partitions themselves when they did not fit,
	// which Spark hands straight to the consumer.
	cache  *cache
	cached []partData

	// blocks is the record half (taskrt.MapBlock, or decodeBlock when
	// filling) of the one stage that reads the input's blocks, started
	// when the action is submitted; nil when the map stage reads a
	// resident cache.
	blocks *taskrt.Pending[taskrt.Mapped]
	edge   *taskrt.Outputs // the shuffle the map stage writes

	emitScale float64 // nominal shuffle bytes per actual one (job.Spec.EmitScale)
	sorted    bool    // range-partitioned: the reduce side materializes and sorts (OOM risk)
}

// submit declares the action's stages over the (normalized) spec and
// drives them; a collect action appends the reduced pairs to out. done
// (optional) runs in simulation context when the driver completes. Each
// stage is one phase of the job ("stage0", "stage1", "stage2").
func (e *Engine) submit(name string, spec *job.Spec, collect bool, out *[]kv.Pair,
	ctl *sched.JobControl, done func(job.Result)) *taskrt.Job {

	cfg := &e.Cfg
	pools, err := ctl.Pools(cfg.TasksPerNode, "spark-worker")
	if err != nil {
		return e.Reject(name, err, done)
	}
	// The per-node daemon plus the executors' base residency.
	j := e.Begin(name, ctl, cfg.DaemonMem+float64(cfg.TasksPerNode)*cfg.TaskMem)

	scale := e.Scale()
	_, sorted := spec.Part.(*kv.RangePartitioner)
	a := &action{
		e: e, spec: spec, collect: collect, j: j, ctl: ctl, slots: pools[0],
		cache:     e.cacheOf(spec.Input),
		emitScale: spec.EmitScale(),
		sorted:    sorted,
	}
	blocks := spec.Input.Blocks
	switch {
	case a.cache == nil:
		// The map stage's record work is shared with the engine's other
		// actions of the spec's fingerprint; each reduce task's record
		// half, when it writes, depends on its partition of every map
		// task's output alone.
		a.blocks = taskrt.MapAhead(j, spec, blocks, spec.Reducers, 0, !collect)
	case a.cache.parts == nil:
		a.stages = append(a.stages, a.runFill)
		a.blocks = taskrt.Ahead(j, "", blocks, 0, 0, scale,
			func(i int) taskrt.Mapped { return decodeBlock(spec.InputFormat, blocks[i], scale) })
	default:
		a.cached = a.cache.parts
	}
	a.stages = append(a.stages, a.runMap, a.runReduce)

	// The SparkContext launches once per application: the first action
	// submitted pays it, and concurrently submitted ones do not.
	launch := !e.appStarted
	e.appStarted = true
	j.Drive("spark-driver", launch, func(driver *sim.Proc) bool {
		for si, run := range a.stages {
			if err := run(driver, si); err != nil {
				j.Fail(err)
				break
			}
			j.Phase(stageName(si), "")
		}
		if j.Err() == nil && collect {
			for _, pd := range a.parts {
				*out = append(*out, pd.pairs...)
			}
		}
		return true
	}, done)
	return j
}

// run runs stage si as one task per entry of nodes and waits for them:
// body is a task's cost half after its dispatch, done takes the winner's
// value. Every task is restartable: its input (a block, a cached
// partition, a shuffle edge) is immutable, its output publishes only
// through done, and part files go through the attempt-scoped committer.
func (a *action) run(driver *sim.Proc, si int, nodes []int,
	body func(p *sim.Proc, att *sched.Attempt, ti int) (any, error), done func(ti int, att *sched.Attempt, v any)) error {
	j, cfg := a.j, &a.e.Cfg
	j.Run(taskrt.Stage{
		Name: "spark-task-%d", Group: stageName(si), Nodes: nodes, Pool: a.slots, Restart: taskrt.Restartable,
		Pre: func(p *sim.Proc) bool { return j.Err() != nil },
		Body: func(p *sim.Proc, att *sched.Attempt, ti int) (any, error) {
			p.Sleep(cfg.TaskStart)
			att.Report(0.05)
			return body(p, att, ti)
		},
		Done: func(p *sim.Proc, att *sched.Attempt, ti int, v any) error {
			done(ti, att, v)
			return nil
		},
	})
	j.Wait(driver)
	return j.Err()
}

// runFill runs the fill stage, one task per block, and pins what it
// decoded in executor memory if every node's share fits; the map stage
// reads the resident cache, or what the fill decoded when it did not fit.
func (a *action) runFill(driver *sim.Proc, si int) error {
	e, cfg, ctl := a.e, &a.e.Cfg, a.ctl
	blocks := a.spec.Input.Blocks
	results := make([]partData, 0, len(blocks))
	err := a.run(driver, si, ctl.Placer().Place(blocks), a.blockTask,
		func(_ int, _ *sched.Attempt, v any) { results = append(results, v.(partData)) })
	if err != nil {
		return err
	}
	c := a.cache
	if c.parts == nil { // else another action filled it meanwhile
		total := map[int]float64{}
		for _, pd := range results {
			total[pd.node] += pd.nominal * cfg.ExpansionFactor
		}
		for n, b := range total {
			if b > float64(cfg.TasksPerNode)*cfg.WorkerHeap-e.usedExecutorMem(n) {
				// Spark silently evicts: the input is simply not cached,
				// this action maps what it decoded, and later actions
				// fill it again.
				a.cached = results
				return nil
			}
		}
		for _, pd := range results {
			e.C.Node(pd.node).Mem.MustAlloc(pd.nominal * cfg.ExpansionFactor)
		}
		c.parts = results
		if c.lost > 0 {
			// This fill recomputed partitions that died with a failed
			// executor — charge them to the recovery counters.
			ctl.Tracker().NoteCacheRecomputes(c.lost)
			c.lost = 0
		}
	}
	a.cached = c.parts
	return nil
}

// runMap runs the map stage, one task per block or per cached partition,
// into the shuffle edge the reduce stage pulls. A consumer whose fetch
// targets a dead node regenerates the producing task inline on its own
// node, from the task's immutable input (Spark's lost-shuffle-output
// recompute, without modeling the full stage-abort round trip).
func (a *action) runMap(driver *sim.Proc, si int) error {
	var nodes []int
	body := a.blockTask
	if a.cache != nil {
		for _, pd := range a.cached {
			nodes = append(nodes, pd.node)
		}
		body = a.cacheTask
	} else {
		nodes = a.ctl.Placer().Place(a.spec.Input.Blocks)
	}
	a.edge = a.j.Outputs(len(nodes), "t", body)
	return a.run(driver, si, nodes, body,
		func(ti int, att *sched.Attempt, v any) { a.edge.Publish(ti, att, v.(*taskrt.Output)) })
}

// runReduce runs the reduce stage, one task per shuffle partition, and
// keeps the reduced partitions (pairs only when collecting) in parts.
func (a *action) runReduce(driver *sim.Proc, si int) error {
	nodes := a.e.Spread(a.spec.Reducers)
	a.parts = make([]partData, 0, len(nodes))
	return a.run(driver, si, nodes, a.reduceTask, func(_ int, att *sched.Attempt, v any) {
		if pd, ok := v.(partData); ok { // nil: the pull woke to a failed job
			a.parts = append(a.parts, pd)
		}
		a.j.DependsOn(att)
	})
}

func (e *Engine) usedExecutorMem(node int) float64 {
	used := e.C.Node(node).Mem.Used() - e.Cfg.DaemonMem - float64(e.Cfg.TasksPerNode)*e.Cfg.TaskMem
	if used < 0 {
		used = 0
	}
	return used
}

// decodeBlock is the record half of a fill task: blk's records, as they
// lie in the block, as its output's one partition, at scale nominal bytes
// per actual one. The cache keeps them as they are — they alias the
// block, or for SeqGzip an inflate buffer that is now theirs (job.Records
// never closes its Reader).
func decodeBlock(format job.Format, blk *dfs.Block, scale float64) taskrt.Mapped {
	pairs, inflated, err := job.Records(format, blk.Data)
	if err != nil {
		return taskrt.Mapped{Err: fmt.Errorf("input: %w", err), Failed: taskrt.MapOpen}
	}
	return taskrt.Mapped{InNominal: float64(inflated) * scale, InRecords: float64(len(pairs)) * scale,
		Out: taskrt.Partitioned{Parts: [][]kv.Pair{pairs}}}
}

// mapErr is the error m's record work stopped at, as the task reports it.
func mapErr(m *taskrt.Mapped) error {
	if m.Failed == taskrt.MapCollect {
		return fmt.Errorf("rdd: shuffle %w", m.Err)
	}
	return fmt.Errorf("rdd: %w", m.Err)
}

// blockTask is the cost half of a task reading block ti, on att's node:
// it takes the block's record half from the action's ahead work after
// charging the read and the streaming window, charges the CPU, then
// writes the shuffle output (an *taskrt.Output) or, filling, builds the
// cached partition's objects (a partData), stopping where the record
// half's error struck. att is the owning attempt — the consuming task's
// when re-entered as a lost-shuffle regeneration.
func (a *action) blockTask(p *sim.Proc, att *sched.Attempt, ti int) (any, error) {
	e, cfg := a.e, &a.e.Cfg
	node := att.Node()
	m := a.blocks.Take(ti)
	if m.Failed == taskrt.MapOpen {
		return nil, mapErr(&m)
	}
	var wg sim.WaitGroup
	if err := e.FS.StartRead(a.spec.Input.Blocks[ti], node, &wg); err != nil {
		return nil, err
	}
	// Streaming stages hold only a window of the partition as live
	// objects (the iterator pipeline), not the whole expansion.
	mem := e.C.Node(node).Mem
	window := 0.35 * m.InNominal * cfg.ExpansionFactor
	mem.MustAlloc(window)
	defer mem.FreeLazy(e.C.Eng, window, cfg.GCLagSecs)
	if m.Failed == taskrt.MapDecode {
		return nil, mapErr(&m)
	}
	if a.cache == nil {
		return a.writeShuffle(p, &wg, node, &m)
	}
	cpuSec := e.MapCPU(a.spec, 1, m.InNominal, m.InRecords, 0) // decoding is plain parsing
	e.StartCPU(&wg, node, cpuSec, e.Overhead(node, cpuSec))
	pairs := m.Out.Parts[0]
	outNominal := taskrt.Framed(pairs, e.Scale())
	if cfg.CacheCPUPerByte > 0 {
		// Building the cached records' in-memory representation costs
		// CPU (deserialization into JVM objects).
		wg.Add(1)
		e.C.Node(node).CPU.Start(cfg.CacheCPUPerByte*outNominal, wg.Done)
	}
	wg.WaitAs(p, "disk")
	return partData{pairs: pairs, nominal: outNominal, node: node}, nil
}

// cacheTask is the cost half of a map task over cached partition ti, on
// att's node: the map's CPU, then its shuffle output.
func (a *action) cacheTask(p *sim.Proc, att *sched.Attempt, ti int) (any, error) {
	pd := &a.cached[ti]
	m := taskrt.MapPairs(a.spec, pd.pairs, a.spec.Reducers, pd.nominal, a.e.Scale())
	var wg sim.WaitGroup
	return a.writeShuffle(p, &wg, att.Node(), &m)
}

// reduceTask is the cost half of reduce task ti, on att's node: it pulls
// its partition of every map task's output, reporting fractional
// per-fetch progress so the straggler monitor sees fetch rates rather
// than one opaque milestone, charges the merge, and writes the part file
// whose text comes from its reduce tail (taskrt.Pending.Tail) — or, when
// collecting, returns the reduced pairs. Fetched data past the buffer
// spills to local disk; the heap it occupies is the transient working
// memory charged below.
func (a *action) reduceTask(p *sim.Proc, att *sched.Attempt, ti int) (any, error) {
	e, cfg, spec := a.e, &a.e.Cfg, a.spec
	node := att.Node()
	buf := e.Buffer(p, node, cfg.ShuffleBufferBytes, nil)
	var inNominal float64
	runs, err := a.edge.Pull(p, att, ti,
		func(pulled, n int) { att.Report(0.1 + 0.6*float64(pulled)/float64(n)) },
		func(nominal float64) {
			inNominal += nominal
			buf.Add(nominal)
		})
	if runs == nil {
		return nil, err
	}
	// A sort holds the whole partition as objects — the OOM point.
	if workingSet := inNominal * cfg.ExpansionFactor * cfg.SortWorkingSetFactor; a.sorted && workingSet > cfg.WorkerHeap {
		return nil, &sim.OOMError{
			Account:   fmt.Sprintf("spark-worker[%d]", node),
			Requested: workingSet,
			Used:      0,
			Limit:     cfg.WorkerHeap,
		}
	}
	// Transient working memory with GC lag.
	mem := e.C.Node(node).Mem
	transient := inNominal * cfg.ExpansionFactor
	mem.MustAlloc(transient)
	defer mem.FreeLazy(e.C.Eng, transient, cfg.GCLagSecs)

	var text []byte
	var pairs []kv.Pair
	var records int
	switch {
	case a.collect:
		pairs = taskrt.MergeReduce(runs, spec.Reduce)
		records = len(pairs)
	case a.cache == nil:
		text, records = a.blocks.Tail(ti, runs)
	default: // no tail went ahead of a map over the cache
		text, records = taskrt.ReduceTail(spec, runs)
	}
	// The sort and reduce rates, then the map rate, per nominal byte, and
	// the record rate per nominal record (cardinality-bound records are
	// charged unscaled: see job.Spec.SaturatingIntermediate).
	cpuSec := cfg.SortCPUPerByte*inNominal + cfg.ReduceCPUPerByte*inNominal +
		(cfg.MapCPUPerByte*inNominal + cfg.RecordCPU*(float64(records)*a.emitScale))
	var wg sim.WaitGroup
	e.StartCPU(&wg, node, cpuSec, e.Overhead(node, cpuSec))
	outNominal := taskrt.Framed(pairs, a.emitScale)
	wg.WaitAs(p, "disk")
	att.Report(0.9)
	if !a.collect {
		if err := e.WritePart(p, att, spec.Output, fmt.Sprintf("part-%05d", ti), a.emitScale, text); err != nil {
			return nil, err
		}
	}
	return partData{pairs: pairs, nominal: outNominal, node: node}, nil
}

// writeShuffle charges map task m's CPU on node, then the write of its
// shuffle output (Spark 0.8 hash shuffle materializes map outputs on the
// local disks of the map side), waits for it and every charge already in
// wg, and returns the output.
func (a *action) writeShuffle(p *sim.Proc, wg *sim.WaitGroup, node int, m *taskrt.Mapped) (any, error) {
	e := a.e
	// Shuffle-write serialization is not in this sum: it runs on the
	// shuffle writer thread, below.
	cpuSec := e.MapCPU(a.spec, a.spec.MapCPUFactor, m.InNominal, m.InRecords, 0)
	e.StartCPU(wg, node, cpuSec, e.Overhead(node, cpuSec))
	if m.Err != nil {
		return nil, mapErr(m)
	}
	sized := m.Out
	if sized.OutNominal > 0 {
		wg.Add(1)
		e.C.Node(node).Disk.Start(sized.OutNominal, wg.Done)
		e.Prof.AddDiskWrite(node, sized.OutNominal)
		// Shuffle-write serialization runs on the shuffle writer thread
		// (the consolidated emit constant, charged in both modes).
		if emit := e.Transport().Profile().EmitCPUPerByte; emit > 0 {
			wg.Add(1)
			e.C.Node(node).CPU.Start(emit*sized.OutNominal, wg.Done)
		}
		// Staged sender-side path on top: serialize + copy (or zero-copy)
		// into the shuffle file's transfer buffers.
		e.StartSend(wg, node, sized.OutNominal, sized.OutRecords)
	}
	wg.WaitAs(p, "disk")
	return &taskrt.Output{Partitioned: sized, Node: node}, nil
}
