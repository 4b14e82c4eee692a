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

// stage is a maximal chain of narrow ops rooted at a source RDD, a cached
// RDD, or a wide (shuffle) dependency.
type stage struct {
	root     *RDD // source or post-shuffle RDD at the bottom of the chain
	narrow   []*narrowOp
	target   *RDD    // the RDD this stage materializes
	consumer *wideOp // the shuffle this stage feeds (nil: it returns partitions)

	// fromCache marks a stage planned to read the root RDD's cached
	// partitions; cache is the snapshot it reads. The snapshot is taken
	// at plan time when the cache is already materialized, else at stage
	// start (the producing stage ran just before it in the same action),
	// so a node failure invalidating the cache mid-action cannot dangle a
	// running stage — at worst the snapshot is gone before the stage
	// starts and the action fails cleanly for the caller to resubmit.
	fromCache bool
	cache     []partData
	// evicted marks a stage whose target is cached but whose output did
	// not fit the executor cache.
	evicted bool
	// ahead holds the record half of a stage rooted at a block (mapBlock
	// over each block), started when the action is submitted; nil for a
	// stage rooted at a cache or a shuffle.
	ahead *taskrt.Pending[mapped]
	// tails is, on a spec's last stage, the ahead work of the stage
	// feeding its shuffle, which starts the stage's reduce tails
	// (taskrt.Tails).
	tails *taskrt.Pending[mapped]
}

// plan walks the lineage and produces stages bottom-up, linking each
// stage to the wide op that consumes its output.
func plan(r *RDD) []*stage {
	var stages []*stage
	var walk func(r *RDD) *stage
	// from returns the stage an op over par extends. The stage is cut at a
	// cached parent, narrow or wide op alike: the parent is materialized
	// (and pinned) by its own stage, then the op reads from the cache.
	from := func(par *RDD) *stage {
		if !par.cached {
			return walk(par)
		}
		if !par.inCache {
			stages = append(stages, walk(par))
		}
		return &stage{root: par, target: par, fromCache: true, cache: par.cacheData}
	}
	walk = func(r *RDD) *stage {
		switch {
		case r.cached && r.inCache:
			return &stage{root: r, target: r, fromCache: true, cache: r.cacheData}
		case r.source != nil:
			return &stage{root: r, target: r}
		case r.narrow != nil:
			st := from(r.narrow.parent)
			st.narrow = append(st.narrow, r.narrow)
			st.target = r
			return st
		case r.wide != nil:
			parent := from(r.wide.parent)
			parent.consumer = r.wide
			stages = append(stages, parent)
			return &stage{root: r, target: r}
		default:
			panic("rdd: malformed lineage")
		}
	}
	last := walk(r)
	stages = append(stages, last)
	return stages
}

// Collect computes the RDD and returns all pairs (partition order).
func (r *RDD) Collect() ([]kv.Pair, job.Result) {
	var out []kv.Pair
	res := r.eng.runAction(r, nil, func(parts []partData) {
		for _, pd := range parts {
			out = append(out, pd.pairs...)
		}
	})
	return out, res
}

// runAction executes the staged computation of target exclusively inside
// the simulation, optionally saving spec's output or collecting results
// (see taskrt.Base.RunSolo for the drain and accounting contract).
func (e *Engine) runAction(target *RDD, spec *job.Spec, collect func([]partData)) job.Result {
	return e.RunSolo(func(ctl *sched.JobControl) *taskrt.Job {
		return e.submitAction("action", target, spec, collect, ctl, nil)
	})
}

// submitAction spawns the action's driver and task processes; a spec
// (target is its lineage) saves its output. done (optional) runs in
// simulation context when the driver completes. Each stage is one phase
// of the job ("stage0", "stage1", ...).
func (e *Engine) submitAction(name string, target *RDD, spec *job.Spec, collect func([]partData),
	ctl *sched.JobControl, done func(job.Result)) *taskrt.Job {

	cfg := &e.Cfg
	pools, err := ctl.Pools(cfg.WorkersPerNode, "spark-worker")
	if err != nil {
		return e.Reject(name, err, done)
	}
	slots := pools[0]
	// The per-node daemon plus the executors' base residency.
	j := e.Begin(name, ctl, cfg.DaemonMem+float64(cfg.WorkersPerNode)*cfg.ExecutorBaseMem)

	stages := plan(target)
	scale := e.Scale()
	for _, st := range stages {
		if !st.fromCache && st.root.source != nil {
			// A source a job.Spec's lineage built carries the spec's
			// fingerprint: its stage's record work is shared with the
			// engine's other actions of that fingerprint (taskrt.Ahead).
			blocks := st.root.source.Blocks
			nParts, emitScale := 0, scale
			if w := st.consumer; w != nil {
				nParts = w.nParts
				if w.combine != nil {
					emitScale = 1 // see collect
				}
			}
			st.ahead = taskrt.Ahead(j, st.root.fingerprint, blocks, nParts, 0, emitScale,
				func(i int) mapped { return st.mapBlock(blocks[i], scale) })
		}
	}
	if spec != nil {
		// A spec's lineage is a source stage feeding the shuffle of the
		// last (see lineage): each last task's record half depends on its
		// partition of every source task's output alone.
		last, src := stages[len(stages)-1], stages[len(stages)-2]
		taskrt.Tails(spec, src.ahead, last.root.wide.nParts)
		last.tails = src.ahead
	}

	e.C.Eng.Go("spark-driver", func(driver *sim.Proc) {
		if !e.appStarted {
			// Latch before sleeping so concurrently submitted actions do
			// not each pay the one-off SparkContext launch cost.
			e.appStarted = true
			driver.Sleep(cfg.AppLaunch)
		}
		var current []partData // the previous stage's partitions
		var in *taskrt.Outputs // the shuffle the previous stage wrote
		for si, st := range stages {
			if st.fromCache && st.cache == nil {
				// The producing stage just ran: pick up its materialized
				// partitions. If they did not fit the cache, Spark hands an
				// unstored partition straight to its consumer: read the
				// stage's output, pin nothing, and leave the RDD uncached so
				// the next action recomputes it from lineage.
				if st.cache = st.root.cacheData; st.cache == nil && si > 0 && stages[si-1].evicted {
					st.cache = current
				}
			}
			parts, out, err := e.runStage(driver, st, in, slots, ctl, si, si == len(stages)-1, spec, j)
			if err != nil {
				j.Fail(err)
				break
			}
			current, in = parts, out
			j.Phase(stageName(si), "")
		}
		if j.Err() == nil && collect != nil {
			collect(current)
		}
		driver.Sleep(cfg.JobFinalize)
		j.Finish(done)
	})
	return j
}

// taskIn is one stage task's immutable input — kept per stage so a lost
// shuffle output can be regenerated by re-running the producing task.
type taskIn struct {
	node    int
	pairs   []kv.Pair
	nominal float64
	blk     *dfs.Block // source tasks read this
	wide    *wideOp    // post-shuffle tasks pull their partition of it
}

// runStage executes one stage's tasks over worker slots. A stage that
// feeds a shuffle publishes its tasks' outputs to the shuffle edge it
// returns; any other returns its materialized partitions. in is the edge
// a post-shuffle stage pulls from.
func (e *Engine) runStage(driver *sim.Proc, st *stage, in *taskrt.Outputs, slots *sched.SlotPool, ctl *sched.JobControl,
	si int, isLast bool, spec *job.Spec, j *taskrt.Job) ([]partData, *taskrt.Outputs, error) {

	cfg := &e.Cfg

	var tasks []taskIn

	switch {
	case st.fromCache:
		if st.cache == nil {
			// The cache was invalidated (node failure) between planning and
			// this stage, and re-materialization did not land. Fail the
			// action cleanly rather than deadlock on missing partitions.
			return nil, nil, fmt.Errorf("rdd: cached partitions lost with a failed node mid-job")
		}
		for _, pd := range st.cache {
			tasks = append(tasks, taskIn{node: pd.node, pairs: pd.pairs, nominal: pd.nominal})
		}
	case st.root.source != nil:
		blocks := st.root.source.Blocks
		if len(blocks) == 0 {
			return nil, nil, fmt.Errorf("rdd: empty input file")
		}
		nodeOf := ctl.Placer().Place(blocks)
		for i, blk := range blocks {
			tasks = append(tasks, taskIn{node: nodeOf[i], blk: blk})
		}
	case st.root.wide != nil:
		w := st.root.wide
		for pi := 0; pi < w.nParts; pi++ {
			tasks = append(tasks, taskIn{node: pi % e.C.N(), wide: w})
		}
	default:
		return nil, nil, fmt.Errorf("rdd: stage with no root")
	}

	// The shuffle this stage writes. A consumer whose fetch targets a dead
	// node regenerates the producing task inline on its own node, from
	// the task's immutable input (Spark's lost-shuffle-output recompute,
	// without modeling the full stage-abort round trip).
	var out *taskrt.Outputs
	if st.consumer != nil {
		out = j.Outputs(len(tasks), "t", func(p *sim.Proc, att *sched.Attempt, ti int) (any, error) {
			return e.runTask(p, att, st, &tasks[ti], false, nil, ti, in)
		})
	}

	results := make([]partData, 0, len(tasks))
	for ti := range tasks {
		tin := &tasks[ti]
		// Every stage's tasks are restartable: inputs (block, cache slice,
		// shuffle edge) are immutable, outputs publish only through Done,
		// and final-stage DFS writes go through the attempt-scoped
		// committer — so even output-writing tasks can race speculative
		// backups with exactly-once committed files.
		j.Launch(sched.TaskSpec{
			Name:        fmt.Sprintf("spark-task-%d", ti),
			Node:        tin.node,
			Pool:        slots,
			Group:       stageName(si),
			Restartable: true,
			Pre:         func(p *sim.Proc) bool { return j.Err() != nil },
			Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
				p.Sleep(cfg.TaskDispatch)
				att.Report(0.05)
				return e.runTask(p, att, st, tin, isLast, spec, ti, in)
			},
			Done: func(p *sim.Proc, v any, att *sched.Attempt) error {
				switch v := v.(type) {
				case *taskrt.Output:
					out.Publish(ti, att, v)
				case partData:
					results = append(results, v)
				}
				if isLast {
					j.DependsOn(att)
				}
				return nil
			},
		})
	}
	j.Wait(driver)
	if err := j.Err(); err != nil {
		return nil, nil, err
	}

	// Cache materialization: pin this stage's output in executor memory.
	if out == nil && st.target.cached && !st.target.inCache {
		total := map[int]float64{}
		for _, pd := range results {
			total[pd.node] += pd.nominal * cfg.ExpansionFactor
		}
		fits := true
		for n, b := range total {
			budget := float64(cfg.WorkersPerNode)*cfg.WorkerHeap - e.usedExecutorMem(n)
			if b > budget {
				fits = false
				break
			}
		}
		if fits {
			for _, pd := range results {
				e.C.Node(pd.node).Mem.MustAlloc(pd.nominal * cfg.ExpansionFactor)
			}
			st.target.cacheData = results
			st.target.inCache = true
			e.registerCached(st.target)
			if st.target.lostParts > 0 {
				// This materialization recomputed partitions that died with
				// a failed executor — charge them to the recovery counters.
				ctl.Tracker().NoteCacheRecomputes(st.target.lostParts)
				st.target.lostParts = 0
			}
		}
		// If it does not fit, Spark silently evicts: the RDD is simply
		// not cached and later actions recompute it.
		st.evicted = !fits
	}
	return results, out, nil
}

func (e *Engine) usedExecutorMem(node int) float64 {
	used := e.C.Node(node).Mem.Used() - e.Cfg.DaemonMem - float64(e.Cfg.WorkersPerNode)*e.Cfg.ExecutorBaseMem
	if used < 0 {
		used = 0
	}
	return used
}

// mapStep names how far a task's record work got before its error.
type mapStep uint8

const (
	mapOK      mapStep = iota
	mapOpen            // the block did not open: nothing was read
	mapDecode          // a record did not decode: the block was read
	mapCollect         // the collector failed: the input was read and mapped
)

// mapped is the record half of a task: its input (nominal bytes, actual
// records), then its sized shuffle output when the stage feeds a shuffle
// or else its one output partition, or the error that stopped it and the
// step it struck at.
type mapped struct {
	inNominal float64
	inRecords int
	taskrt.Partitioned
	pairs  []kv.Pair
	err    error
	failed mapStep
}

// mapBlock is the record half of a task of a stage rooted at a block: it
// streams blk (decodes it into pairs when no narrow op is there to feed)
// into records, at scale (the filesystem's) nominal bytes per actual
// one. It touches no simulation state, so the action runs it ahead of the
// task (taskrt.Ahead).
func (st *stage) mapBlock(blk *dfs.Block, scale float64) mapped {
	var rd job.Reader
	var in recordIter
	var inflated int
	var err error
	var lend []byte
	if len(st.narrow) > 0 {
		err = rd.Open(st.root.format, blk.Data)
		inflated, in.rd = rd.Inflated(), &rd
		if st.root.format.Borrowable() {
			lend = blk.Data
		}
	} else {
		in.pairs, inflated, err = job.Records(st.root.format, blk.Data)
	}
	if err != nil {
		return mapped{err: fmt.Errorf("rdd: input: %w", err), failed: mapOpen}
	}
	m, aliased := st.records(in, float64(inflated)*scale, lend, scale)
	if !aliased {
		// Every record left the reader's buffer as a copy or lies in the
		// lent block. A chain of Filters alone keeps the records
		// themselves (a cached RDD may hold them for the engine's
		// lifetime): see job.Reader.
		rd.Close()
	}
	return m
}

// records is the record half of every task: it applies the fused narrow
// chain to in (nominal bytes), then sizes the shuffle's partitions in a
// fresh collector lent lend (at scale nominal bytes per actual one), or
// returns the task's one output partition. aliased reports whether that
// partition still points into in.
func (st *stage) records(in recordIter, nominal float64, lend []byte, scale float64) (m mapped, aliased bool) {
	m = mapped{inNominal: nominal, inRecords: len(in.pairs)}
	var coll *kv.PartitionCollector
	if st.consumer != nil {
		coll = st.collector()
		if lend != nil {
			coll.Borrow(lend)
		}
	}
	pairs, aliased := st.chain(in, coll)
	if in.rd != nil {
		if err := in.rd.Err(); err != nil {
			m.err, m.failed = fmt.Errorf("rdd: input: %w", err), mapDecode
			return m, aliased
		}
		m.inRecords = in.rd.Records()
	}
	if coll == nil {
		m.pairs = pairs
		return m, aliased
	}
	var err error
	if m.Partitioned, err = st.collect(coll, pairs, scale); err != nil {
		m.err, m.failed = err, mapCollect
	}
	return m, aliased
}

// runTask is the cost half of every task, on att's node: it obtains tin's
// record half — a block's from the stage's ahead work after charging its
// read and the streaming window, a cached partition's, or a pulled and
// merged partition's after charging the pull — charges the CPU, then
// writes the shuffle output (an *taskrt.Output), the cached partition's
// objects or the final file (a partData), stopping where the record
// half's error struck; a spec's last stage takes its part file's text
// from its reduce tail (taskrt.Pending.Tail). att is the owning attempt
// — the consuming task's when re-entered as a lost-shuffle regeneration.
func (e *Engine) runTask(p *sim.Proc, att *sched.Attempt, st *stage, tin *taskIn,
	isLast bool, spec *job.Spec, taskIdx int, edge *taskrt.Outputs) (any, error) {

	cfg := &e.Cfg
	scale := e.Scale()
	eng := e.C.Eng
	node := att.Node()
	mem := e.C.Node(node).Mem
	wide := tin.wide

	var wg sim.WaitGroup
	var cpuSec float64
	var m mapped
	var text []byte

	// Record-processing CPU is charged on the records entering the stage;
	// cardinality-bound data (records and outputs of combining shuffles)
	// is charged unscaled — see job.Spec.SaturatingIntermediate for the
	// rule.
	outScale := scale
	if wide != nil && wide.combine != nil {
		outScale = 1
	}

	switch {
	case tin.blk != nil:
		if m = st.ahead.Take(taskIdx); m.failed == mapOpen {
			return nil, m.err
		}
		if err := e.FS.StartRead(tin.blk, node, &wg); err != nil {
			return nil, err
		}
		// Streaming stages hold only a window of the partition as live
		// objects (the iterator pipeline), not the whole expansion.
		transient := 0.35 * m.inNominal * cfg.ExpansionFactor
		mem.MustAlloc(transient)
		defer mem.FreeLazy(eng, transient, cfg.GCLagSecs)
		if m.failed == mapDecode {
			return nil, m.err
		}
	case tin.pairs != nil:
		m, _ = st.records(recordIter{pairs: tin.pairs}, tin.nominal, nil, scale)
	default:
		// Shuffle fetch (an empty cached partition lands here too, with
		// nothing to pull): pull every map task's slice of this partition,
		// reporting fractional per-fetch progress so the straggler monitor
		// sees fetch rates rather than one opaque milestone. Fetched data
		// past the buffer spills to local disk; the heap it occupies is the
		// transient working memory charged below. Each run is a partition a
		// collector's Finish sorted, which is what lets the wide op below
		// merge them.
		var runs [][]kv.Pair
		var inputNominal float64
		if wide != nil {
			buf := e.Buffer(p, node, cfg.ShuffleBufferBytes, nil)
			var err error
			runs, err = edge.Pull(p, att, taskIdx,
				func(pulled, n int) { att.Report(0.1 + 0.6*float64(pulled)/float64(n)) },
				func(nominal float64) {
					inputNominal += nominal
					buf.Add(nominal)
				})
			if runs == nil {
				return nil, err
			}
		}

		// Materialization for the wide op: sort stages hold the whole
		// partition as objects — the OOM point.
		if wide != nil && wide.sorted {
			workingSet := inputNominal * cfg.ExpansionFactor * cfg.SortOverheadFactor
			if workingSet > cfg.WorkerHeap {
				return nil, &sim.OOMError{
					Account:   fmt.Sprintf("spark-worker[%d]", node),
					Requested: workingSet,
					Used:      0,
					Limit:     cfg.WorkerHeap,
				}
			}
		}
		// Transient working memory with GC lag.
		transient := inputNominal * cfg.ExpansionFactor
		mem.MustAlloc(transient)
		defer mem.FreeLazy(eng, transient, cfg.GCLagSecs)

		cpuSec += cfg.CPUPerByteSort * inputNominal // 0 without a wide op
		cpuSec += cfg.CPUPerByteReduce * inputNominal
		switch {
		case isLast && spec != nil: // no narrow op follows a spec's wide op
			m.inNominal = inputNominal
			text, m.inRecords = st.tails.Tail(taskIdx, runs)
		case wide != nil && wide.reduce != nil:
			m, _ = st.records(recordIter{pairs: taskrt.MergeReduce(runs, wide.reduce)}, inputNominal, nil, scale)
		default:
			m, _ = st.records(recordIter{pairs: taskrt.MergeRuns(runs)}, inputNominal, nil, scale)
		}
	}

	nominalRecords := float64(m.inRecords) * outScale
	cpuSec += cfg.CPUPerByteMap*st.cpuFactor()*m.inNominal + cfg.CPUPerRecord*nominalRecords
	e.StartCPU(&wg, node, cpuSec, e.GCOverhead(node, cpuSec, cfg.GCFactor, cfg.MemPressureGC))
	if m.err != nil {
		return nil, m.err
	}
	if st.consumer != nil {
		return e.writeShuffle(p, &wg, node, m.Partitioned)
	}

	// The action's last stage, or one feeding a cached materialization
	// without a shuffle: the task's pairs (or a spec's text) are its output.
	outNominal := taskrt.Framed(m.pairs, outScale)
	if !isLast && cfg.CacheCPUPerByte > 0 && st.target.cached {
		// Building the RDD's in-memory representation costs CPU
		// (deserialization into JVM objects — the "creates the RDD"
		// cost of the paper's Spark Stage 0).
		wg.Add(1)
		e.C.Node(node).CPU.Start(cfg.CacheCPUPerByte*outNominal, wg.Done)
	}
	wg.WaitAs(p, "disk")
	if isLast {
		att.Report(0.9)
		if spec != nil {
			if err := e.WritePart(p, att, spec.Output, fmt.Sprintf("part-%05d", taskIdx), outScale, text); err != nil {
				return nil, err
			}
		}
	}
	return partData{pairs: m.pairs, nominal: outNominal, node: node}, nil
}

// cpuFactor is the product of the CPU factors of the stage's narrow ops.
func (st *stage) cpuFactor() float64 {
	f := 1.0
	for _, n := range st.narrow {
		f *= n.cpuFactor
	}
	return f
}

// collector returns a fresh partition collector for the shuffle the
// stage feeds.
func (st *stage) collector() *kv.PartitionCollector {
	next := st.consumer
	return kv.NewPartitionCollector(next.nParts, 0, next.combine, next.part)
}

// chain applies the stage's fused narrow ops (really), one op at a time:
// the first reads in — a block's reader when the stage streams one, the
// pairs the task already holds otherwise (shuffle fetch, cached
// partition) — and every later op reads its predecessor's output. With a
// collector, the last op emits straight into it, which keeps what lies in
// a streamed Text or Seq block without a copy, and pairs comes back
// empty. Every other op materialises its output, copying into the task's
// arena what does not alias the input (map functions may reuse their
// buffers). aliased reports whether pairs still point into the stage's
// input; with no op at all, pairs is in's.
func (st *stage) chain(in recordIter, coll *kv.PartitionCollector) (pairs []kv.Pair, aliased bool) {
	pairs, aliased = in.pairs, true
	var arena kv.Arena
	for i, n := range st.narrow {
		var out []kv.Pair
		var sink job.Emit
		switch {
		case coll != nil && i == len(st.narrow)-1:
			sink, aliased = coll.Emit, false
		case n.aliasesInput:
			sink = func(k, v []byte) { out = append(out, kv.Pair{Key: k, Value: v}) }
		default:
			sink, aliased = func(k, v []byte) { out = append(out, arena.CopyPair(k, v)) }, false
		}
		for k, v, ok := in.next(); ok; k, v, ok = in.next() {
			n.f(k, v, sink)
		}
		pairs, in = out, recordIter{pairs: out}
	}
	return pairs, aliased
}

// collect emits pairs (what no narrow op sent to the collector) into
// coll and sizes the shuffle output: at scale nominal bytes per actual
// one, or unscaled behind a combiner (see job.Spec.SaturatingIntermediate).
func (st *stage) collect(coll *kv.PartitionCollector, pairs []kv.Pair, scale float64) (taskrt.Partitioned, error) {
	if st.consumer.combine != nil {
		scale = 1
	}
	for _, pr := range pairs {
		coll.Emit(pr.Key, pr.Value)
	}
	sized, err := taskrt.Collect(coll, scale)
	if err != nil {
		return sized, fmt.Errorf("rdd: shuffle %w", err)
	}
	return sized, nil
}

// writeShuffle charges the write of a task's shuffle output, sized, on
// node (Spark 0.8 hash shuffle materializes map outputs on the local
// disks of the map side), waits for it and every charge already in wg,
// and returns the output.
func (e *Engine) writeShuffle(p *sim.Proc, wg *sim.WaitGroup, node int, sized taskrt.Partitioned) (any, error) {
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

// recordIter is the input of a narrow op: a block's reader, or the pairs
// an earlier step of the task materialised.
type recordIter struct {
	rd    *job.Reader
	pairs []kv.Pair
	i     int // next of pairs
}

func (it *recordIter) next() (key, value []byte, ok bool) {
	if it.rd != nil {
		return it.rd.Next()
	}
	if it.i >= len(it.pairs) {
		return nil, nil, false
	}
	p := &it.pairs[it.i]
	it.i++
	return p.Key, p.Value, true
}
