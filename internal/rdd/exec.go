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
	consumer *wideOp // the shuffle this stage feeds (nil for the last stage)

	// fromCache marks a stage planned to read the root RDD's cached
	// partitions; cache is the snapshot it reads. The snapshot is taken
	// at plan time when the cache is already materialized, else at stage
	// start (the producing stage ran earlier in the same action), so a
	// node failure invalidating the cache mid-action cannot dangle a
	// running stage — at worst the snapshot is gone before the stage
	// starts and the action fails cleanly for the caller to resubmit.
	fromCache bool
	cache     []partData
}

// plan walks the lineage and produces stages bottom-up, linking each
// stage to the wide op that consumes its output.
func plan(r *RDD) []*stage {
	var stages []*stage
	var walk func(r *RDD) *stage
	walk = func(r *RDD) *stage {
		switch {
		case r.cached && r.inCache:
			return &stage{root: r, target: r, fromCache: true, cache: r.cacheData}
		case r.source != nil:
			return &stage{root: r, target: r}
		case r.narrow != nil:
			par := r.narrow.parent
			var st *stage
			if par.cached {
				// Cut the stage at a cached parent: the parent is
				// materialized (and pinned) by its own stage, then this
				// chain reads from the cache.
				if !par.inCache {
					stages = append(stages, walk(par))
				}
				st = &stage{root: par, target: par, fromCache: true, cache: par.cacheData}
			} else {
				st = walk(par)
			}
			st.narrow = append(st.narrow, r.narrow)
			st.target = r
			return st
		case r.wide != nil:
			parent := walk(r.wide.parent)
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

// SaveAsTextFile computes the RDD and writes one part file per partition.
func (r *RDD) SaveAsTextFile(path string) job.Result {
	return r.eng.runAction(r, path, nil)
}

// Collect computes the RDD and returns all pairs (partition order).
func (r *RDD) Collect() ([]kv.Pair, job.Result) {
	var out []kv.Pair
	res := r.eng.runAction(r, "", func(parts []partData) {
		for _, pd := range parts {
			out = append(out, pd.pairs...)
		}
	})
	return out, res
}

// runAction executes the staged computation of target exclusively inside
// the simulation, optionally writing output or collecting results (see
// taskrt.Base.RunSolo for the drain and accounting contract).
func (e *Engine) runAction(target *RDD, outPath string, collect func([]partData)) job.Result {
	return e.RunSolo(func(ctl *sched.JobControl) *taskrt.Job {
		return e.submitAction("action", target, outPath, collect, ctl, nil)
	})
}

// submitAction spawns the action's driver and task processes. done
// (optional) runs in simulation context when the driver completes. Each
// stage is one phase of the job ("stage0", "stage1", ...).
func (e *Engine) submitAction(name string, target *RDD, outPath string, collect func([]partData),
	ctl *sched.JobControl, done func(job.Result)) *taskrt.Job {

	cfg := &e.Cfg
	// The per-node daemon plus the executors' base residency.
	j := e.Begin(name, ctl, cfg.DaemonMem+float64(cfg.WorkersPerNode)*cfg.ExecutorBaseMem)

	stages := plan(target)
	slots := ctl.Pool("spark-worker", cfg.WorkersPerNode)

	e.C.Eng.Go("spark-driver", func(driver *sim.Proc) {
		if !e.appStarted {
			// Latch before sleeping so concurrently submitted actions do
			// not each pay the one-off SparkContext launch cost.
			e.appStarted = true
			driver.Sleep(cfg.AppLaunch)
		}
		var current []partData
		var pf *stageFetch // previous stage's shuffle-recovery context
		for si, st := range stages {
			out, nf, err := e.runStage(driver, st, current, pf, slots, ctl, si, si == len(stages)-1, outPath, j)
			if err != nil {
				j.Fail(err)
				break
			}
			current, pf = out, nf
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
	inflate float64    // decoded nominal bytes
	fetches []partData // post-shuffle tasks fetch these
	wide    *wideOp
}

// stageFetch is the shuffle-recovery context a stage hands its consumer:
// the producing tasks' immutable inputs plus dedup state, so a consumer
// whose fetch targets a dead node regenerates the producer's partitions
// inline on its own node (Spark's lost-shuffle-output recompute, without
// modeling the full stage-abort round trip). The first fetcher to notice
// a loss recomputes while siblings needing the same producer wait.
type stageFetch struct {
	eng    *Engine
	st     *stage
	inputs []taskIn
	prev   *stageFetch // the producing stage's own upstream, for recursion
	ctl    *sched.JobControl
	redone map[int][]partData // producer taskIdx -> regenerated partitions
	busy   map[int]bool
	cond   sim.Cond
	// spans holds the producing attempts' span IDs (task index order) so
	// the consuming stage's fetch spans can wire dependency edges.
	spans []uint64
	// evicted marks a stage whose target is cached but whose output did
	// not fit the executor cache: a from-cache stage later in the same
	// action reads that output directly instead of a snapshot.
	evicted bool
}

// recover returns partition pi of the lost producer output pd, recomputing
// the producing task on the caller's node if no sibling already did.
// Cached-root producers recompute from the stage's plan-time cache
// snapshot; losing the executor cache itself drops the RDD for recompute
// on the next action (see Engine.dropCachesOn).
func (sf *stageFetch) recover(p *sim.Proc, att *sched.Attempt, pd partData, pi int) (partData, error) {
	ti := pd.taskIdx
	for sf.busy[ti] {
		sf.cond.Wait(p, "recompute-wait")
	}
	if rep, ok := sf.redone[ti]; ok {
		return rep[pi], nil
	}
	sf.busy[ti] = true
	// The recompute parks on simulated I/O, so this attempt can be killed
	// mid-flight (preemption, a second node failure): release the claim on
	// the kill unwind too, or every sibling waiter deadlocks.
	defer func() {
		delete(sf.busy, ti)
		sf.cond.Broadcast()
	}()
	sf.ctl.Tracker().NoteRecompute()
	out, err := sf.eng.runTask(p, att, sf.st, &sf.inputs[ti], false, "", ti, sf.prev)
	if err != nil {
		return partData{}, err
	}
	sf.redone[ti] = out
	return out[pi], nil
}

// runStage executes one stage's tasks over worker slots and returns the
// materialized output partitions (input to the next stage) together with
// the recovery context the next stage fetches through.
func (e *Engine) runStage(driver *sim.Proc, st *stage, shuffleIn []partData, prevFetch *stageFetch,
	slots *sched.SlotPool, ctl *sched.JobControl, si int, isLast bool, outPath string,
	j *taskrt.Job) ([]partData, *stageFetch, error) {

	cfg := &e.Cfg

	var tasks []taskIn

	switch {
	case st.fromCache:
		if st.cache == nil {
			// The producing stage ran earlier in this action; pick up its
			// materialized partitions now.
			st.cache = st.root.cacheData
		}
		if st.cache == nil && prevFetch != nil && prevFetch.evicted && prevFetch.st.target == st.root {
			// The producing stage just ran but its output did not fit the
			// cache. Spark hands an unstored partition straight to its
			// consumer: read the stage's output, pin nothing, and leave
			// the RDD uncached so the next action recomputes from lineage.
			st.cache = shuffleIn
		}
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

	// For post-shuffle stages the fetches are organized here: shuffleIn
	// contains one partData per (map task, reduce partition), tagged by
	// partition in nominal order. Build an index.
	var byPart map[int][]partData
	if st.root.wide != nil {
		byPart = make(map[int][]partData)
		for i, pd := range shuffleIn {
			pi := i % st.root.wide.nParts
			byPart[pi] = append(byPart[pi], pd)
		}
		for i := range tasks {
			tasks[i].fetches = byPart[i]
		}
	}

	// The recovery context carries the inputs just built; the next stage's
	// fetch loop recomputes through it when a producer's node dies.
	nf := &stageFetch{eng: e, st: st, inputs: tasks, prev: prevFetch, ctl: ctl,
		redone: make(map[int][]partData), busy: make(map[int]bool),
		spans: make([]uint64, len(tasks))}

	results := make([]partData, 0, len(tasks))
	for ti := range tasks {
		tin := &tasks[ti]
		// Every stage's tasks are restartable: inputs (block, cache slice,
		// shuffle partData) are immutable, intermediate partitions publish
		// only through Done, and final-stage DFS writes go through the
		// attempt-scoped committer — so even output-writing tasks can race
		// speculative backups with exactly-once committed files.
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
				return e.runTask(p, att, st, tin, isLast, outPath, ti, prevFetch)
			},
			Done: func(p *sim.Proc, v any, att *sched.Attempt) error {
				results = append(results, v.([]partData)...)
				nf.spans[ti] = att.TraceSpan().SpanID()
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
	if st.target.cached && !st.target.inCache {
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
		nf.evicted = !fits
	}
	return results, nf, nil
}

func (e *Engine) usedExecutorMem(node int) float64 {
	used := e.C.Node(node).Mem.Used() - e.Cfg.DaemonMem - float64(e.Cfg.WorkersPerNode)*e.Cfg.ExecutorBaseMem
	if used < 0 {
		used = 0
	}
	return used
}

// runTask executes one task of a stage on att's node: obtain tin's input
// (block read, cache, or shuffle fetch), apply fused narrow ops, then
// either write shuffle output, write the final file, or hand back
// collected pairs. att is the owning attempt — the consuming task's when
// re-entered as a lost-shuffle recompute; prev is the upstream stage's
// recovery context for fetches that target dead nodes.
func (e *Engine) runTask(p *sim.Proc, att *sched.Attempt, st *stage, tin *taskIn,
	isLast bool, outPath string, taskIdx int, prev *stageFetch) ([]partData, error) {

	cfg := &e.Cfg
	scale := e.Scale()
	eng := e.C.Eng
	node := att.Node()
	wide := tin.wide
	var pairs []kv.Pair
	var inputNominal float64
	cpuFactor := 1.0
	for _, n := range st.narrow {
		cpuFactor *= n.cpuFactor
	}

	var wg sim.WaitGroup
	var cpuSec float64

	// A stage rooted at a block streams it: rd feeds the first narrow op
	// record by record. A stage with no op to feed (a cached source RDD)
	// keeps the records themselves, so it decodes the block into pairs.
	var rd job.Reader
	streaming := tin.blk != nil && len(st.narrow) > 0

	switch {
	case tin.blk != nil:
		var inflated int
		var err error
		if streaming {
			err = rd.Open(st.root.format, tin.blk.Data)
			inflated = rd.Inflated()
		} else {
			pairs, inflated, err = job.Records(st.root.format, tin.blk.Data)
		}
		if err != nil {
			return nil, fmt.Errorf("rdd: input: %w", err)
		}
		if err := e.FS.StartRead(tin.blk, node, &wg); err != nil {
			return nil, err
		}
		inputNominal = float64(inflated) * scale
	case tin.pairs != nil:
		pairs = tin.pairs
		inputNominal = tin.nominal
	default:
		// Shuffle fetch: pull every map task's slice of this partition,
		// reporting fractional per-fetch progress so the straggler monitor
		// sees fetch rates rather than one opaque milestone. Fetched data
		// past the buffer spills to local disk; the heap it occupies is
		// the transient working memory charged below.
		fetches := e.Fetches(p, att, "t")
		buf := e.Buffer(p, node, cfg.ShuffleBufferBytes, nil)
		// One run per producing task: each is a partition a collector's
		// Finish sorted, which is what lets the wide op below merge them.
		var runs [][]kv.Pair
		for fi, pd := range tin.fetches {
			att.Report(0.1 + 0.6*float64(fi)/float64(len(tin.fetches)))
			if pd.nominal > 0 && !e.C.Alive(pd.node) {
				// The materialized map output died with its node:
				// regenerate the producer's partitions locally (dedup'd
				// across fetchers) and pull this partition from there.
				rep, err := prev.recover(p, att, pd, taskIdx)
				if err != nil {
					return nil, err
				}
				pd = rep
			}
			runs = append(runs, pd.pairs)
			if pd.nominal == 0 {
				continue
			}
			fetches.Fetch(pd.taskIdx, pd.node, pd.nominal, pd.records, prev.spans[pd.taskIdx])
			inputNominal += pd.nominal
			buf.Add(pd.nominal)
		}
		fetches.Done()

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
		mem := e.C.Node(node).Mem
		mem.MustAlloc(transient)
		defer mem.FreeLazy(eng, transient, cfg.GCLagSecs)

		if wide != nil {
			if wide.reduce != nil {
				pairs = taskrt.MergeReduce(runs, wide.reduce)
			} else {
				pairs = taskrt.MergeRuns(runs)
			}
			cpuSec += cfg.CPUPerByteSort * inputNominal
			cpuSec += cfg.CPUPerByteReduce * inputNominal
		}
	}

	if tin.blk != nil {
		// Streaming stages hold only a window of the partition as live
		// objects (the iterator pipeline), not the whole expansion.
		transient := 0.35 * inputNominal * cfg.ExpansionFactor
		mem := e.C.Node(node).Mem
		mem.MustAlloc(transient)
		defer mem.FreeLazy(eng, transient, cfg.GCLagSecs)
	}

	// Record-processing CPU is charged on the records entering the stage;
	// cardinality-bound data (records and outputs of combining shuffles)
	// is charged unscaled — see job.Spec.SaturatingIntermediate for the
	// rule.
	outScale := scale
	if wide != nil && wide.combine != nil {
		outScale = 1
	}
	inRecords := len(pairs)

	// Apply the fused narrow chain (really), one op at a time: the first
	// op pulls its input from the block's reader when the stage streams
	// one and from the pairs the task already holds otherwise (shuffle
	// fetch, cached partition); every later op reads its predecessor's
	// output. A stage that feeds a shuffle ends in the partition
	// collector: its last op emits straight into it and pairs is left
	// empty. Every other op materialises its output, copying into the
	// task's arena what does not alias the input (map functions may reuse
	// their buffers).
	next := st.consumer
	var coll *kv.PartitionCollector
	if !isLast && next != nil {
		coll = kv.NewPartitionCollector(next.nParts, 0, next.combine, next.part)
	}
	var arena kv.Arena
	in := recordIter{pairs: pairs}
	if streaming {
		in.rd = &rd
	}
	aliased := true // what the task keeps still points into the stage's input
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
	if streaming {
		if err := rd.Err(); err != nil {
			return nil, fmt.Errorf("rdd: input: %w", err)
		}
		inRecords = rd.Records()
		if !aliased {
			// Every record left the reader's buffer as a copy. A chain of
			// Filters alone keeps the records themselves (a cached RDD may
			// hold them for the engine's lifetime): see job.Reader.
			rd.Close()
		}
	}
	nominalRecords := float64(inRecords) * outScale
	cpuSec += cfg.CPUPerByteMap*cpuFactor*inputNominal + cfg.CPUPerRecord*nominalRecords
	e.StartCPU(&wg, node, cpuSec, e.GCOverhead(node, cpuSec, cfg.GCFactor, cfg.MemPressureGC))

	if coll == nil {
		// The action's last stage, or one feeding a cached
		// materialization without a shuffle: the task's pairs are its one
		// output partition.
		outNominal := taskrt.Framed(pairs, outScale)
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
			if err := e.WritePart(p, att, outPath, fmt.Sprintf("part-%05d", taskIdx), outScale, pairs); err != nil {
				return nil, err
			}
		}
		return []partData{{pairs: pairs, nominal: outNominal, node: node, taskIdx: taskIdx}}, nil
	}

	// This stage feeds a wide op — write shuffle output (Spark 0.8 hash
	// shuffle materializes map outputs on the local disks of the map
	// side).
	shufScale := scale
	if next.combine != nil {
		shufScale = 1
	}
	for _, pr := range pairs {
		coll.Emit(pr.Key, pr.Value)
	}
	sized, err := taskrt.Collect(coll, shufScale)
	if err != nil {
		return nil, fmt.Errorf("rdd: shuffle %w", err)
	}
	out := make([]partData, next.nParts)
	for pi, part := range sized.Parts {
		out[pi] = partData{pairs: part, nominal: sized.Nominal[pi], records: sized.Records[pi], node: node, taskIdx: taskIdx}
	}
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
		e.StartSend(&wg, node, sized.OutNominal, sized.OutRecords)
	}
	wg.WaitAs(p, "disk")
	return out, nil
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
