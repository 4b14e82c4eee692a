// Package core implements DataMPI, the paper's primary contribution: a
// key-value-pair communication library extending MPI for Hadoop/Spark-like
// Big Data computing (Lu et al., IPDPS '14; this paper, Section 2.3).
//
// A DataMPI job forms a bipartite graph of tasks split into an O (origin)
// communicator and an A (acceptor) communicator. The library supports the
// "4D" communication characteristics the DataMPI papers identify:
//
//   - dichotomic: tasks are divided into the O and A sides;
//   - dynamic: concurrent tasks are scheduled onto the communicators as
//     slots free up;
//   - data-centric: emitted key-value pairs are partitioned and buffered
//     at the A-side workers so A tasks read their intermediate data
//     locally;
//   - diversified: Common mode covers MapReduce-style jobs and Iteration
//     mode covers iterative jobs (K-means), with in-memory state reuse.
//
// The headline mechanism the paper credits for DataMPI's wins is
// implemented directly: O tasks pipeline the partitioned intermediate
// data to A-side memory buffers *while* they compute, so communication
// overlaps computation and the intermediate data never touches disk
// unless the A-side buffer overflows. Per-task processes are native (no
// JVM), so startup and per-byte CPU costs are low; both constants come
// from the paper's own measurements (see README "Transport model" and
// bench/paper_refs.json).
package core

import (
	"fmt"
	"math"
	"strconv"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/mpi"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/taskrt"
	"github.com/datampi/datampi-go/internal/trace"
	"github.com/datampi/datampi-go/internal/transport"
)

// Config is the DataMPI cost/configuration profile (4 O and 4 A tasks per
// node; native processes, so no memory-pressure GC).
type Config struct {
	taskrt.Profile

	SendBufferBytes float64 // per-destination O-side send buffer (pipelining unit)
	ABufferBytes    float64 // A-side in-memory intermediate buffer per task

	// DisablePipelining is an ablation switch: when set, O tasks send
	// their partitioned output only after the read and computation
	// complete — Hadoop's post-map shuffle shape — instead of overlapping
	// communication with computation. It quantifies the paper's headline
	// mechanism (Section 2.3: "Data movement is pipelining with the
	// computation overlapped in O tasks").
	DisablePipelining bool
}

// DefaultConfig returns the calibrated DataMPI profile.
func DefaultConfig() Config {
	return Config{
		Profile: taskrt.Profile{
			TasksPerNode:     4,
			JobLaunch:        5.0, // mpirun spawns every process at once
			TaskStart:        0.5,
			JobTeardown:      3.0,
			MapCPUPerByte:    0.32e-7, // native record processing, ~2x leaner than JVM
			ReduceCPUPerByte: 0.50e-7,
			SortCPUPerByte:   0.25e-7,
			RecordCPU:        0.5e-6,
			Overhead:         0.08,
			TaskMem:          0.6 * cluster.GB,
			DaemonMem:        0.2 * cluster.GB,
			PortedCPUFactor:  1.3, // ported Naive Bayes: a ~33 % gain, below the micro-benchmarks'
		},
		SendBufferBytes: 4 * cluster.MB,
		ABufferBytes:    512 * cluster.MB,
	}
}

// Engine runs DataMPI Common-mode jobs. It implements job.Engine
// (exclusive single-job runs) and sched.Engine (job admission onto a
// shared testbed); the job lifecycle, A-side buffer and part-file commit
// come from the embedded runtime.
type Engine struct {
	taskrt.Base
	Cfg Config
}

var _ sched.Engine = (*Engine)(nil)

// New creates a DataMPI engine over a filesystem.
func New(fs *dfs.FS, cfg Config) *Engine {
	e := &Engine{Cfg: cfg}
	e.Base = taskrt.NewBase("DataMPI", fs, &e.Cfg.Profile, transport.DataMPIProfile())
	return e
}

// Run executes a Common-mode job exclusively: the equivalent of one
// MapReduce round, with spec.Map as the O function and spec.Reduce as the
// A function (see taskrt.Base.RunSolo for the drain and accounting
// contract).
func (e *Engine) Run(spec job.Spec) job.Result {
	return e.RunSolo(func(ctl *sched.JobControl) *taskrt.Job { return e.submit(spec, ctl, nil) })
}

// Submit implements sched.Engine: it admits the job onto the shared
// simulation without driving the event loop.
func (e *Engine) Submit(spec job.Spec, ctl *sched.JobControl, done func(job.Result)) {
	e.submit(spec, ctl, done)
}

// submit declares the job's O and A stages and drives them. done
// (optional) runs in simulation context when the driver completes.
func (e *Engine) submit(spec job.Spec, ctl *sched.JobControl, done func(job.Result)) *taskrt.Job {
	j, slots := e.Admit(&spec, ctl, e.Cfg.DaemonMem, done, e.Cfg.TasksPerNode, "dm-o")
	if slots == nil {
		return j
	}
	res := &j.Res
	eng := e.C.Eng

	blocks := spec.Input.Blocks
	nA := spec.Reducers // at least one: see job.Spec.Normalize
	nO, world, splitsOf := e.layout(ctl.Placer(), blocks, nA)
	oSpans := make([]uint64, nO) // O rank -> latest attempt span ID

	// Each split's record work depends on the split alone, so it starts
	// now, on worker goroutines, over the splits rank by rank; an O task
	// picks up its splits' results when it reaches them. An A rank's
	// record half depends on its partition of every split alone, so it
	// starts on the same workers once they all exist.
	first := make([]int, nO) // O rank -> index of its first split
	var flat []*dfs.Block
	for o, splits := range splitsOf {
		first[o] = len(flat)
		flat = append(flat, splits...)
	}
	maps := taskrt.MapAhead(j, &spec, flat, nA, 0, true)
	oSlots, aSlots := slots[0], e.aPool(ctl, nA)

	// oStage declares the O ranks as the tasks called name. O tasks are
	// restartable: the body re-reads its immutable splits and re-streams
	// partitions, and duplicate sends are harmless because the A side
	// keeps one message per split tag and discards re-deliveries (the
	// duplicate bytes still cross the simulated network, as real
	// speculative shuffles do). counter is what each winner counts as. An
	// O task that fails for good will never send its split tags, and
	// every A rank waits for every tag: the failure is handed to each of
	// them (MPI_Abort in miniature), so the job ends when the rank does.
	oStage := func(name, counter string, final func()) taskrt.Stage {
		return taskrt.Stage{
			Name: name, Group: "O", Nodes: e.Spread(nO), Pool: oSlots, Restart: taskrt.Restartable,
			Body: func(p *sim.Proc, att *sched.Attempt, o int) (any, error) {
				oSpans[o] = att.TraceSpan().SpanID()
				return nil, e.runOTask(p, att, &spec, world, o, nO, nA, splitsOf[o],
					func(si int) taskrt.Mapped { return maps.Take(first[o] + si) })
			},
			Done: func(p *sim.Proc, att *sched.Attempt, o int, v any) error {
				res.AddCounter(counter, 1)
				oSpans[o] = att.TraceSpan().SpanID()
				return nil
			},
			Fail: func(o int, err error) {
				j.Fail(err)
				for a := 0; a < nA; a++ {
					world.Isend(o, nO+a, abortTag, 0, err, nil)
				}
			},
			Final: final,
		}
	}

	// A-side recovery: a restarted A rank lost its in-memory intermediate
	// data, so the engine replays the whole O side into it — every replay
	// send reaches every A rank, and the live ones discard the duplicate
	// streams by split tag. Rounds are shared: ranks restarted together
	// ride one replay.
	rec := &aRecovery{nO: nO, pendingAt: -1}
	rec.launch = func(gen int) {
		for o := 0; o < nO; o++ {
			ctl.Tracker().NoteRecompute()
		}
		// taskDone may chain a pending round: it runs as the task's Final,
		// ahead of the job's own count (see taskrt.Stage).
		j.Run(oStage("O-%d~r"+strconv.Itoa(gen), "o_replays", func() { rec.taskDone(eng.Now()) }))
	}

	// mpirun spawns every task process across the cluster at once — no
	// per-wave JVM costs, the paper's "low overhead" property.
	j.Drive("datampi-driver:"+spec.Name, true, func(*sim.Proc) bool {
		oDone := 0
		j.Run(oStage("O-%d", "o_tasks", func() {
			if oDone++; oDone == nO {
				j.Phase("O", "A")
			}
		}))
		// A tasks are never speculated: dichotomic A ranks accumulate the
		// job's intermediate data in memory as it streams in, so a backup
		// could not re-receive consumed messages. They are Retryable,
		// though: losing the node restarts the rank on a healthy one
		// (PreRetry widens the gang-scheduled pool so the re-homed rank
		// can get a slot the failure took out of service), and the engine
		// replays the O side into it.
		j.Run(taskrt.Stage{
			Name: "A-%d", Group: "A", Nodes: e.Spread(nA), Pool: aSlots, Restart: taskrt.Retryable,
			PreRetry: func() { aSlots.Grow(aSlots.PerNode() + 1) },
			Body: func(p *sim.Proc, att *sched.Attempt, a int) (any, error) {
				return nil, e.runATask(p, att, &spec, world, nO, a, len(blocks), j, rec, oSpans, maps)
			},
			Done: func(p *sim.Proc, att *sched.Attempt, a int, v any) error {
				res.AddCounter("a_tasks", 1)
				j.DependsOn(att)
				return nil
			},
		})
		return true
	}, done)
	return j
}

// aRecovery coordinates O-side replay for restarted A ranks. A restarted
// rank flushes its mailbox (its buffered state died with the node) and
// calls ensureReplay with the flush time: a replay round re-executes every
// O task, whose sends re-deliver every split tag to every A rank — live
// ranks discard the duplicates, the restarted rank is fed from scratch. A
// round already in flight that started at or after the flush covers it; a
// flush arriving mid-round queues one follow-up round.
type aRecovery struct {
	nO          int
	launch      func(gen int) // launches replay round gen
	active      bool
	started     float64 // sim time the in-flight round began
	outstanding int     // replay tasks still to finish in the round
	pendingAt   float64 // latest uncovered flush time (-1 when none)
	gen         int     // round number, for replay task names
}

// ensureReplay requests that every split tag be re-sent after flushT.
func (r *aRecovery) ensureReplay(flushT float64) {
	if r.active {
		if r.started >= flushT {
			return // the in-flight round began after our mailbox flush
		}
		if flushT > r.pendingAt {
			r.pendingAt = flushT
		}
		return
	}
	r.start(flushT)
}

func (r *aRecovery) start(now float64) {
	r.active = true
	r.started = now
	r.outstanding = r.nO
	r.pendingAt = -1
	r.gen++
	r.launch(r.gen)
}

// taskDone retires one replay task; completing a round starts the queued
// follow-up, if any.
func (r *aRecovery) taskDone(now float64) {
	r.outstanding--
	if r.outstanding == 0 {
		r.active = false
		if r.pendingAt >= 0 {
			r.start(now)
		}
	}
}

// layout sizes the O communicator (one rank per task slot, no more than
// there are splits) and lays out its ranks followed by nA A ranks, each
// side spread round-robin across nodes; input blocks go to nodes with
// locality preference and balanced waves, then round-robin over that
// node's local O ranks (see sched.Placer.PlaceOnRanks).
func (e *Engine) layout(pl sched.Placer, blocks []*dfs.Block, nA int) (nO int, w *mpi.World, splitsOf [][]*dfs.Block) {
	nO = min(e.Cfg.TasksPerNode*e.C.N(), len(blocks))
	oNodes := e.Spread(nO)
	w = mpi.NewWorld(e.C, append(oNodes, e.Spread(nA)...))
	w.SetTransport(e.Transport())
	return nO, w, pl.PlaceOnRanks(blocks, oNodes)
}

// aPool returns the job's A-rank slots. A job takes its O slots, "dm-o"
// at TasksPerNode per node, on admission. With a single job both pools
// are at least as wide as the communicators mpirun lays out (the A pool
// widens when nA exceeds TasksPerNode*N, matching the all-ranks-at-once
// launch), so acquisition never blocks; under a shared queue they make
// concurrent DataMPI jobs contend per node. The A pool is elastic: a later
// job with a denser A layout grows the shared pool rather than strand
// ranks behind a latched size.
func (e *Engine) aPool(ctl *sched.JobControl, nA int) *sched.SlotPool {
	aPerNode := e.Cfg.TasksPerNode
	if need := (nA + e.C.N() - 1) / e.C.N(); need > aPerNode {
		aPerNode = need
	}
	return ctl.PoolGrow("dm-a", aPerNode)
}

// runOTask processes this rank's splits: for each split, the input read,
// the O-function CPU, and the pipelined partition sends all overlap.
// mapped(si) is split si's record work, partitioned into one sorted
// (and, if configured, combined) run per A rank. The body is restartable:
// a speculative attempt runs it on its own node (att.Node may differ from
// the rank's home node) and everything it allocates is released by defers
// even when cancelled.
func (e *Engine) runOTask(p *sim.Proc, att *sched.Attempt, spec *job.Spec, w *mpi.World, rank, nO, nA int, splits []*dfs.Block,
	mapped func(si int) taskrt.Mapped) error {
	cfg := &e.Cfg
	node := att.Node()
	mem := e.C.Node(node).Mem
	p.Sleep(cfg.TaskStart)
	mem.MustAlloc(cfg.TaskMem)
	defer mem.Free(cfg.TaskMem)
	var sendBufHeld float64
	defer func() { mem.Free(sendBufHeld) }()

	for si, blk := range splits {
		att.Report(float64(si) / float64(len(splits)))
		// The O side partitions into per-destination send buffers. The
		// collector sorts each one (and combines, if configured), so the
		// A side receives sorted runs and only merges.
		m := mapped(si)
		if m.Err != nil {
			return fmt.Errorf("datampi: O %w", m.Err)
		}
		inflatedNominal, nominalRecords, out := m.InNominal, m.InRecords, m.Out

		// Send buffers hold one pipelining unit per destination. The held
		// amount is tracked so the deferred release covers a cancelled
		// attempt mid-split.
		sendBufMem := float64(nA) * cfg.SendBufferBytes
		if sendBufMem > 64*cluster.MB*float64(nA) {
			sendBufMem = 64 * cluster.MB * float64(nA)
		}
		mem.MustAlloc(sendBufMem)
		sendBufHeld += sendBufMem

		cpuSec := e.MapCPU(spec, spec.MapCPUFactor, inflatedNominal, nominalRecords, out.OutNominal)

		var wg sim.WaitGroup
		if err := e.FS.StartRead(blk, node, &wg); err != nil {
			return err
		}
		e.StartCPU(&wg, node, cpuSec, e.Overhead(node, cpuSec))
		sendAll := func(sg *sim.WaitGroup) {
			for a := 0; a < nA; a++ {
				sg.Add(1)
				w.IsendFromRecords(node, rank, nO+a, splitTag(blk), out.Nominal[a], out.Records[a], out.Parts[a], sg.Done)
			}
		}
		if !cfg.DisablePipelining {
			// Pipelined communication: every partition streams to its A
			// task concurrently with the computation above. The message
			// carries the real records.
			sendAll(&wg)
		}
		wg.WaitAs(p, "disk")
		if cfg.DisablePipelining {
			// Ablation: communication starts only after the task's read
			// and computation finish, as in Hadoop's shuffle.
			var sg sim.WaitGroup
			sendAll(&sg)
			sg.WaitAs(p, "net-send")
		}
		mem.Free(sendBufMem)
		sendBufHeld -= sendBufMem
	}
	return nil
}

func splitTag(blk *dfs.Block) int { return int(blk.ID) + 1000 }

// abortTag is the tag (below every splitTag) of the message, carrying an
// error and no bytes, with which an O rank that failed for good ends the A
// ranks' receive loops.
const abortTag = 0

// runATask receives one message per input split, buffering the pairs in
// memory (spilling past the buffer limit), then sorts, groups, reduces
// and writes its output partition. Messages are deduplicated by split
// tag: when a straggling O attempt and its speculative backup both stream
// a split's partition, the bytes cross the network twice but only the
// first delivery is kept.
//
// Node-failure recovery: a restarted attempt (the rank re-homed onto a
// healthy node) flushes its mailbox and asks for an O-side replay round —
// the same tag dedup that absorbs speculative duplicates lets every live
// rank ignore the replayed streams while this one is fed from scratch.
func (e *Engine) runATask(p *sim.Proc, att *sched.Attempt, spec *job.Spec, w *mpi.World, nO, a, totalSplits int,
	j *taskrt.Job, rec *aRecovery, oSpans []uint64, maps *taskrt.Pending[taskrt.Mapped]) error {
	cfg, res := &e.Cfg, &j.Res

	rank := nO + a
	node := att.Node()
	mem := e.C.Node(node).Mem
	p.Sleep(cfg.TaskStart)
	mem.MustAlloc(cfg.TaskMem)
	defer mem.Free(cfg.TaskMem)
	if w.NodeOf(rank) != node {
		// The rank was re-homed off its failed preferred node: sends from
		// here on route to the new node.
		w.Rebind(rank, node)
	}
	if att.Index() > 0 {
		// Restarted after node failure: the buffered intermediate data and
		// mailbox died with the machine. Start empty and have the O side
		// replayed — unless an abort went out with the mailbox.
		w.Flush(rank)
		if err := j.Err(); err != nil {
			return err
		}
		rec.ensureReplay(p.Engine().Now())
		res.AddCounter("a_restarts", 1)
	}

	var runs [][]kv.Pair
	capBytes := cfg.ABufferBytes
	if capBytes <= 0 {
		capBytes = math.Inf(1) // no buffer limit configured: never spill
	}
	buf := e.Buffer(p, node, capBytes, mem)
	// Registered before the receive loop so a kill mid-receive (node
	// failure) releases the buffered intermediate data.
	defer buf.Release()
	// One recv span covers the whole receive window. Its O-span deps make
	// the overlap visible to the critical-path walk: only the tail of the
	// receive past the last O task's completion sits on the path, which is
	// exactly the communication DataMPI does NOT hide.
	tsp := att.TraceSpan()
	var rsp *trace.Span
	if tr := att.Tracer(); tr != nil {
		rsp = tr.BeginChild(tsp, "recv", "net", node, tsp.Tid, p.Engine().Now())
	}
	var receivedNominal float64
	seenTags := make(map[int]bool, totalSplits)
	for len(seenTags) < totalSplits {
		m := w.Recv(p, rank, mpi.AnySource, -1)
		if m.Tag == abortTag {
			return m.Payload.(error)
		}
		if seenTags[m.Tag] {
			res.AddCounter("duplicate_bytes_nominal", int64(m.Nominal))
			continue
		}
		seenTags[m.Tag] = true
		att.Report(0.7 * float64(len(seenTags)) / float64(totalSplits))
		pairs := m.Payload.([]kv.Pair)
		if len(pairs) > 0 {
			runs = append(runs, pairs)
		}
		res.AddCounter("pipelined_bytes_nominal", int64(m.Nominal))
		receivedNominal += m.Nominal
		if spilled := buf.Add(m.Nominal); spilled > 0 {
			res.AddCounter("a_spill_bytes_nominal", int64(spilled))
		}
	}
	if rsp != nil {
		for _, id := range oSpans {
			rsp.DepOn(id)
		}
		rsp.Annotate("bytes", fmt.Sprintf("%.0f", receivedNominal))
		rsp.EndAt(p.Engine().Now())
		tsp.DepOn(rsp.ID)
	}

	// Every run is one O task's partition, which its collector already
	// sorted, so the A side merges the runs rather than sorting their
	// concatenation.
	buf.Charge(spec, runs)
	text, records := maps.Tail(a, runs)
	res.OutRecords += int64(records)
	return e.WritePart(p, att, spec.Output, fmt.Sprintf("part-a-%05d", a), spec.EmitScale(), text)
}
