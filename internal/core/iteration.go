package core

import (
	"fmt"
	"strconv"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/mpi"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/taskrt"
)

// IterationJob is DataMPI's Iteration mode: persistent O tasks cache their
// input in memory across rounds (the data-centric property), compute and
// pipeline partial results to A tasks each round, and receive the merged
// global state back by broadcast for the next round. K-means is the
// paper's Iteration-mode application.
//
// The mode is a task shape, not a second runtime: the job is admitted,
// traced, profiled, charged and released by internal/taskrt exactly as a
// Common-mode job is, and every rank's load and every rank's round is a
// task of the job's set, slotted and tracked by internal/sched.
type IterationJob[S any] struct {
	Name        string
	Input       *dfs.File
	InputFormat job.Format
	Rounds      int // maximum rounds

	// LoadO converts one O task's input records to its cached local data.
	// Called once, before round 1.
	LoadO func(records []kv.Pair) any

	// RunO computes one round on the cached data given the current global
	// state, emitting keyed partial results for the A side.
	RunO func(round int, state S, cached any, emit job.Emit)

	// RunA folds one A task's received pairs into partial aggregates
	// (key-grouped, key-sorted).
	RunA func(round int, grouped []kv.Pair) []kv.Pair

	// MergeState combines all A partial aggregates into the next global
	// state; done=true stops the iteration (convergence).
	MergeState func(round int, state S, aggregates []kv.Pair) (next S, done bool)

	// CPUFactorO scales O-side per-byte CPU (distance computation etc.).
	CPUFactorO float64
	// StateNominalBytes is the broadcast size of the global state.
	StateNominalBytes float64
}

// IterationResult reports an Iteration-mode run.
type IterationResult[S any] struct {
	State      S
	Rounds     int
	Elapsed    float64
	FirstRound float64 // duration of round 1 including input load — the
	// paper's K-means comparison metric (Section 4.6)
	RoundTimes []float64
	Err        error
}

// RunIteration executes an Iteration-mode job exclusively. The initial
// state seeds round 1 (see taskrt.Base.RunSolo for the drain and
// accounting contract). The load and every round are phases of the job.
func RunIteration[S any](e *Engine, it IterationJob[S], initial S) IterationResult[S] {
	res := IterationResult[S]{State: initial}
	r := e.RunSolo(func(ctl *sched.JobControl) *taskrt.Job { return submitIteration(e, &it, &res, ctl) })
	res.Elapsed, res.Err = r.Elapsed, r.Err
	return res
}

// submitIteration declares the O ranks' load stage and then, round by
// round, their compute stage and the A ranks' aggregation stage, and
// drives them, folding each round into res.
func submitIteration[S any](e *Engine, it *IterationJob[S], res *IterationResult[S], ctl *sched.JobControl) *taskrt.Job {
	cfg := &e.Cfg
	scale := e.Scale()
	blocks := it.Input.Blocks
	if len(blocks) == 0 {
		return e.Reject(it.Name, fmt.Errorf("datampi: iteration job %s has empty input", it.Name), nil)
	}
	if it.CPUFactorO <= 0 {
		it.CPUFactorO = 1
	}
	oPool, err := ctl.Pools(cfg.TasksPerNode, "dm-o")
	if err != nil {
		return e.Reject(it.Name, err, nil)
	}
	j := e.Begin(it.Name, ctl, cfg.DaemonMem)
	nA := e.C.N() // one aggregator per node
	nO, world, splitsOf := e.layout(ctl.Placer(), blocks, nA)
	oSlots, aSlots := oPool[0], e.aPool(ctl, nA)
	oNodes, aNodes := e.Spread(nO), e.Spread(nA)

	// Persistent task state: what each O rank cached at load, its nominal
	// size, and the memory the rank's process holds with it. The ranks
	// outlive their tasks: what they hold is released when the driver
	// ends, however it ends (a deadlocked run unwinds it).
	cached := make([]any, nO)
	cachedNominal := make([]float64, nO)
	resident := make([]float64, nO)
	j.OnEnd = func() {
		for o, bytes := range resident {
			e.C.Node(oNodes[o]).Mem.Free(bytes)
		}
	}

	// stage declares body as one task per rank on nodes, the ranks' own.
	// The ranks are persistent processes holding state between tasks, so
	// no task is restartable: one that fails fails the job.
	stage := func(name, group string, nodes []int, pool *sched.SlotPool, body func(p *sim.Proc, node, i int) error) taskrt.Stage {
		return taskrt.Stage{Name: name, Group: group, Nodes: nodes, Pool: pool,
			Body: func(p *sim.Proc, _ *sched.Attempt, i int) (any, error) { return nil, body(p, nodes[i], i) }}
	}

	j.Drive("datampi-iter:"+it.Name, true, func(driver *sim.Proc) bool {
		// Load phase: O tasks read and cache their splits.
		j.Run(stage("O-load-%d", "load", oNodes, oSlots, func(p *sim.Proc, node, o int) error {
			p.Sleep(cfg.TaskStart)
			mem := e.C.Node(node).Mem
			mem.MustAlloc(cfg.TaskMem)
			resident[o] = cfg.TaskMem
			var recs []kv.Pair
			var inflated int
			for _, blk := range splitsOf[o] {
				var wg sim.WaitGroup
				if err := e.FS.StartRead(blk, node, &wg); err != nil {
					return err
				}
				r, inf, err := job.Records(it.InputFormat, blk.Data)
				if err != nil {
					return err
				}
				// Parse CPU overlapped with the read.
				e.StartCPU(&wg, node, cfg.MapCPUPerByte*float64(inf)*scale, 0)
				wg.WaitAs(p, "disk")
				recs = append(recs, r...)
				inflated += inf
			}
			cached[o] = it.LoadO(recs)
			cachedNominal[o] = float64(inflated) * scale
			// Cached data stays resident for the whole job.
			mem.MustAlloc(cachedNominal[o])
			resident[o] += cachedNominal[o]
			return nil
		}))
		j.Wait(driver)
		j.Phase("load", "")

		// A failed load skips the rounds and the finalize.
		roundStart := j.Res.Start
		for round := 1; j.Err() == nil && round <= it.Rounds; round++ {
			aggParts := make([][]kv.Pair, nA)
			r := strconv.Itoa(round)
			// O compute + pipelined send.
			j.Run(stage("O-r"+r+"-%d", "O", oNodes, oSlots, func(p *sim.Proc, node, o int) error {
				coll := kv.NewPartitionCollector(nA, 0, nil, kv.HashPartitioner{})
				it.RunO(round, res.State, cached[o], coll.Emit)
				// Round results are aggregates (cardinality-bound),
				// charged unscaled.
				out, err := taskrt.Collect(coll, 1)
				if err != nil {
					return err
				}
				var wg sim.WaitGroup
				e.StartCPU(&wg, node, cfg.MapCPUPerByte*it.CPUFactorO*cachedNominal[o], 0)
				for a := 0; a < nA; a++ {
					wg.Add(1)
					world.Isend(o, nO+a, round, out.Nominal[a], out.Parts[a], wg.Done)
				}
				wg.WaitAs(p, "cpu")
				return nil
			}))
			// A aggregate.
			j.Run(stage("A-r"+r+"-%d", "A", aNodes, aSlots, func(p *sim.Proc, node, a int) error {
				// Each payload is a partition an O task's collector
				// sorted: merge the runs.
				runs := make([][]kv.Pair, 0, nO)
				totalNominal := 0.0
				for i := 0; i < nO; i++ {
					m := world.Recv(p, nO+a, mpi.AnySource, round)
					runs = append(runs, m.Payload.([]kv.Pair))
					totalNominal += m.Nominal
				}
				all := taskrt.MergeRuns(runs)
				e.C.Node(node).CPU.Use(p, cfg.ReduceCPUPerByte*totalNominal+cfg.RecordCPU*float64(len(all))*scale, "cpu")
				aggParts[a] = it.RunA(round, all)
				return nil
			}))
			j.Wait(driver)
			if j.Err() != nil {
				break
			}
			var aggregates []kv.Pair
			for _, part := range aggParts {
				aggregates = append(aggregates, part...)
			}
			kv.SortPairs(aggregates)
			var done bool
			res.State, done = it.MergeState(round, res.State, aggregates)
			// Broadcast the new state for the next round (charged from
			// node 0 to all nodes).
			for n := 1; n < e.C.N(); n++ {
				e.C.Net.StartFlow(0, n, it.StateNominalBytes, nil)
			}
			now := driver.Engine().Now()
			j.Phase("round"+r, "")
			res.RoundTimes = append(res.RoundTimes, now-roundStart)
			if round == 1 {
				res.FirstRound = now - j.Res.Start
			}
			roundStart = now
			res.Rounds = round
			if done {
				break
			}
		}
		// A failed run skips the teardown.
		return j.Err() == nil
	}, nil)
	return j
}
