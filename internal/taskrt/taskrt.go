// Package taskrt is the job runtime the three engines (internal/mr,
// internal/rdd, internal/core) share. The paper compares Hadoop, Spark and
// DataMPI on identical workloads and attributes the gap to execution and
// communication style only; this package owns what is *not* style, so the
// engines differ where the paper says they do and nowhere else:
//
//   - lifecycle: Base is the state every engine embeds and Job the per-job
//     handle (result, daemon residency, profiler sampling, tracer
//     resolution, job and phase spans, the solo-run drain). Admit is the
//     one admission prologue, and every mode of every engine — DataMPI's
//     Iteration mode included — lives between Begin and Finish;
//   - stages and driver: an engine declares each set of like tasks as a
//     Stage (name pattern, group, nodes, pool, restart class, the cost
//     half Body, Done, Fail, Final); Job.Run launches it — the only road
//     to internal/sched — and Job.Drive is every job's driver: launch
//     sleep, the engine's stages, Wait, teardown sleep, Finish;
//   - map side and reduce side: MapAhead is every engine's map record
//     half — MapBlock (MapPairs over cached records) sizes a task's
//     output as a Mapped, framed once in one form; a reduce tail is
//     Buffer.Charge (mr's and core's read-back and CPU charge), then
//     ReduceTail, the merge that renders each reduced key group
//     straight into the part file's text;
//   - shuffle edge: Outputs is the disk-materialized edge of mr and rdd.
//     Producers publish to it in Done order; it holds their pipelined
//     streams and surviving copies; its one consumer loop, Pull, drains
//     the streams, pulls each output in publication order and replaces
//     one lost with its node — a surviving copy is refetched, else the
//     first consumer that needs it regenerates it inside its own attempt.
//     Fetches pulls a materialized partition to its consumer (fluid or
//     staged wire, chosen here and in internal/transport only) and Buffer
//     is the reduce-side shuffle buffer;
//   - ahead: Ahead starts a job's record work (map tasks, O splits, rdd's
//     cache fill) — which depends on the spec and the block, never on
//     the clock, the node or the attempt — on worker goroutines at
//     submission; a task's first Take picks up its result, a later one
//     (a backup, a retry, a regeneration) computes it on the caller.
//     Tails starts each reducer's record half on the same workers once
//     the map results all exist (Pending.Tail). All of it is compute-once
//     cells under one lock: a job's items and, with a fingerprint
//     (job.Spec.Fingerprint), the process's one record store, shared by
//     every engine — a cell per (block content, fingerprint, shape) and
//     per reduce tail, computed once, kept while a job that asked for it
//     runs and then on an idle list bounded in bytes, oldest evicted
//     first. Every job is still charged in full; the event loop stays
//     single-threaded and sees the same bytes;
//   - commit: WritePart is the attempt-scoped part-file writer;
//   - costs: Profile is every engine's cost profile, one field per
//     mechanism, embedded in each engine's Config; the charges read it —
//     MapCPU (mr's map, core's O task, rdd's map and cache fill),
//     Overhead (the runtime's background CPU), Buffer.Charge (a reduce
//     tail) — and StartCPU and StartSend start them.
//
// The profile's values and each stage's cost half stay in the engines,
// and so does DataMPI's O-side replay: its intermediate data lives at
// the consumer, not the producer.
package taskrt

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/metrics"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/trace"
	"github.com/datampi/datampi-go/internal/transport"
)

// Base is the engine-independent half of an engine, embedded by value.
type Base struct {
	C    *cluster.Cluster
	FS   *dfs.FS
	Prof *metrics.Profiler // optional resource profiler
	// Tracer records job/phase/fetch spans for solo Run paths; queue
	// submissions inherit the tracker's tracer instead.
	Tracer *trace.Tracer

	name      string
	residency *sched.Residency // per-node runtime daemons, held while any job is active
	profiling sched.Profiling  // refcounted sampling across jobs
	tp        *transport.Transport
	cost      *Profile // the engine's cost profile, read by the charges
}

// NewBase builds the shared half of the engine called name over fs, whose
// charges read cost (the engine's own, so a later edit is seen). An unset
// cost.Transport (Name == "") resolves to def.
func NewBase(name string, fs *dfs.FS, cost *Profile, def transport.Profile) Base {
	tp := cost.Transport
	if tp.Name == "" {
		tp = def
	}
	c := fs.Cluster()
	return Base{C: c, FS: fs, name: name, residency: sched.NewResidency(c), tp: transport.New(c, tp), cost: cost}
}

// Name implements job.Engine.
func (b *Base) Name() string { return b.name }

// Cluster implements sched.Engine.
func (b *Base) Cluster() *cluster.Cluster { return b.C }

// Transport exposes the engine's staged communication model (disabled by
// default; the scenario WithTransport knob switches it on).
func (b *Base) Transport() *transport.Transport { return b.tp }

// AttachProfiler wires a resource profiler into the engine.
func (b *Base) AttachProfiler(p *metrics.Profiler) { b.Prof = p }

// Scale returns nominal bytes per actual byte.
func (b *Base) Scale() float64 { return b.FS.Config().Scale }

// Spread returns the nodes of n tasks laid out round-robin over the
// cluster, from node 0.
func (b *Base) Spread(n int) []int {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i % b.C.N()
	}
	return nodes
}

// ActiveJobs reports how many begun jobs have not finished — the holders
// of the daemon residency.
func (b *Base) ActiveJobs() int { return b.residency.Jobs() }

// Job is one admitted job's handle: its result, error, task set, phase
// marks and trace span. Begin charges what Finish (or a deadlocked RunSolo)
// releases, exactly once.
type Job struct {
	Res job.Result
	// OnEnd (optional) runs as the job's driver ends, after Finish or in
	// a deadlocked RunSolo's unwind: what outlives the tasks goes here.
	OnEnd func()

	b        *Base
	ctl      *sched.JobControl
	tasks    sim.WaitGroup // launched tasks whose Final has not run
	tr       *trace.Tracer
	span     *trace.Span
	marks    []mark
	rest     string                // phase running from the last mark to the job's end ("" = none)
	edges    []*Outputs            // the job's disk-materialized shuffle edges
	ahead    []interface{ stop() } // the record work started by Ahead
	finished bool
}

// mark is the end of one named phase; phases run back to back from the
// job's start.
type mark struct {
	name string
	end  float64
}

// Admit is the submit prologue of a spec-driven job. A spec that
// RejectInvalid turns away is not begun, and neither is a job whose slot
// pools (kinds, at perNode slots per node) an earlier job sized
// differently: both are rejected uncharged (pools nil, done already
// called). Any other job is begun and gets its pools, in kinds order.
func (b *Base) Admit(spec *job.Spec, ctl *sched.JobControl, residentPerNode float64, done func(job.Result),
	perNode int, kinds ...string) (j *Job, pools []*sched.SlotPool) {
	if j := b.RejectInvalid(spec, done); j != nil {
		return j, nil
	}
	pools, err := ctl.Pools(perNode, kinds...)
	if err != nil {
		return b.Reject(spec.Name, err, done), nil
	}
	return b.Begin(spec.Name, ctl, residentPerNode), pools
}

// RejectInvalid is every engine's admission rule for a spec-driven job: a
// spec that carries an error or has no input is rejected through Reject
// (the returned job holds the failed result; done already has it); any
// other is normalized and RejectInvalid returns nil.
func (b *Base) RejectInvalid(spec *job.Spec, done func(job.Result)) *Job {
	if spec.Err == nil && len(spec.Input.Blocks) == 0 {
		spec.Err = fmt.Errorf("%s: job %s has empty input", b.name, spec.Name)
	}
	if spec.Err != nil {
		return b.Reject(spec.Name, spec.Err, done)
	}
	spec.Normalize()
	return nil
}

// Begin admits a job: it stamps the result, charges residentPerNode bytes
// of daemon residency on every node with the first concurrent job, starts
// profiler sampling and opens the job span. Queue submissions carry the
// scenario's tracer on the tracker; solo runs fall back to Base.Tracer.
// Tracing is pure observation either way — no simulation events.
func (b *Base) Begin(name string, ctl *sched.JobControl, residentPerNode float64) *Job {
	eng := b.C.Eng
	j := b.newJob(name)
	j.ctl = ctl
	b.residency.Acquire(residentPerNode)
	b.profiling.Start(b.Prof, eng)

	j.tr = ctl.Tracker().Tracer()
	if j.tr == nil && b.Tracer != nil {
		j.tr = b.Tracer
		ctl.Tracker().SetTracer(j.tr)
	}
	b.tp.SetTracer(j.tr)
	if j.tr != nil {
		j.span = j.tr.Begin("job:"+name, "job", 0, trace.TidDriver, j.Res.Start).Annotate("engine", b.name)
	}
	return j
}

func (b *Base) newJob(name string) *Job {
	return &Job{b: b, Res: job.Result{Engine: b.name, Job: name, Phases: map[string]float64{}, Start: b.C.Eng.Now()}}
}

// Reject is Begin and Finish for a job that cannot start: it
// charges nothing, so there is nothing to release, and done (optional)
// receives the failed result at once.
func (b *Base) Reject(name string, err error, done func(job.Result)) *Job {
	j := b.newJob(name)
	j.Res.Err, j.finished = err, true
	if done != nil {
		done(j.Res)
	}
	return j
}

// Phase ends the phase called name now. A non-empty rest names the phase
// that runs from here to the end of the job (until a later Phase call
// says otherwise).
func (j *Job) Phase(name, rest string) {
	j.marks = append(j.marks, mark{name, j.b.C.Eng.Now()})
	j.rest = rest
}

// Fail records the job's first error, fails the streams of its shuffle
// edges, wakes every consumer waiting on one and stops the record work
// started ahead.
func (j *Job) Fail(err error) {
	if j.Res.Err == nil {
		j.Res.Err = err
	}
	for _, o := range j.edges {
		o.fail()
	}
	j.stopAhead()
}

func (j *Job) stopAhead() {
	for _, p := range j.ahead {
		p.stop()
	}
}

// Err returns the first error passed to Fail.
func (j *Job) Err() error { return j.Res.Err }

// DependsOn records that the job's completion waited on att — the edge the
// critical-path walk follows from the job span into its last tasks.
func (j *Job) DependsOn(att *sched.Attempt) { j.span.DepOn(att.TraceSpan().SpanID()) }

// Finish completes the job in simulation context: it stamps End, Elapsed
// and Phases (one subtraction per phase, shared by the result and the
// phase spans), releases what Begin charged and hands the result to done
// (optional).
func (j *Job) Finish(done func(job.Result)) {
	res := &j.Res
	res.End = j.b.C.Eng.Now()
	res.Elapsed = res.End - res.Start
	j.span.EndAt(res.End)
	if j.rest != "" {
		j.marks = append(j.marks, mark{j.rest, res.End})
	}
	from := res.Start
	for _, m := range j.marks {
		res.Phases[m.name] = m.end - from
		j.tr.BeginChild(j.span, m.name, "phase", 0, trace.TidDriver, from).EndAt(m.end)
		from = m.end
	}
	j.finished = true
	j.release()
	if done != nil {
		done(*res)
	}
}

func (j *Job) release() {
	j.stopAhead()
	j.b.profiling.Stop(j.b.Prof)
	j.b.residency.Release()
}

// RunSolo runs one job exclusively: submit admits it under a control that
// owns the whole testbed, and RunSolo drives the simulation to completion,
// so the cluster must not have other foreground work (co-schedule jobs
// through a sched.Queue instead). The job ends when the simulation drains
// — trailing lazy heap frees included — and its open-ended phase extends
// to that point. A simulation that deadlocks instead ends the job there
// with the kernel's error: what Begin charged is released and the stuck
// procs — all the job's, on a testbed it owns — are cancelled and
// unwound, so the engine stays reusable. The unwind fails each task whose
// attempt the cancel killed (sched.TaskSpec.Fail), so the engine's Fail
// and Final callbacks run in it, and so does what they start (core's
// abort sends, a chained O-side replay round); its error is dropped.
func (b *Base) RunSolo(submit func(ctl *sched.JobControl) *Job) job.Result {
	eng := b.C.Eng
	j := submit(sched.Solo(eng, b.C.N()))
	res := &j.Res
	err := eng.Run()
	res.End = eng.Now()
	res.Elapsed = res.End - res.Start
	if err != nil {
		j.Fail(err)
		if !j.finished {
			j.release() // the driver never reached Finish
		}
		eng.CancelAll()
		_ = eng.Run() // the unwinds (see above)
	}
	if j.finished && j.rest != "" {
		before := j.marks[len(j.marks)-2].end - res.Start // the phases ahead of rest
		res.Phases[j.rest] = res.End - (res.Start + before)
	}
	return *res
}

// WritePart commits one task's text-encoded output partition as the file
// part under dir, or discards it when the job names no output (dir ""):
// text is written to the attempt-scoped temp path of the file on the
// attempt's node, and its DFS blocks keep text's memory; the tracker
// renames the winning attempt's file into place, so DFS-writing tasks can
// race speculative backups with exactly-once output.
func (b *Base) WritePart(p *sim.Proc, att *sched.Attempt, dir, part string, scale float64, text []byte) error {
	if dir == "" {
		return nil
	}
	w := b.FS.CreateScaled(att.ScopedPath(dir+"/"+part), att.Node(), scale)
	if err := w.Write(p, text); err != nil {
		return err
	}
	return w.Close(p)
}
