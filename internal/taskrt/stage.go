package taskrt

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
)

// Restart is a stage's restart class: what the task tracker may do with
// a task besides running it once.
type Restart uint8

const (
	Once        Restart = iota // a failure, or losing its node once started, fails the task
	Retryable                  // re-run after a node failure only: the engine recovers it (sched.TaskSpec.Retryable)
	Restartable                // also speculated and preempted: immutable inputs, output only through Done
)

// Stage declares a set of like tasks of a job. Job.Run launches task i
// as fmt.Sprintf(Name, i), preferring node Nodes[i], in index order.
type Stage struct {
	Name    string // the task name pattern, with one %d for the index
	Group   string // straggler statistics group (sched.TaskSpec.Group)
	Nodes   []int  // one preferred node per task
	Pool    *sched.SlotPool
	Restart Restart

	// Body is task i's cost half: one attempt's charges, and its value.
	// The rest is optional: PreRetry makes room to re-home a Retryable
	// task and Pre is the admission gate (true skips the task), as in
	// sched.TaskSpec; Done takes the winner's value; Fail the task's
	// error (without it the task fails the job); Final runs once the
	// task settled, before Wait counts it.
	Body     func(p *sim.Proc, att *sched.Attempt, i int) (any, error)
	PreRetry func()
	Pre      func(p *sim.Proc) bool
	Done     func(p *sim.Proc, att *sched.Attempt, i int, v any) error
	Fail     func(i int, err error)
	Final    func()
}

// Run launches st's tasks through the task tracker, one per node, in
// index order. It is the only road from an engine to internal/sched:
// every task commits through the engine's filesystem and joins the set
// Wait waits for.
func (j *Job) Run(stage Stage) {
	st := &stage // one copy, shared by the tasks' closures
	for i, node := range st.Nodes {
		ts := sched.TaskSpec{Name: fmt.Sprintf(st.Name, i), Node: node, Pool: st.Pool, Group: st.Group,
			Restartable: st.Restart == Restartable, Retryable: st.Restart == Retryable, PreRetry: st.PreRetry, Pre: st.Pre,
			Body: func(p *sim.Proc, att *sched.Attempt) (any, error) { return st.Body(p, att, i) }, Final: st.Final}
		if st.Done != nil {
			ts.Done = func(p *sim.Proc, v any, att *sched.Attempt) error { return st.Done(p, att, i, v) }
		}
		if st.Fail != nil {
			ts.Fail = func(err error) { st.Fail(i, err) }
		}
		j.launch(ts)
	}
}

// launch routes one task of the job through the task tracker. The task
// commits through the engine's filesystem, fails the job unless ts.Fail
// says otherwise, and joins the set Wait waits for: its own Final
// (optional) runs first, so a Final that launches follow-up work cannot
// let the driver slip through a zero.
func (j *Job) launch(ts sched.TaskSpec) {
	ts.CommitFS = j.b.FS
	if ts.Fail == nil {
		ts.Fail = j.Fail
	}
	final := ts.Final
	ts.Final = func() {
		if final != nil {
			final()
		}
		j.tasks.Done()
	}
	j.tasks.Add(1)
	j.ctl.Launch(ts)
}

// Wait parks the driver until every task launched so far — and every task
// those launched in turn — has settled.
func (j *Job) Wait(driver *sim.Proc) { j.tasks.Wait(driver) }

// Drive spawns the job's driver, the proc called name: it pays the
// profile's JobLaunch if launch is set (Spark launches once per
// application), runs stages, which declares the job's stages (Run) and
// may Wait between them, waits for every task, pays JobTeardown unless
// stages returned false, and finishes the job, handing done the result.
func (j *Job) Drive(name string, launch bool, stages func(driver *sim.Proc) (teardown bool), done func(job.Result)) {
	cost := j.b.cost
	j.b.C.Eng.Go(name, func(driver *sim.Proc) {
		defer func() {
			if j.OnEnd != nil {
				j.OnEnd()
			}
		}()
		if launch {
			driver.Sleep(cost.JobLaunch)
		}
		teardown := stages(driver)
		j.Wait(driver)
		if teardown {
			driver.Sleep(cost.JobTeardown)
		}
		j.Finish(done)
	})
}
