package rdd

import (
	"strconv"

	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/sched"
)

var _ sched.Engine = (*Engine)(nil)

// lineage translates the engine-agnostic spec into an RDD lineage:
// textFile → flatMap → {reduceByKey | sortByKey} → final. Range-
// partitioned specs become SortByKey (total order, OOM-prone);
// hash-partitioned specs become ReduceByKey (streaming aggregation).
func (e *Engine) lineage(spec *job.Spec) *RDD {
	var src *RDD
	if spec.InputFormat == job.Text {
		src = e.TextFile(spec.Input)
	} else {
		src = e.SequenceFile(spec.Input, spec.InputFormat)
	}
	mapped := src.FlatMapKV(spec.Map, spec.MapCPUFactor*spec.CPUAdjust(e.Name()))

	// A defaulted identity reducer becomes a nil wide-op reducer: the
	// executor passes the key-sorted partition straight through instead
	// of re-emitting one Pair per record through IdentityReduce.
	reduce := spec.Reduce
	if spec.HasIdentityReduce() {
		reduce = nil
	}
	if _, isRange := spec.Part.(*kv.RangePartitioner); isRange {
		return mapped.SortByKey(spec.Part, reduce, spec.Reducers)
	}
	if spec.Combine != nil {
		return mapped.ReduceByKey(spec.Combine, reduce, spec.Reducers)
	}
	return mapped.GroupByKey(reduce, spec.Reducers)
}

// Run implements job.Engine: it executes the spec's lineage exclusively,
// driving the simulation to completion. The solo action (and its job
// span) is called "action"; the result carries the spec's name.
func (e *Engine) Run(spec job.Spec) job.Result {
	if j := e.RejectInvalid(&spec, nil); j != nil {
		return j.Res
	}
	res := e.lineage(&spec).SaveAsTextFile(spec.Output)
	res.Job = spec.Name
	return res
}

// Submit implements sched.Engine: it admits the spec's lineage onto the
// shared simulation without driving the event loop.
func (e *Engine) Submit(spec job.Spec, ctl *sched.JobControl, done func(job.Result)) {
	if e.RejectInvalid(&spec, done) != nil {
		return
	}
	e.submitAction(spec.Name, e.lineage(&spec), spec.Output, nil, ctl, done)
}

func stageName(i int) string { return "stage" + strconv.Itoa(i) }
