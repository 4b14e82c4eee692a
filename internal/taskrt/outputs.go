package taskrt

import (
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/transport"
)

// Output is one producer attempt's partitioned output, materialized on the
// local disk of Node.
type Output struct {
	Partitioned
	Node     int
	producer int
}

// Outputs is a disk-materialized shuffle edge: Hadoop's map→reduce edge
// and every Spark shuffle. Producers publish their outputs to it and each
// consumer pulls its partition of every output through Pull. An output
// lost with its node is replaced by a surviving copy (one an earlier
// consumer regenerated); failing that, the first consumer that needs it
// regenerates it inside its own attempt.
type Outputs struct {
	j       *Job
	label   string // fetch span prefix
	regen   func(p *sim.Proc, att *sched.Attempt, producer int) (any, error)
	outs    []*Output   // published outputs, in Done order
	copies  [][]*Output // producer -> regenerated copies
	spans   []uint64    // producer -> winning attempt's span ID
	busy    []bool      // producer -> a consumer is regenerating it
	streams []*transport.Stream
	cond    sim.Cond // consumers wait here for outputs, streams and regenerations
}

// Outputs opens a shuffle edge of n producers whose fetch spans are named
// "fetch:" + label + producer index. regen re-runs producer's body inside
// a consumer's attempt, on its node, and returns an *Output.
func (j *Job) Outputs(n int, label string, regen func(p *sim.Proc, att *sched.Attempt, producer int) (any, error)) *Outputs {
	o := &Outputs{j: j, label: label, regen: regen, outs: make([]*Output, 0, n),
		copies: make([][]*Output, n), spans: make([]uint64, n), busy: make([]bool, n)}
	j.edges = append(j.edges, o)
	return o
}

// Publish records out as producer's output, won by att, and returns the
// number of outputs published so far.
func (o *Outputs) Publish(producer int, att *sched.Attempt, out *Output) int {
	out.producer = producer
	o.outs = append(o.outs, out)
	o.spans[producer] = att.TraceSpan().SpanID()
	o.cond.Broadcast()
	return len(o.outs)
}

// Await parks p until k outputs are published; false means the job failed
// first.
func (o *Outputs) Await(p *sim.Proc, k int) bool {
	for len(o.outs) < k && o.j.Err() == nil {
		o.cond.Wait(p, "slowstart")
	}
	return o.j.Err() == nil
}

// Stream opens a pipelined stream of out for producer when the engine's
// transport pipelines and att is a first attempt (a backup's output only
// matters if it beats the original); nil means the producer writes its
// output as one lump, as it does on a nil edge.
func (o *Outputs) Stream(att *sched.Attempt, producer int, out *Partitioned) *transport.Stream {
	if o == nil || att.Backup() || !o.j.b.tp.Pipelined() {
		return nil
	}
	s := o.j.b.tp.Stream(producer, att.Node(), out.Nominal, out.OutRecords)
	o.streams = append(o.streams, s)
	o.cond.Broadcast()
	return s
}

// fail aborts the edge with its job: every stream fails and every waiting
// consumer wakes.
func (o *Outputs) fail() {
	for _, s := range o.streams {
		s.Fail()
	}
	o.cond.Broadcast()
}

// Pull fetches partition pi of every producer's output to att's node and
// returns the non-empty runs. It drains newly opened streams before each
// step, then takes the published outputs in publication order, replacing
// one lost with its node. A lost output another consumer is regenerating
// is skipped and revisited after the scan. progress(pulled, n) runs before
// each step, account(nominal) after each fetch. Nil runs mean the job
// failed; err is set when this attempt's regeneration failed.
func (o *Outputs) Pull(p *sim.Proc, att *sched.Attempt, pi int, progress func(pulled, n int), account func(nominal float64)) ([][]kv.Pair, error) {
	n, node := len(o.spans), att.Node()
	fetches := o.j.b.Fetches(p, att, o.label)
	runs := make([][]kv.Pair, 0, n)
	streamed := make([]bool, n) // fully fetched through a pipelined stream
	var later []*Output         // lost outputs another consumer is regenerating
	pulled, next, nextStream := 0, 0, 0
	for pulled < n {
		for ; nextStream < len(o.streams); nextStream++ {
			s := o.streams[nextStream]
			pr := s.Producer()
			if streamed[pr] || s.Failed() {
				continue // a failed stream's output is pulled from disk below
			}
			if s.PartNominal(pi) == 0 {
				streamed[pr] = true // empty partition: adopt the pairs at scan time
				continue
			}
			p.BlockReason = "shuffle-io"
			got, ok := s.Fetch(p, pi, node, o.j.b.Prof.AddDiskRead)
			p.BlockReason = ""
			if ok {
				streamed[pr] = true
				account(got)
			}
		}
		for next == len(o.outs) && next < n {
			if o.j.Err() != nil {
				return nil, nil
			}
			if nextStream < len(o.streams) {
				break // a new stream was published; drain it first
			}
			o.cond.Wait(p, "shuffle-wait")
		}
		var out *Output
		revisit := false
		switch {
		case next < len(o.outs):
			out = o.outs[next]
			next++
		case next == n && len(later) > 0: // the scan is over
			out, later, revisit = later[0], later[1:], true
		default:
			continue
		}
		progress(pulled, n)
		pr := out.producer
		if !streamed[pr] && out.Nominal[pi] > 0 && !o.j.b.C.Alive(out.Node) {
			rep, err := o.replace(p, att, pr, revisit)
			if rep == nil {
				if err != nil || o.j.Err() != nil {
					return nil, err
				}
				later = append(later, out)
				continue
			}
			out = rep
		}
		// A streamed partition is adopted without fetching it again:
		// producer bodies are deterministic, so the published pairs are
		// the ones that streamed.
		pulled++
		if part := out.Parts[pi]; len(part) > 0 {
			runs = append(runs, part)
		}
		if nom := out.Nominal[pi]; nom > 0 && !streamed[pr] {
			fetches.Fetch(pr, out.Node, nom, out.Records[pi], o.spans[pr])
			account(nom)
		}
	}
	fetches.Done()
	return runs, nil
}

// replace returns a live stand-in for producer's lost output: a surviving
// copy, else one regenerated inside att. It returns nil when the job has
// failed, or when another consumer is regenerating the output and wait is
// false.
func (o *Outputs) replace(p *sim.Proc, att *sched.Attempt, producer int, wait bool) (*Output, error) {
	for {
		for _, c := range o.copies[producer] {
			if o.j.b.C.Alive(c.Node) {
				o.j.Res.AddCounter("shuffle_refetches", 1)
				return c, nil
			}
		}
		if o.j.Err() != nil || (o.busy[producer] && !wait) {
			return nil, nil
		}
		if !o.busy[producer] {
			return o.regenerate(p, att, producer)
		}
		o.cond.Wait(p, "regen-wait")
	}
}

// regenerate re-runs producer inside att and keeps the result as a copy
// for the consumers that need it next.
func (o *Outputs) regenerate(p *sim.Proc, att *sched.Attempt, producer int) (*Output, error) {
	o.busy[producer] = true
	// The regeneration parks on simulated I/O, so att can be killed
	// mid-flight: release the claim on the kill unwind too, or every
	// consumer waiting on it deadlocks.
	defer func() {
		o.busy[producer] = false
		o.cond.Broadcast()
	}()
	o.j.ctl.Tracker().NoteRecompute()
	v, err := o.regen(p, att, producer)
	out, ok := v.(*Output)
	if err != nil || !ok {
		// No output and no error: the regeneration's own Pull found the
		// job failed, which the caller sees through Job.Err.
		return nil, err
	}
	out.producer = producer
	o.copies[producer] = append(o.copies[producer], out)
	return out, nil
}
