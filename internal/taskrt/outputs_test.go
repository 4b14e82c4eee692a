package taskrt

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/transport"
)

const edgeNominal = 1 * cluster.MB

// edgeOutput is producer i's output on node: partition pi holds the one
// pair "p<i>c<pi>", sized edgeNominal.
func edgeOutput(i, nParts, node int) *Output {
	out := &Output{Node: node}
	for pi := 0; pi < nParts; pi++ {
		out.Parts = append(out.Parts, []kv.Pair{{Key: []byte(fmt.Sprintf("p%dc%d", i, pi))}})
		out.Nominal = append(out.Nominal, edgeNominal)
		out.Records = append(out.Records, 1)
	}
	out.OutNominal, out.OutRecords = edgeNominal*float64(nParts), float64(nParts)
	return out
}

// edgeCase is one job over a shuffle edge. Producer i runs on nodes[i]
// for delay[i] seconds (half of it before and half after a mid-way stream
// commit when stream is set); consumer ci runs on consumers[ci], starts
// pulling partition ci at start + ci*stagger, and every node in down
// fails at downAt.
type edgeCase struct {
	nodes     []int
	delay     []float64
	consumers []int
	start     float64
	stagger   float64
	down      []int
	downAt    float64
	stream    bool
	regenErr  error
}

type edgeRun struct {
	res       job.Result
	stats     sched.TrackerStats
	runs      [][][]kv.Pair // per consumer
	accounted []float64     // per consumer: nominal bytes passed to account
	regens    [][2]int      // {producer, node} per regeneration, in order
	pt        *transport.Transport
}

func runEdge(t *testing.T, ec edgeCase) edgeRun {
	t.Helper()
	c, b := testBase()
	if ec.stream {
		b.Transport().SetEnabled(true)
		b.Transport().SetPipelineMode(transport.PipelineOn)
	}
	n, nc := len(ec.nodes), len(ec.consumers)
	r := edgeRun{runs: make([][][]kv.Pair, nc), accounted: make([]float64, nc), pt: b.Transport()}
	var ctl *sched.JobControl
	r.res = b.RunSolo(func(solo *sched.JobControl) *Job {
		ctl = solo
		j := b.Begin("edge", ctl, 0)
		o := j.Outputs(n, "x", func(p *sim.Proc, att *sched.Attempt, i int) (any, error) {
			r.regens = append(r.regens, [2]int{i, att.Node()})
			p.Sleep(1)
			if ec.regenErr != nil {
				return nil, ec.regenErr
			}
			return edgeOutput(i, nc, att.Node()), nil
		})
		producers, consumers := ctl.Pool("producer", n), ctl.Pool("consumer", nc)
		c.Eng.Go("driver", func(driver *sim.Proc) {
			for i := range ec.nodes {
				j.launch(sched.TaskSpec{Name: fmt.Sprintf("p%d", i), Node: ec.nodes[i], Pool: producers,
					Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
						out := edgeOutput(i, nc, att.Node())
						st := o.Stream(att, i, &out.Partitioned)
						p.Sleep(ec.delay[i] / 2)
						if st != nil {
							defer st.Fail()
							st.Commit(0.5)
						}
						p.Sleep(ec.delay[i] / 2)
						if st != nil {
							st.Finish()
						}
						return out, nil
					},
					Done: func(p *sim.Proc, v any, att *sched.Attempt) error {
						o.Publish(i, att, v.(*Output))
						return nil
					},
				})
			}
			for ci, node := range ec.consumers {
				j.launch(sched.TaskSpec{Name: fmt.Sprintf("c%d", ci), Node: node, Pool: consumers,
					Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
						p.Sleep(ec.start + float64(ci)*ec.stagger)
						last := -1
						runs, err := o.Pull(p, att, ci, func(pulled, n int) {
							if pulled < last || pulled >= n {
								t.Errorf("consumer %d: progress %d of %d after %d", ci, pulled, n, last)
							}
							last = pulled
						}, func(nominal float64) { r.accounted[ci] += nominal })
						r.runs[ci] = runs
						return nil, err
					},
				})
			}
			j.Wait(driver)
			j.Finish(nil)
		})
		if len(ec.down) > 0 {
			c.Eng.Post(ec.downAt, func() {
				for _, node := range ec.down {
					c.NodeDown(node)
				}
			})
		}
		return j
	})
	r.stats = ctl.Tracker().Stats()
	return r
}

// keys flattens a consumer's runs to their keys, run by run.
func keys(runs [][]kv.Pair) []string {
	var ks []string
	for _, run := range runs {
		for _, pr := range run {
			ks = append(ks, string(pr.Key))
		}
	}
	return ks
}

// assertPulledOnce is the edge's oracle: every consumer holds each
// producer's partition exactly once and accounted exactly its bytes.
func assertPulledOnce(t *testing.T, r edgeRun, n int) {
	t.Helper()
	if r.res.Err != nil {
		t.Fatalf("job failed: %v", r.res.Err)
	}
	for ci, runs := range r.runs {
		got := keys(runs)
		slices.Sort(got)
		var want []string
		for i := 0; i < n; i++ {
			want = append(want, fmt.Sprintf("p%dc%d", i, ci))
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("consumer %d pulled %v, want %v", ci, got, want)
		}
		if r.accounted[ci] != float64(n)*edgeNominal {
			t.Fatalf("consumer %d accounted %.0f bytes, want %.0f", ci, r.accounted[ci], float64(n)*edgeNominal)
		}
	}
}

func TestOutputsPullInPublicationOrder(t *testing.T) {
	r := runEdge(t, edgeCase{nodes: []int{0, 1, 2}, delay: []float64{3, 1, 2}, consumers: []int{3, 4}})
	assertPulledOnce(t, r, 3)
	for ci, runs := range r.runs {
		if got, want := keys(runs), []string{fmt.Sprintf("p1c%d", ci), fmt.Sprintf("p2c%d", ci), fmt.Sprintf("p0c%d", ci)}; !slices.Equal(got, want) {
			t.Fatalf("consumer %d pulled %v, want Done order %v", ci, got, want)
		}
	}
	if len(r.regens) != 0 || r.res.Counters["shuffle_refetches"] != 0 {
		t.Fatalf("a fault-free edge regenerated %v and refetched %d", r.regens, r.res.Counters["shuffle_refetches"])
	}
}

// TestOutputsAdoptStreamedOutputs: a consumer that pulled a partition
// through its producer's stream adopts the published pairs without
// fetching them again.
func TestOutputsAdoptStreamedOutputs(t *testing.T) {
	r := runEdge(t, edgeCase{nodes: []int{0, 1}, delay: []float64{4, 6}, consumers: []int{2}, stream: true})
	assertPulledOnce(t, r, 2)
	st := r.pt.Stats()
	if st.BytesPipelined != 2*edgeNominal || st.BytesOverlapped == 0 {
		t.Fatalf("pipelined %.0f bytes (%.0f overlapped), want both partitions through the streams", st.BytesPipelined, st.BytesOverlapped)
	}
}

// TestOutputsRefetchKeptCopy: the edge keeps a regenerated output as a
// copy, so consumers that reach a lost output after its regeneration
// refetch the copy instead of regenerating it again.
func TestOutputsRefetchKeptCopy(t *testing.T) {
	r := runEdge(t, edgeCase{nodes: []int{0, 1}, delay: []float64{1, 1},
		consumers: []int{2, 3, 4}, start: 5, stagger: 3, down: []int{0}, downAt: 2})
	assertPulledOnce(t, r, 2)
	if want := [][2]int{{0, 2}}; !slices.Equal(r.regens, want) || r.res.Counters["shuffle_refetches"] != 2 {
		t.Fatalf("regenerations %v, %d refetches; want %v and one refetch per later consumer", r.regens, r.res.Counters["shuffle_refetches"], want)
	}
}

// TestOutputsRegenerateInParallel: two outputs die with their node; the
// two consumers regenerate one each, at the same time on their own nodes,
// and refetch the other's copy instead of waiting to regenerate it again.
func TestOutputsRegenerateInParallel(t *testing.T) {
	r := runEdge(t, edgeCase{nodes: []int{0, 0, 1}, delay: []float64{1, 1, 1},
		consumers: []int{2, 3}, start: 5, down: []int{0}, downAt: 2})
	assertPulledOnce(t, r, 3)
	if want := [][2]int{{0, 2}, {1, 3}}; !slices.Equal(r.regens, want) {
		t.Fatalf("regenerations {producer, node} = %v, want %v", r.regens, want)
	}
	if r.stats.Recomputes != 2 || r.res.Counters["shuffle_refetches"] != 2 {
		t.Fatalf("%d recomputes, %d refetches; want 2 and 2", r.stats.Recomputes, r.res.Counters["shuffle_refetches"])
	}
	// Both regenerations ran side by side: the job took one regeneration
	// longer than its fault-free twin, not two.
	clean := runEdge(t, edgeCase{nodes: []int{0, 0, 1}, delay: []float64{1, 1, 1}, consumers: []int{2, 3}, start: 5})
	if d := r.res.Elapsed - clean.res.Elapsed; d < 0.5 || d > 1.5 {
		t.Fatalf("regeneration added %.3fs, want about one 1s regeneration, not two back to back", d)
	}
}

// TestOutputsNoRegenerationAfterFailure: a regeneration that fails fails
// the job, and no other consumer regenerates anything after that; the
// job still ends with every proc unwound and everything released.
func TestOutputsNoRegenerationAfterFailure(t *testing.T) {
	boom := errors.New("input lost")
	r := runEdge(t, edgeCase{nodes: []int{0, 0, 1}, delay: []float64{1, 1, 1},
		consumers: []int{2, 3, 4}, start: 5, down: []int{0}, downAt: 2, regenErr: boom})
	if r.res.Err != boom {
		t.Fatalf("job error %v, want the regeneration's %v", r.res.Err, boom)
	}
	if len(r.regens) != 2 || r.stats.Recomputes != 2 || r.regens[0][0] == r.regens[1][0] {
		// The first two consumers claim one lost output each before either
		// regeneration fails; the third finds both claimed.
		t.Fatalf("regenerations %v (%d recomputes), want the two lost outputs once each", r.regens, r.stats.Recomputes)
	}
	late := runEdge(t, edgeCase{nodes: []int{0, 1}, delay: []float64{1, 1},
		consumers: []int{2, 3, 4}, start: 5, down: []int{0}, downAt: 2, regenErr: boom})
	if late.res.Err != boom || len(late.regens) != 1 || late.stats.Recomputes != 1 {
		t.Fatalf("one lost output: error %v, regenerations %v; want one failed regeneration", late.res.Err, late.regens)
	}
}

func TestOutputsQuiesceAfterFailedRegeneration(t *testing.T) {
	c, b := testBase()
	res := b.RunSolo(func(ctl *sched.JobControl) *Job {
		j := b.Begin("edge", ctl, daemonMem)
		o := j.Outputs(1, "x", func(p *sim.Proc, att *sched.Attempt, i int) (any, error) {
			p.Sleep(1)
			return nil, errors.New("input lost")
		})
		pool := ctl.Pool("consumer", 2)
		c.Eng.Go("driver", func(driver *sim.Proc) {
			j.launch(sched.TaskSpec{Name: "p", Node: 0, Pool: pool,
				Body: func(p *sim.Proc, att *sched.Attempt) (any, error) { return edgeOutput(0, 2, 0), nil },
				Done: func(p *sim.Proc, v any, att *sched.Attempt) error {
					o.Publish(0, att, v.(*Output))
					c.NodeDown(0)
					return nil
				},
			})
			for ci := 0; ci < 2; ci++ {
				j.launch(sched.TaskSpec{Name: fmt.Sprintf("c%d", ci), Node: 1 + ci, Pool: pool,
					Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
						mem := c.Node(att.Node()).Mem
						mem.MustAlloc(cluster.MB)
						defer mem.Free(cluster.MB)
						_, err := o.Pull(p, att, ci, func(int, int) {}, func(float64) {})
						return nil, err
					},
				})
			}
			j.Wait(driver)
			j.Finish(nil)
		})
		return j
	})
	if res.Err == nil || res.Err.Error() != "input lost" {
		t.Fatalf("job error %v, want the failed regeneration's", res.Err)
	}
	assertReleased(t, c, b)
}

// TestOutputsNestedRegenerationAfterFailure: two chained edges, as behind
// a Spark stage that reads two shuffles. Both second-edge outputs and the
// one first-edge output die with node 0. Consumer 0 regenerates x0, whose
// own Pull claims u and fails; consumer 1 regenerates x1, whose Pull waits
// on u's claim and wakes to a failed job with no output and no error of
// its own. The edge takes that as the job's failure, not as an output.
func TestOutputsNestedRegenerationAfterFailure(t *testing.T) {
	c, b := testBase()
	boom := errors.New("input lost")
	res := b.RunSolo(func(ctl *sched.JobControl) *Job {
		j := b.Begin("edge", ctl, daemonMem)
		first := j.Outputs(1, "u", func(p *sim.Proc, att *sched.Attempt, i int) (any, error) {
			p.Sleep(1)
			return nil, boom
		})
		second := j.Outputs(2, "x", func(p *sim.Proc, att *sched.Attempt, i int) (any, error) {
			runs, err := first.Pull(p, att, i, func(int, int) {}, func(float64) {})
			if runs == nil {
				return nil, err
			}
			return edgeOutput(i, 2, att.Node()), nil
		})
		pool := ctl.Pool("worker", 3)
		c.Eng.Go("driver", func(driver *sim.Proc) {
			publish := func(o *Outputs, name string, i int, delay float64) {
				j.launch(sched.TaskSpec{Name: name, Node: 0, Pool: pool,
					Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
						p.Sleep(delay)
						return edgeOutput(i, 2, 0), nil
					},
					Done: func(p *sim.Proc, v any, att *sched.Attempt) error {
						o.Publish(i, att, v.(*Output))
						return nil
					},
				})
			}
			publish(first, "u", 0, 1)
			publish(second, "x0", 0, 1)
			publish(second, "x1", 1, 1.5)
			for ci := 0; ci < 2; ci++ {
				j.launch(sched.TaskSpec{Name: fmt.Sprintf("c%d", ci), Node: 2 + ci, Pool: pool,
					Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
						p.Sleep(5)
						_, err := second.Pull(p, att, ci, func(int, int) {}, func(float64) {})
						return nil, err
					},
				})
			}
			j.Wait(driver)
			j.Finish(nil)
		})
		c.Eng.Post(2, func() { c.NodeDown(0) })
		return j
	})
	if res.Err != boom {
		t.Fatalf("job error %v, want the failed regeneration's %v", res.Err, boom)
	}
	assertReleased(t, c, b)
}

// FuzzOutputsPullOnce drives the edge through publication orders, pipelined
// streams, nodes lost before or while consumers pull, and consumers that
// start late enough to refetch another's regenerated copy; the oracle is
// that every consumer pulls each producer's partition exactly once.
func FuzzOutputsPullOnce(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2}, uint8(0), uint8(0), uint8(0), false)
	f.Add([]byte{9, 18, 27, 36, 45}, uint8(0b11), uint8(40), uint8(0), true)
	f.Add([]byte{0x81, 0x92, 0x03, 0xf4}, uint8(0b101), uint8(80), uint8(5), false)
	f.Add([]byte{5, 5, 5, 5, 5, 5}, uint8(0b111111), uint8(10), uint8(3), true)
	f.Fuzz(func(t *testing.T, producers []byte, down, downAt, stagger uint8, stream bool) {
		if len(producers) == 0 {
			return
		}
		if len(producers) > 6 {
			producers = producers[:6]
		}
		// Producers on nodes 0-5 (any of which may fail); consumers on 6
		// and 7, which never do. Each byte: node and delay.
		ec := edgeCase{consumers: []int{6, 7}, start: float64(downAt%3) * 2, stagger: float64(stagger % 8),
			downAt: float64(downAt) / 10, stream: stream}
		for _, b := range producers {
			ec.nodes = append(ec.nodes, int(b%6))
			ec.delay = append(ec.delay, 1+float64(b>>3&7))
		}
		for node := 0; node < 6; node++ {
			if down&(1<<node) != 0 {
				ec.down = append(ec.down, node)
			}
		}
		assertPulledOnce(t, runEdge(t, ec), len(producers))
	})
}
