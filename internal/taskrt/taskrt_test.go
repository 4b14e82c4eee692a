package taskrt

import (
	"errors"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/metrics"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/trace"
	"github.com/datampi/datampi-go/internal/transport"
)

const daemonMem = 64 * cluster.MB

func testBase() (*cluster.Cluster, *Base) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: 64 * cluster.KB, Replication: 3, Scale: 1, Seed: 1})
	b := NewBase("test", fs, &Profile{}, transport.HadoopProfile())
	return c, &b
}

// assertReleased checks that nothing Begin charged is still held.
func assertReleased(t *testing.T, c *cluster.Cluster, b *Base) {
	t.Helper()
	if n := b.ActiveJobs(); n != 0 {
		t.Fatalf("%d jobs still hold the daemon residency", n)
	}
	for i := 0; i < c.N(); i++ {
		if used := c.Node(i).Mem.Used(); used != 0 {
			t.Fatalf("node %d still has %.0f bytes charged", i, used)
		}
	}
}

// sleeper submits a job whose driver sleeps secs, optionally fails, and
// finishes.
func sleeper(b *Base, name string, secs float64, fail error, done func(job.Result)) func(*sched.JobControl) *Job {
	return func(ctl *sched.JobControl) *Job {
		j := b.Begin(name, ctl, daemonMem)
		b.C.Eng.Go("driver:"+name, func(p *sim.Proc) {
			p.Sleep(secs)
			j.Phase("first", "rest")
			p.Sleep(secs)
			if fail != nil {
				j.Fail(fail)
				j.Fail(errors.New("a later error must not replace the first"))
			}
			j.Finish(done)
		})
		return j
	}
}

func TestFinishReleasesOnceOnSuccessAndOnFail(t *testing.T) {
	boom := errors.New("boom")
	for name, fail := range map[string]error{"success": nil, "fail": boom} {
		t.Run(name, func(t *testing.T) {
			c, b := testBase()
			b.Prof = metrics.NewProfiler(c, 0.5)
			calls := 0
			res := b.RunSolo(sleeper(b, "j", 2, fail, func(job.Result) { calls++ }))
			// RunSolo returning at all means the profiler was stopped: a
			// sampling timer left running re-arms forever.
			if res.Err != fail {
				t.Fatalf("Err = %v, want %v", res.Err, fail)
			}
			if calls != 1 {
				t.Fatalf("done ran %d times", calls)
			}
			if len(b.Prof.Series().Samples) == 0 {
				t.Fatal("profiler never sampled")
			}
			if res.Engine != "test" || res.Job != "j" || res.Elapsed != res.End-res.Start {
				t.Fatalf("result not stamped: %+v", res)
			}
			// The open-ended phase extends to the drain point.
			if res.Phases["first"] != 2 || res.Phases["first"]+res.Phases["rest"] != res.Elapsed {
				t.Fatalf("phases %v do not tile elapsed %v", res.Phases, res.Elapsed)
			}
			assertReleased(t, c, b)
		})
	}
}

// TestOverlappingJobsShareOneResidency: the first job charges the
// daemons, the last frees them, and each release happens exactly once — a
// doubled one would free the residency under the job still running (or
// trip Residency's own underflow panic).
func TestOverlappingJobsShareOneResidency(t *testing.T) {
	c, b := testBase()
	ctl := sched.Solo(c.Eng, c.N())
	var midJobs int
	var midMem float64
	sleeper(b, "short", 1, nil, func(job.Result) {
		midJobs, midMem = b.ActiveJobs(), c.Node(0).Mem.Used()
	})(ctl)
	sleeper(b, "long", 5, errors.New("late failure"), nil)(ctl)
	if b.ActiveJobs() != 2 || c.Node(0).Mem.Used() != daemonMem {
		t.Fatalf("two begun jobs: %d holders, %.0f bytes on node 0", b.ActiveJobs(), c.Node(0).Mem.Used())
	}
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if midJobs != 1 || midMem != daemonMem {
		t.Fatalf("after the first finish: %d holders, %.0f bytes on node 0; want 1 and the residency intact", midJobs, midMem)
	}
	assertReleased(t, c, b)
}

// TestRunSoloDeadlockReleases reaches the clean-up branch every engine's
// solo Run shares: the driver parks forever, the kernel reports the
// deadlock, and the engine stays reusable.
func TestRunSoloDeadlockReleases(t *testing.T) {
	c, b := testBase()
	var never sim.Cond
	res := b.RunSolo(func(ctl *sched.JobControl) *Job {
		j := b.Begin("stuck", ctl, daemonMem)
		c.Eng.Go("driver:stuck", func(p *sim.Proc) {
			p.Sleep(3)
			j.Phase("first", "rest")
			never.Wait(p, "never")
			j.Finish(nil)
		})
		return j
	})
	if res.Err == nil {
		t.Fatal("deadlocked run reported no error")
	}
	if res.End != 3 || res.Elapsed != 3 || len(res.Phases) != 0 {
		t.Fatalf("deadlocked result: End %v Elapsed %v Phases %v", res.End, res.Elapsed, res.Phases)
	}
	assertReleased(t, c, b)
	// A job the engine runs afterwards holds the residency on its own.
	ctl := sched.Solo(c.Eng, c.N())
	j := b.Begin("next", ctl, daemonMem)
	if b.ActiveJobs() != 1 {
		t.Fatalf("%d holders after a fresh Begin", b.ActiveJobs())
	}
	j.Finish(nil)
	assertReleased(t, c, b)
}

func TestRejectChargesNothing(t *testing.T) {
	c, b := testBase()
	b.Prof = metrics.NewProfiler(c, 0.5)
	bad := errors.New("no input")
	var got job.Result
	res := b.RunSolo(func(*sched.JobControl) *Job {
		return b.Reject("empty", bad, func(r job.Result) { got = r })
	})
	if res.Err != bad || got.Err != bad || res.Job != "empty" {
		t.Fatalf("rejected job: returned %+v, done got %+v", res, got)
	}
	if len(b.Prof.Series().Samples) != 0 || res.End != 0 {
		t.Fatalf("a rejected job started the profiler or moved the clock (End %v)", res.End)
	}
	assertReleased(t, c, b)
}

// TestSoloTracerFallback: a solo run records under Base.Tracer, and the
// phase spans carry the same floats as Result.Phases.
func TestSoloTracerFallback(t *testing.T) {
	_, b := testBase()
	b.Tracer = trace.New(trace.Config{})
	res := b.RunSolo(sleeper(b, "traced", 2, nil, nil))
	jobs, phases := b.Tracer.FindByCat("job"), b.Tracer.FindByCat("phase")
	if len(jobs) != 1 || jobs[0].Name != "job:traced" || len(phases) != 2 {
		t.Fatalf("%d job spans, %d phase spans", len(jobs), len(phases))
	}
	if d := phases[0].End - phases[0].Start; phases[0].Name != "first" || d != res.Phases["first"] {
		t.Fatalf("phase span %q lasts %v, result says %v", phases[0].Name, d, res.Phases["first"])
	}
	if phases[1].Name != "rest" || phases[1].Parent != jobs[0].ID {
		t.Fatalf("second phase span: %+v", phases[1])
	}
}

func TestFraming(t *testing.T) {
	part := []kv.Pair{{Key: []byte("ab"), Value: []byte("c")}, {Key: []byte("d")}}
	want := part[0].Size() + part[1].Size() + 2*recordFraming
	// One form: the integer sum scaled once, also at a scale that is not a
	// power of two.
	for _, scale := range []float64{1, 2, 1000} {
		if got := Framed(part, scale); got != float64(want)*scale {
			t.Fatalf("Framed at scale %v = %v, want %v", scale, got, float64(want)*scale)
		}
	}
}

func TestOverheadPressureTerm(t *testing.T) {
	c, b := testBase()
	b.cost = &Profile{Overhead: 0.5, MemPressureGC: 2}
	if got := b.Overhead(0, 10); got != 5 {
		t.Fatalf("idle node: gc = %v, want 5", got)
	}
	mem := c.Node(0).Mem
	mem.MustAlloc(0.85 * mem.Limit())
	want := 0.5*10 + 2*(mem.Pressure()-0.7)/0.3*10
	if got := b.Overhead(0, 10); got != want || got <= 5 {
		t.Fatalf("node at 85%%: gc = %v, want %v", got, want)
	}
	// Both rates zero switch the overhead off at any memory pressure.
	b.cost = &Profile{}
	for _, frac := range []float64{0, 0.1} {
		mem.MustAlloc(frac * mem.Limit())
		if got := b.Overhead(0, 10); got != 0 {
			t.Fatalf("zero profile at %.0f%% memory: gc = %v, want 0", 100*mem.Pressure(), got)
		}
	}
}

// TestPortedCPUFactor: a ported spec pays the profile's PortedCPUFactor on
// every CPU charge, an unmarked spec or an unset factor pays nothing more.
// MapCPU sums map, record, then emit: the rates make any other order of
// the three terms round differently.
func TestPortedCPUFactor(t *testing.T) {
	_, b := testBase() // Hadoop's transport: EmitCPUPerByte 0.3e-7
	b.cost = &Profile{MapCPUPerByte: 0.11e-7, RecordCPU: 0.7e-6, PortedCPUFactor: 1.5}
	factor, in, records, emitted := 1.7, float64(64*cluster.MB), 1e5+7, float64(80*cluster.MB+13)
	sum := b.cost.MapCPUPerByte*factor*in + b.cost.RecordCPU*records + b.tp.Profile().EmitCPUPerByte*emitted
	plain, ported := &job.Spec{}, &job.Spec{Ported: true}
	if got := b.MapCPU(plain, factor, in, records, emitted); got != sum {
		t.Fatalf("unmarked spec: %v core-s, want %v", got, sum)
	}
	if got := b.MapCPU(ported, factor, in, records, emitted); got != 1.5*sum {
		t.Fatalf("ported spec: %v core-s, want %v", got, 1.5*sum)
	}
	b.cost.PortedCPUFactor = 0
	if got := b.MapCPU(ported, factor, in, records, emitted); got != sum {
		t.Fatalf("ported spec, factor unset: %v core-s, want %v", got, sum)
	}
}
