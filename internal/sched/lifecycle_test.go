package sched_test

import (
	"testing"

	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/mr"
	"github.com/datampi/datampi-go/internal/sched"
)

// TestPolicyIrrelevantWithoutContention admits the testRig(77) pair at
// t=0 under FIFO and under Fair. The pair never contends for a slot, so
// the policy has nothing to arbitrate: each job's Elapsed must be
// bit-identical under both, on every engine.
func TestPolicyIrrelevantWithoutContention(t *testing.T) {
	for _, name := range []string{"Hadoop", "Spark", "DataMPI"} {
		t.Run(name, func(t *testing.T) {
			var elapsed [2][]float64
			for i, policy := range []sched.Policy{sched.FIFO, sched.Fair} {
				fs, specs := testRig(t, 77)
				eng := engineFor(name, fs)
				q := sched.NewQueue(fs.Cluster().Eng, fs.Cluster().N(), policy)
				for _, sp := range specs {
					q.Admit("", q.Now(), 1, eng, sp)
				}
				for _, r := range q.Run() {
					if r.Err != nil {
						t.Fatal(r.Err)
					}
					elapsed[i] = append(elapsed[i], r.Elapsed)
				}
			}
			for j := range elapsed[0] {
				if elapsed[0][j] != elapsed[1][j] {
					t.Fatalf("job%d elapsed: FIFO %.17g, Fair %.17g", j, elapsed[0][j], elapsed[1][j])
				}
			}
		})
	}
}

// stragglerRig stages the straggler workload — one WordCount over 256 MB
// nominal — on a fresh testbed.
func stragglerRig() (*cluster.Cluster, *dfs.FS, job.Spec) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: 8 * cluster.MB, Replication: 3, Scale: 64, Seed: 7})
	in := bdb.GenerateTextFile(fs, "/in", bdb.LDAWiki1W(), 8, 256*cluster.MB)
	return c, fs, bdb.WordCountSpec(fs, in, "/out", 16)
}

// stragglerRun executes the straggler workload on a fresh testbed,
// optionally with node 7 slowed 4x and speculation on, and returns the
// elapsed time plus tracker stats. want is the job's sorted sequential
// reference output: it depends on neither the engine nor the fault, so
// the caller computes it once.
func stragglerRun(t *testing.T, engine string, slow, speculate bool, want []kv.Pair) (float64, sched.TrackerStats) {
	t.Helper()
	c, fs, spec := stragglerRig()
	q := sched.NewQueue(c.Eng, c.N(), sched.FIFO)
	if speculate {
		q.SetSpeculation(sched.SpeculationConfig{Enabled: true, MinRuntime: 1, CheckInterval: 0.5})
	}
	if slow {
		c.SlowNode(7, 4)
	}
	q.Admit("", q.Now(), 1, engineFor(engine, fs), spec)
	res := q.Run()[0]
	if res.Err != nil {
		t.Fatalf("%s straggler run: %v", engine, res.Err)
	}
	// The output must stay correct when losers are killed mid-flight.
	got := job.ReadTextOutput(fs, spec.Output)
	if !pairsEqual(sortedPairs(got), want) {
		t.Fatalf("%s speculative run corrupted output: got %d pairs, want %d",
			engine, len(got), len(want))
	}
	return res.Elapsed, q.TrackerStats()
}

// TestSpeculationRecoversStraggler injects one 4x-slow node and requires
// speculative execution to claw back a healthy fraction of the slowdown
// on every engine, deterministically.
func TestSpeculationRecoversStraggler(t *testing.T) {
	_, _, refSpec := stragglerRig()
	ref, err := job.RunSequential(refSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedPairs(ref)
	for _, engine := range []string{"Hadoop", "Spark", "DataMPI"} {
		t.Run(engine, func(t *testing.T) {
			clean, _ := stragglerRun(t, engine, false, false, want)
			slow, _ := stragglerRun(t, engine, true, false, want)
			if slow <= clean {
				t.Fatalf("slow node had no effect: clean %.2f, slow %.2f", clean, slow)
			}
			spec, st := stragglerRun(t, engine, true, true, want)
			recovered := (slow - spec) / (slow - clean)
			if recovered < 0.30 {
				t.Fatalf("speculation recovered only %.0f%% of the slowdown (clean %.2f slow %.2f spec %.2f)",
					recovered*100, clean, slow, spec)
			}
			if st.Backups == 0 || st.BackupWins == 0 {
				t.Fatalf("no speculative wins recorded: %+v", st)
			}
			spec2, st2 := stragglerRun(t, engine, true, true, want)
			if spec2 != spec || st2 != st {
				t.Fatalf("speculative run not deterministic: %.17g vs %.17g, %+v vs %+v",
					spec, spec2, st, st2)
			}
		})
	}
}

// TestSubmitWeightedFavorsHeavyJob co-schedules two identical WordCounts
// under Fair, admitting the first at weight 1 or 3, and checks the
// weight-3 job finishes first while equal weights tie.
func TestSubmitWeightedFavorsHeavyJob(t *testing.T) {
	run := func(w float64) (float64, float64) {
		c := cluster.New(cluster.DefaultHardware())
		fs := dfs.New(c, dfs.Config{BlockSize: 1 * cluster.MB, Replication: 3, Scale: 64, Seed: 7})
		in1 := bdb.GenerateTextFile(fs, "/in/one", bdb.LDAWiki1W(), 8, 64*cluster.MB)
		in2 := bdb.GenerateTextFile(fs, "/in/two", bdb.LDAWiki1W(), 9, 64*cluster.MB)
		eng := mr.New(fs, mr.DefaultConfig())
		q := sched.NewQueue(c.Eng, c.N(), sched.Fair)
		q.Admit("", q.Now(), w, eng, bdb.WordCountSpec(fs, in1, "/out/one", 16))
		q.Admit("", q.Now(), 1, eng, bdb.WordCountSpec(fs, in2, "/out/two", 16))
		res := q.Run()
		for _, r := range res {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		return res[0].Elapsed, res[1].Elapsed
	}
	e1, e2 := run(1)
	if d := e1/e2 - 1; d < -0.01 || d > 0.01 {
		t.Fatalf("equal weights should finish together (data noise aside): %.2f vs %.2f", e1, e2)
	}
	h1, h2 := run(3)
	if h1 >= h2 {
		t.Fatalf("weight-3 job (%.2f) should beat weight-1 job (%.2f)", h1, h2)
	}
	if h1 >= e1 {
		t.Fatalf("extra weight should shorten the heavy job: %.2f vs %.2f unweighted", h1, e1)
	}
}
