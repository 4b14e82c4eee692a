// Multijob: co-schedule three BigDataBench jobs — WordCount, Grep and
// Text Sort — concurrently on one simulated testbed, under the FIFO and
// Fair slot policies, and compare each job's time against running alone.
//
// The paper benchmarks one job at a time; this example exercises the
// multi-tenant scenario its "dynamic" scheduling property implies: tasks
// of several jobs claiming slots as they free up. The same mix runs on
// the DataMPI engine and on the Hadoop baseline to show the queue works
// with any engine.
package main

import (
	"fmt"
	"log"

	datampi "github.com/datampi/datampi-go"
)

// rig builds a fresh testbed with the three mix inputs staged, plus the
// job specs. Scale 8192 keeps 8 GB nominal inputs cheap to simulate.
func rig(hadoop bool) (*datampi.Testbed, datampi.ConcurrentEngine, []datampi.Job) {
	tb := datampi.NewTestbed(datampi.TestbedConfig{Scale: 8192, Seed: 7})
	const size = 8 * datampi.GB
	wc := tb.GenerateText("/in/wc", size, 1)
	gr := tb.GenerateText("/in/grep", size, 2)
	so := tb.GenerateText("/in/sort", size, 3)
	jobs := []datampi.Job{
		datampi.WordCount(tb.FS, wc, "/out/wc", 32),
		datampi.Grep(tb.FS, gr, "/out/grep", `th[ae]`, 32),
		datampi.TextSort(tb.FS, so, "/out/sort", 32),
	}
	var eng datampi.ConcurrentEngine
	if hadoop {
		eng = datampi.NewHadoop(tb.FS)
	} else {
		eng = datampi.New(tb.FS, datampi.DefaultConfig())
	}
	return tb, eng, jobs
}

// runMix co-schedules jobs on eng under policy — one tenant, every job
// arriving at time zero — and returns their results in submission order.
func runMix(tb *datampi.Testbed, eng datampi.ConcurrentEngine, policy datampi.Policy, jobs ...datampi.Job) []datampi.Result {
	opts := []datampi.ScenarioOption{datampi.WithPolicy(policy), datampi.Tenant("jobs", 1, eng)}
	for _, j := range jobs {
		opts = append(opts, datampi.Arrive("jobs", 0, j))
	}
	rep, err := datampi.NewScenario(tb, opts...).Run()
	if rep == nil {
		log.Fatal(err) // configuration error; per-job failures come back in the results
	}
	out := make([]datampi.Result, len(rep.Jobs))
	for i := range rep.Jobs {
		out[i] = rep.Jobs[i].Result
	}
	return out
}

func main() {
	for _, engine := range []struct {
		name   string
		hadoop bool
	}{{"DataMPI", false}, {"Hadoop", true}} {
		// Isolated baselines: one fresh testbed per job.
		alone := make([]float64, 3)
		for i := range alone {
			tb, eng, jobs := rig(engine.hadoop)
			res := runMix(tb, eng, datampi.FIFO, jobs[i])[0]
			if res.Err != nil {
				log.Fatal(res.Err)
			}
			alone[i] = res.Elapsed
		}

		fmt.Printf("== %s: WordCount + Grep + TextSort (8 GB each) on one 8-node testbed ==\n", engine.name)
		fmt.Printf("%-10s %-10s %8s %8s %8s\n", "policy", "job", "alone(s)", "mix(s)", "slowdown")
		for _, policy := range []datampi.Policy{datampi.FIFO, datampi.Fair} {
			tb, eng, jobs := rig(engine.hadoop)
			results := runMix(tb, eng, policy, jobs...)
			makespan := 0.0
			for i, res := range results {
				if res.Err != nil {
					log.Fatal(res.Err)
				}
				if res.End > makespan {
					makespan = res.End
				}
				fmt.Printf("%-10s %-10s %8.0f %8.0f %7.2fx\n",
					policy, res.Job, alone[i], res.Elapsed, res.Elapsed/alone[i])
			}
			fmt.Printf("%-10s makespan %.0fs (serial sum of isolated runs: %.0fs)\n\n",
				policy, makespan, alone[0]+alone[1]+alone[2])
		}
	}
	fmt.Println("FIFO holds the first job near its isolated time and queues the rest;")
	fmt.Println("Fair spreads slots evenly, trading first-job latency for mix fairness.")
}
