package harness

import (
	"fmt"

	datampi "github.com/datampi/datampi-go"
	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/sched"
)

// The job-mix experiment goes beyond the paper: BigDataBench emphasizes
// workload diversity and real clusters run mixes, yet the paper measures
// one job at a time. Here WordCount, Grep and Text Sort are co-scheduled
// on one testbed per framework, under FIFO and Fair slot policies, and
// each job's slowdown versus running alone is reported.

// mixJob names one member of the co-scheduled mix.
type mixJob struct {
	name string
	spec func(r *Rig, nominal float64, seed int64) job.Spec
}

func mixJobs() []mixJob {
	return []mixJob{
		{"WordCount", func(r *Rig, nominal float64, seed int64) job.Spec {
			in := bdb.GenerateTextFile(r.FS, "/mix/wc-in", bdb.LDAWiki1W(), seed+1, nominal)
			return bdb.WordCountSpec(r.FS, in, "/mix/wc-out", r.TasksPerNode*r.Cluster.N())
		}},
		{"Grep", func(r *Rig, nominal float64, seed int64) job.Spec {
			in := bdb.GenerateTextFile(r.FS, "/mix/grep-in", bdb.LDAWiki1W(), seed+2, nominal)
			return bdb.GrepSpec(r.FS, in, "/mix/grep-out", GrepPattern, r.TasksPerNode*r.Cluster.N())
		}},
		{"TextSort", func(r *Rig, nominal float64, seed int64) job.Spec {
			in := bdb.GenerateTextFile(r.FS, "/mix/sort-in", bdb.LDAWiki1W(), seed+3, nominal)
			return bdb.TextSortSpec(r.FS, in, "/mix/sort-out", r.TasksPerNode*r.Cluster.N())
		}},
	}
}

// mixSpecs stages every mix input on one rig (so the disk layout matches
// across isolation and co-scheduled runs) and returns the specs.
func mixSpecs(r *Rig, jobs []mixJob, nominal float64, seed int64) []job.Spec {
	specs := make([]job.Spec, len(jobs))
	for i, mj := range jobs {
		specs[i] = mj.spec(r, nominal, seed)
	}
	return specs
}

// runMix runs the mix co-scheduled under policy on a fresh rig, declared
// through the Scenario API, and returns the per-job results plus the
// makespan. The scenario path reproduces the imperative queue path's
// per-job timings bit-identically (pinned by TestScenarioMixCompat).
func runMix(fw Framework, rc RigConfig, jobs []mixJob, nominal float64, policy sched.Policy) ([]job.Result, float64, error) {
	rig := NewRig(fw, rc)
	specs := mixSpecs(rig, jobs, nominal, rc.Seed)
	opts := []datampi.ScenarioOption{
		datampi.WithPolicy(policy),
		datampi.Tenant("mix", 1, rig.Sched()),
	}
	for _, spec := range specs {
		opts = append(opts, datampi.Arrive("mix", 0, spec))
	}
	rep, err := datampi.NewScenario(rig.Testbed(), opts...).Run()
	if rep == nil {
		return nil, 0, fmt.Errorf("mix %s: %w", fw, err)
	}
	results := make([]job.Result, len(rep.Jobs))
	for i := range rep.Jobs {
		results[i] = rep.Jobs[i].Result
		if results[i].Err != nil {
			return results, rep.Makespan, fmt.Errorf("mix %s %s: %w", fw, results[i].Job, results[i].Err)
		}
	}
	return results, rep.Makespan, nil
}

// runMixAlone runs mix job ji in isolation (all inputs staged, one job
// run) on a fresh rig. The job goes through a single-arrival scenario so
// its elapsed time uses the same driver-completion accounting as the
// co-scheduled runs.
func runMixAlone(fw Framework, rc RigConfig, jobs []mixJob, nominal float64, ji int) (job.Result, error) {
	rig := NewRig(fw, rc)
	specs := mixSpecs(rig, jobs, nominal, rc.Seed)
	rep, err := datampi.NewScenario(rig.Testbed(),
		datampi.Tenant("solo", 1, rig.Sched()),
		datampi.Arrive("solo", 0, specs[ji]),
	).Run()
	if rep == nil {
		return job.Result{}, err
	}
	return rep.Jobs[0].Result, rep.Jobs[0].Result.Err
}

func init() {
	register(Experiment{
		ID:    "mix1",
		Title: "Job mix (beyond the paper): WordCount+Grep+TextSort co-scheduled, FIFO vs Fair",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "mix1", Title: "Per-job slowdown when co-scheduled vs running alone",
				Columns: []string{"Framework", "Job", "Alone(s)", "FIFO(s)", "FIFO_x", "Fair(s)", "Fair_x"}}
			// 8 GB per job = 32 blocks: every job wants 4 tasks per node, so
			// three jobs queue 12 deep on 4 slots and the policies diverge.
			// (Text Sort stays under Spark's per-partition OOM point.)
			frameworks := []Framework{Hadoop, Spark, DataMPI}
			nominalGB := 8.0
			if opt.Quick {
				frameworks = []Framework{Hadoop, DataMPI}
				nominalGB = 4.0
			}
			jobs := mixJobs()
			rc := RigConfig{Scale: opt.scaleOr(8192), Seed: opt.seedOr(1)}
			nominal := nominalGB * cluster.GB

			for _, fw := range frameworks {
				alone := make([]float64, len(jobs))
				for ji := range jobs {
					res, err := runMixAlone(fw, rc, jobs, nominal, ji)
					if err != nil {
						return nil, err
					}
					alone[ji] = res.Elapsed
				}
				fifo, fifoSpan, err := runMix(fw, rc, jobs, nominal, sched.FIFO)
				if err != nil {
					return nil, err
				}
				fair, fairSpan, err := runMix(fw, rc, jobs, nominal, sched.Fair)
				if err != nil {
					return nil, err
				}
				sumAlone := 0.0
				for ji := range jobs {
					sumAlone += alone[ji]
					rep.Rows = append(rep.Rows, []string{
						fw.String(), jobs[ji].name,
						fmtSecs(alone[ji]),
						fmtSecs(fifo[ji].Elapsed), fmt.Sprintf("%.2f", fifo[ji].Elapsed/alone[ji]),
						fmtSecs(fair[ji].Elapsed), fmt.Sprintf("%.2f", fair[ji].Elapsed/alone[ji]),
					})
				}
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"%s: makespan FIFO %.0fs, Fair %.0fs; serial sum of isolated runs %.0fs",
					fw, fifoSpan, fairSpan, sumAlone))
			}
			rep.Notes = append(rep.Notes,
				"slowdown x = co-scheduled elapsed / isolated elapsed; jobs share slots and all simulated resources",
				"FIFO favors the first-submitted job; Fair equalizes slot shares across jobs")
			return rep, nil
		},
	})
}
