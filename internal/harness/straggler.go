package harness

import (
	"fmt"

	datampi "github.com/datampi/datampi-go"
	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/sched"
)

// The straggler experiment goes beyond the paper's clean-cluster runs:
// BigDataBench argues for diverse cluster conditions, and Hadoop's
// speculative execution (paper Section 2.1) exists precisely because real
// nodes misbehave. One node is degraded 4x (CPU and disk) and WordCount
// is run per framework with speculation off and on; the report shows how
// much of the injected slowdown speculative backup attempts recover.

// stragglerFactor is the CPU/disk degradation applied to the slow node.
const stragglerFactor = 4.0

// runStraggler measures one framework once: clean, slow, slow+speculation.
// The run is declared through the Scenario API — the slow node is a timed
// perturbation at t=0, which applies before the first admission, so every
// attempt placed on that node runs slow from its first second.
func runStraggler(fw Framework, rc RigConfig, nominal float64, slow, speculate bool) (job.Result, sched.TrackerStats, error) {
	rig := NewRig(fw, rc)
	in := bdb.GenerateTextFile(rig.FS, "/strag/in", bdb.LDAWiki1W(), rc.Seed+7, nominal)
	spec := bdb.WordCountSpec(rig.FS, in, "/strag/out", rig.TasksPerNode*rig.Cluster.N())
	opts := []datampi.ScenarioOption{
		datampi.Tenant("strag", 1, rig.Sched()),
		datampi.Arrive("strag", 0, spec),
	}
	if speculate {
		opts = append(opts, datampi.WithSpeculation(sched.SpeculationConfig{Enabled: true}))
	}
	if slow {
		opts = append(opts, datampi.At(0, datampi.SlowNode(rig.Cluster.N()-1, stragglerFactor)))
	}
	rep, err := datampi.NewScenario(rig.Testbed(), opts...).Run()
	if rep == nil {
		return job.Result{}, sched.TrackerStats{}, err
	}
	res := rep.Jobs[0].Result
	return res, rep.Tracker, res.Err
}

func init() {
	register(Experiment{
		ID:    "straggler",
		Title: "Straggler scenario (beyond the paper): one node 4x slow, speculation off vs on",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "straggler",
				Title: "WordCount completion with one degraded node, per framework",
				Columns: []string{"Framework", "Clean(s)", "Slow(s)", "Spec(s)",
					"Recovered", "Backups", "BackupWins"}}
			frameworks := []Framework{Hadoop, Spark, DataMPI}
			nominalGB := 8.0
			if opt.Quick {
				frameworks = []Framework{Hadoop, DataMPI}
				nominalGB = 4.0
			}
			rc := RigConfig{Scale: opt.scaleOr(8192), Seed: opt.seedOr(1)}
			nominal := nominalGB * cluster.GB
			slowIdx := cluster.DefaultHardware().Nodes - 1
			for _, fw := range frameworks {
				clean, _, err := runStraggler(fw, rc, nominal, false, false)
				if err != nil {
					return nil, err
				}
				slow, _, err := runStraggler(fw, rc, nominal, true, false)
				if err != nil {
					return nil, err
				}
				spec, st, err := runStraggler(fw, rc, nominal, true, true)
				if err != nil {
					return nil, err
				}
				recovered := 0.0
				if slow.Elapsed > clean.Elapsed {
					recovered = (slow.Elapsed - spec.Elapsed) / (slow.Elapsed - clean.Elapsed)
				}
				rep.Rows = append(rep.Rows, []string{
					fw.String(), fmtSecs(clean.Elapsed), fmtSecs(slow.Elapsed),
					fmtSecs(spec.Elapsed), fmtPct(recovered),
					fmt.Sprintf("%d", st.Backups), fmt.Sprintf("%d", st.BackupWins),
				})
			}
			rep.Notes = append(rep.Notes,
				fmt.Sprintf("node %d degraded %gx in CPU and disk service rate", slowIdx, stragglerFactor),
				"Recovered = (Slow - Spec) / (Slow - Clean): the injected slowdown clawed back by backup attempts",
				"DataMPI speculates O tasks only; dichotomic A ranks hold streamed state (on node failure they re-home and the O side replays — see faultsweep)",
				"runs are deterministic: repeating the experiment reproduces identical times")
			return rep, nil
		},
	})
}
