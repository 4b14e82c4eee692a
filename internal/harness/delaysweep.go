package harness

import (
	"fmt"

	datampi "github.com/datampi/datampi-go"
	"github.com/datampi/datampi-go/internal/cluster"
)

// The delay-scheduling sweep measures the Placer's LocalitySlack knob
// under the mix1 workload (WordCount + Grep + TextSort co-scheduled on
// Hadoop): more slack lets replica-holding nodes take extra local blocks
// (delay scheduling's trade), raising the data-local map rate at the cost
// of less balanced waves.

func init() {
	register(Experiment{
		ID:    "delaysweep",
		Title: "Delay-scheduling sweep (beyond the paper): LocalitySlack vs locality and makespan",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "delaysweep",
				Title:   "Hadoop mix: locality-hit rate and makespan vs Placer.LocalitySlack",
				Columns: []string{"Slack", "LocalMaps", "Maps", "Locality", "Makespan(s)"}}
			slacks := []float64{0, 0.5, 1, 2, 5}
			nominalGB := 8.0
			if opt.Quick {
				slacks = []float64{0, 1, 5}
				nominalGB = 4.0
			}
			// Gateway-staged, single-replica storage makes the locality-vs-
			// balance trade real: HDFS write locality pins every block to
			// the upload client, so strictly balanced waves must ship most
			// blocks to nodes holding no copy, while generous slack piles
			// work on the gateway. With the paper's 3 random replicas a
			// balanced wave almost always finds a local copy and the knob
			// has nothing to buy.
			rc := RigConfig{Scale: opt.scaleOr(8192), Seed: opt.seedOr(1), Replication: 1, Gateway: true}
			nominal := nominalGB * cluster.GB
			jobs := mixJobs()
			rows, err := sweep(len(slacks), func(i int) ([]string, error) {
				slack := slacks[i]
				rig := NewRig(Hadoop, rc)
				specs := mixSpecs(rig, jobs, nominal, rc.Seed)
				opts := []datampi.ScenarioOption{
					datampi.WithLocalitySlack(slack),
					datampi.Tenant("sweep", 1, rig.Sched()),
				}
				for _, spec := range specs {
					opts = append(opts, datampi.Arrive("sweep", 0, spec))
				}
				srep, err := datampi.NewScenario(rig.Testbed(), opts...).Run()
				if srep == nil {
					return nil, fmt.Errorf("delaysweep slack=%v: %w", slack, err)
				}
				var local, maps int64
				for _, jr := range srep.Jobs {
					if jr.Result.Err != nil {
						return nil, fmt.Errorf("delaysweep slack=%v %s: %w", slack, jr.Result.Job, jr.Result.Err)
					}
					local += jr.Result.Counters["data_local_maps"]
					maps += jr.Result.Counters["maps"]
				}
				return []string{
					fmt.Sprintf("%g", slack),
					fmt.Sprintf("%d", local), fmt.Sprintf("%d", maps),
					fmtPct(float64(local) / float64(maps)),
					fmtSecs(srep.Makespan),
				}, nil
			})
			if err != nil {
				return nil, err
			}
			rep.Rows = rows
			rep.Notes = append(rep.Notes,
				"slack is the fraction of a balanced wave a replica holder may exceed for a local block",
				"the mix workload (WordCount+Grep+TextSort) is co-scheduled FIFO on one Hadoop testbed",
				"inputs staged via one upload gateway with 1 replica: strict balance costs locality, generous slack costs balance",
				"moderate slack wins: the delay-scheduling sweet spot between remote reads and a hot-spotted gateway")
			return rep, nil
		},
	})
}
