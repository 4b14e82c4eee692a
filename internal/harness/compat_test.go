package harness

// Compatibility pin for the Scenario API: the declarative path
// (datampi.NewScenario) must reproduce the imperative queue path's
// per-job timings bit for bit. The test runs the retired imperative code
// (copied here verbatim as the reference) and the scenario-based
// experiment helper on identically-seeded rigs, then compares Start, End
// and Elapsed with exact float equality.

import (
	"testing"

	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/sched"
)

// imperativeStraggler is the pre-scenario runStraggler: setter zoo plus a
// SlowNode poke before Run.
func imperativeStraggler(fw Framework, rc RigConfig, nominal float64, slow, speculate bool) (job.Result, sched.TrackerStats, error) {
	rig := NewRig(fw, rc)
	in := bdb.GenerateTextFile(rig.FS, "/strag/in", bdb.LDAWiki1W(), rc.Seed+7, nominal)
	spec := bdb.WordCountSpec(rig.FS, in, "/strag/out", rig.TasksPerNode*rig.Cluster.N())
	q := sched.NewQueue(rig.Cluster.Eng, rig.Cluster.N(), sched.FIFO)
	if speculate {
		q.SetSpeculation(sched.SpeculationConfig{Enabled: true})
	}
	if slow {
		rig.Cluster.SlowNode(rig.Cluster.N()-1, stragglerFactor)
	}
	q.Submit(rig.Sched(), spec)
	res := q.Run()[0]
	return res, q.TrackerStats(), res.Err
}

func sameResult(t *testing.T, label string, want, got job.Result) {
	t.Helper()
	if want.Start != got.Start || want.End != got.End || want.Elapsed != got.Elapsed {
		t.Fatalf("%s: scenario timings diverge from imperative path:\nimperative Start=%v End=%v Elapsed=%v\nscenario   Start=%v End=%v Elapsed=%v",
			label, want.Start, want.End, want.Elapsed, got.Start, got.End, got.Elapsed)
	}
	if want.Job != got.Job || want.Engine != got.Engine {
		t.Fatalf("%s: identity mismatch: %s/%s vs %s/%s", label, want.Engine, want.Job, got.Engine, got.Job)
	}
}

// TestScenarioStragglerCompat pins the migrated straggler helper —
// including the speculation monitor and the t=0 SlowNode perturbation —
// to the imperative path.
func TestScenarioStragglerCompat(t *testing.T) {
	rc := RigConfig{Scale: 8192, Seed: 1}
	nominal := 4.0 * cluster.GB
	for _, fw := range []Framework{Hadoop, DataMPI} {
		for _, mode := range []struct {
			name            string
			slow, speculate bool
		}{{"clean", false, false}, {"slow", true, false}, {"spec", true, true}} {
			want, wantStats, err := imperativeStraggler(fw, rc, nominal, mode.slow, mode.speculate)
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, err := runStraggler(fw, rc, nominal, mode.slow, mode.speculate)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fw.String()+"/"+mode.name, want, got)
			if wantStats != gotStats {
				t.Fatalf("%v/%s: tracker stats %+v vs %+v", fw, mode.name, wantStats, gotStats)
			}
		}
	}
}
