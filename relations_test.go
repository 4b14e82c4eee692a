package datampi_test

// Metamorphic relations: properties any correct simulator has whatever its
// cost constants, so they survive a re-calibration that moves every
// simulated number. Each relation runs a scenario twice — as declared and
// transformed — and compares the two reports.

import (
	"math"
	"testing"

	datampi "github.com/datampi/datampi-go"
)

var relationEngines = []string{"Hadoop", "Spark", "DataMPI"}

// relationCase is one scenario a relation runs: two 256 MB inputs in 4 MB
// blocks on a fresh testbed and two tenants on one engine of framework fw.
// A weight-2 WordCount arrives at shift and a weight-1 Text Sort at
// shift+2, while the WordCount's 64 maps still queue for the 32 slots, so
// the pair contends (Hadoop's timings differ between FIFO and Fair).
// slowAt > 0 adds SlowNode(7, factor) at shift+slowAt; idle declares a
// third tenant, on an engine of its own, that never submits a job.
type relationCase struct {
	fw                    string
	policy                datampi.Policy
	shift, slowAt, factor float64
	idle                  bool
}

func (rc relationCase) run(t testing.TB) *datampi.Report {
	t.Helper()
	tb := datampi.NewTestbed(datampi.TestbedConfig{Scale: 1024, BlockSize: 4 * datampi.MB, Seed: 5})
	in1 := tb.GenerateText("/in/one", 256*datampi.MB, 1)
	in2 := tb.GenerateText("/in/two", 256*datampi.MB, 2)
	mk := faultEngines()[rc.fw]
	eng := mk(tb)
	opts := []datampi.ScenarioOption{
		datampi.WithPolicy(rc.policy),
		datampi.Tenant("a", 2, eng),
		datampi.Tenant("b", 1, eng),
		datampi.Arrive("a", rc.shift, datampi.WordCount(tb.FS, in1, "/out/a", 8)),
		datampi.Arrive("b", rc.shift+2, datampi.TextSort(tb.FS, in2, "/out/b", 8)),
	}
	if rc.slowAt > 0 {
		opts = append(opts, datampi.At(rc.shift+rc.slowAt, datampi.SlowNode(7, rc.factor)))
	}
	if rc.idle {
		opts = append(opts, datampi.Tenant("idle", 4, mk(tb)))
	}
	rep, err := datampi.NewScenario(tb, opts...).Run()
	if err != nil {
		t.Fatalf("%+v: %v", rc, err)
	}
	return rep
}

// checkTimeShift is relation (b): moving every arrival and event by d
// moves each job's End by d and leaves its Response unchanged.
//
// Not to the bit: times at a larger clock round differently. On Spark the
// first difference at d=7 is 5e-14 s on a shuffle fetch's start, and each
// contended fetch that follows on the fabric grows it, to about 1e-5 s by
// the end of the job. Over 150 random shifts, slowdowns and engines on this
// scenario the worst drift was 3.8e-5 of the job's response on Spark,
// 6.4e-11 on Hadoop and 8.6e-13 on DataMPI. The bound, 1e-3 of the
// response (about 10 ms here), is 25 times the worst drift and still far
// below what a clock-dependent bug moves: an admission that waits for the
// next whole second moves End by up to a second.
func checkTimeShift(t testing.TB, fw string, base, shifted *datampi.Report, d float64) {
	t.Helper()
	if len(base.Jobs) != 2 || len(shifted.Jobs) != 2 {
		t.Fatalf("%s d=%v: %d and %d jobs, want 2 each", fw, d, len(base.Jobs), len(shifted.Jobs))
	}
	for i := range base.Jobs {
		b, s := base.Jobs[i], shifted.Jobs[i]
		tol := 1e-3 * b.Response
		if drift := math.Abs(s.Result.End - (b.Result.End + d)); !(drift <= tol) {
			t.Fatalf("%s d=%v job %d: End %.17g, want %.17g + d (off by %g s)", fw, d, i, s.Result.End, b.Result.End, drift)
		}
		if drift := math.Abs(s.Response - b.Response); !(drift <= tol) {
			t.Fatalf("%s d=%v job %d: Response %.17g, unshifted %.17g (off by %g s)", fw, d, i, s.Response, b.Response, drift)
		}
	}
}

// TestScenarioTimeShift checks relation (b) on every engine, with and
// without a SlowNode event in the middle of the pair.
func TestScenarioTimeShift(t *testing.T) {
	for _, fw := range relationEngines {
		t.Run(fw, func(t *testing.T) {
			for _, slowAt := range []float64{0, 5} {
				rc := relationCase{fw: fw, policy: datampi.Fair, slowAt: slowAt, factor: 4}
				base := rc.run(t)
				for _, d := range []float64{7, 1000.25, 12345.678} {
					rc.shift = d
					checkTimeShift(t, fw, base, rc.run(t), d)
				}
			}
		})
	}
}

// FuzzScenarioTimeShift drives whole jobs through relation (b): a shift d
// in [0, 1e4), the engine, and an optional SlowNode at (0, 60) s with a
// factor in [0.25, 8).
func FuzzScenarioTimeShift(f *testing.F) {
	f.Add(7.0, uint8(0), 0.0, 4.0)
	f.Add(1000.25, uint8(1), 5.0, 4.0)
	f.Add(9345.678, uint8(2), 13.5, 0.5)
	f.Fuzz(func(t *testing.T, d float64, engine uint8, slowAt, factor float64) {
		for _, v := range []float64{d, slowAt, factor} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		rc := relationCase{
			fw:     relationEngines[int(engine)%len(relationEngines)],
			policy: datampi.Fair,
			slowAt: math.Mod(math.Abs(slowAt), 60), // 0: no SlowNode
			factor: 0.25 + math.Mod(math.Abs(factor), 7.75),
		}
		base := rc.run(t)
		rc.shift = math.Mod(math.Abs(d), 1e4)
		checkTimeShift(t, rc.fw, base, rc.run(t), rc.shift)
	})
}

// TestScenarioIdleTenant checks relation (c): declaring a tenant that
// never submits a job — on an engine of its own, at the largest weight —
// changes no simulated number, on every engine, under FIFO and Fair.
func TestScenarioIdleTenant(t *testing.T) {
	for _, fw := range relationEngines {
		t.Run(fw, func(t *testing.T) {
			for _, policy := range []datampi.Policy{datampi.FIFO, datampi.Fair} {
				rc := relationCase{fw: fw, policy: policy, slowAt: 5, factor: 4}
				base := rc.run(t)
				rc.idle = true
				with := rc.run(t)
				if with.Makespan != base.Makespan || with.Tracker != base.Tracker {
					t.Fatalf("%v: idle tenant moved the run: makespan %.17g vs %.17g, tracker %+v vs %+v",
						policy, with.Makespan, base.Makespan, with.Tracker, base.Tracker)
				}
				if len(with.Jobs) != len(base.Jobs) {
					t.Fatalf("%v: %d jobs with the idle tenant, %d without", policy, len(with.Jobs), len(base.Jobs))
				}
				for i, b := range base.Jobs {
					w := with.Jobs[i]
					if w.Response != b.Response || w.SlotSeconds != b.SlotSeconds {
						t.Fatalf("%v job %d: response %.17g / slot-seconds %.17g with the idle tenant, %.17g / %.17g without",
							policy, i, w.Response, w.SlotSeconds, b.Response, b.SlotSeconds)
					}
				}
			}
		})
	}
}
