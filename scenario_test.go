package datampi_test

import (
	"strings"
	"testing"

	datampi "github.com/datampi/datampi-go"
)

// scenarioRig builds a small testbed with one staged input and returns a
// job builder producing WordCount jobs with distinct output paths.
func scenarioRig(t *testing.T) (*datampi.Testbed, datampi.ConcurrentEngine, func(prefix string) func(i int) datampi.Job) {
	t.Helper()
	tb := datampi.NewTestbed(datampi.TestbedConfig{Scale: 1024, Seed: 3})
	in := tb.GenerateText("/in", 256*datampi.MB, 1)
	eng := datampi.New(tb.FS, datampi.DefaultConfig())
	mk := func(prefix string) func(i int) datampi.Job {
		return func(i int) datampi.Job {
			return datampi.WordCount(tb.FS, in, prefix+string(rune('a'+i)), 8)
		}
	}
	return tb, eng, mk
}

// TestPoissonArrivalsDeterministic: the same seed must reproduce the same
// trace and the same report, bit for bit; a different seed must produce a
// different trace.
func TestPoissonArrivalsDeterministic(t *testing.T) {
	run := func(seed int64) *datampi.Report {
		tb, eng, mk := scenarioRig(t)
		rep, err := datampi.NewScenario(tb,
			datampi.WithPolicy(datampi.Fair),
			datampi.Tenant("a", 2, eng),
			datampi.Tenant("b", 1, eng),
			datampi.PoissonArrivals("a", 0.05, 3, seed, mk("/out/a-")),
			datampi.PoissonArrivals("b", 0.05, 3, seed+100, mk("/out/b-")),
		).Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := run(42), run(42)
	if r1.Render() != r2.Render() {
		t.Fatalf("same seed produced different reports:\n%s\nvs\n%s", r1.Render(), r2.Render())
	}
	if len(r1.Jobs) != len(r2.Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(r1.Jobs), len(r2.Jobs))
	}
	for i := range r1.Jobs {
		if r1.Jobs[i].Arrival != r2.Jobs[i].Arrival || r1.Jobs[i].Response != r2.Jobs[i].Response {
			t.Fatalf("job %d: arrival/response differ across identical runs", i)
		}
	}
	r3 := run(43)
	same := true
	for i := range r1.Jobs {
		if r1.Jobs[i].Arrival != r3.Jobs[i].Arrival {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrival traces")
	}
}

// TestScenarioReportShape checks the structured report: per-tenant
// aggregation, slot shares summing to one, responses covering queueing
// delay, and the timeline carrying scheduled events.
func TestScenarioReportShape(t *testing.T) {
	tb, eng, mk := scenarioRig(t)
	rep, err := datampi.NewScenario(tb,
		datampi.WithPolicy(datampi.Fair),
		datampi.Tenant("heavy", 3, eng),
		datampi.Tenant("light", 1, eng),
		datampi.Arrive("heavy", 0, mk("/out/h-")(0)),
		datampi.Arrive("heavy", 5, mk("/out/h-")(1)),
		datampi.Arrive("light", 10, mk("/out/l-")(0)),
		datampi.At(15, datampi.SlowNode(7, 2)),
		datampi.At(60, datampi.RestoreNode(7)),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 3 || len(rep.Tenants) != 2 {
		t.Fatalf("report has %d jobs / %d tenants, want 3/2", len(rep.Jobs), len(rep.Tenants))
	}
	if rep.Tenants[0].Name != "heavy" || rep.Tenants[0].Jobs != 2 || rep.Tenants[1].Jobs != 1 {
		t.Fatalf("tenant aggregation wrong: %+v", rep.Tenants)
	}
	share := rep.Tenants[0].SlotShare + rep.Tenants[1].SlotShare
	if share < 0.999 || share > 1.001 {
		t.Fatalf("slot shares sum to %v, want 1", share)
	}
	for _, jr := range rep.Jobs {
		if jr.Response <= 0 {
			t.Fatalf("job %s: response %v, want positive", jr.Result.Job, jr.Response)
		}
		if jr.Result.End-jr.Result.Start > jr.Response+1e-9 {
			t.Fatalf("job %s: response %v shorter than its own elapsed %v", jr.Result.Job, jr.Response, jr.Result.Elapsed)
		}
	}
	if len(rep.Timeline) != 2 || rep.Timeline[0].T != 15 || rep.Timeline[1].T != 60 {
		t.Fatalf("timeline wrong: %+v", rep.Timeline)
	}
	if rep.Tenants[0].Response.P95 < rep.Tenants[0].Response.P50 {
		t.Fatalf("p95 < p50: %+v", rep.Tenants[0].Response)
	}
}

// TestScenarioNodeDownRecovers fails a node mid-job through the public
// API: Hadoop's restartable tasks must be retried on healthy nodes and
// the job must still finish correctly.
func TestScenarioNodeDownRecovers(t *testing.T) {
	tb := datampi.NewTestbed(datampi.TestbedConfig{Scale: 1024, Seed: 3})
	in := tb.GenerateText("/in", 512*datampi.MB, 1)
	eng := datampi.NewHadoop(tb.FS)
	rep, err := datampi.NewScenario(tb,
		datampi.Tenant("jobs", 1, eng),
		datampi.Arrive("jobs", 0, datampi.WordCount(tb.FS, in, "/out", 8)),
		datampi.At(20, datampi.NodeDown(7)),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs[0].Result.Err != nil {
		t.Fatal(rep.Jobs[0].Result.Err)
	}
	if got := rep.Jobs[0].Result.Counters["maps"]; got != int64(len(in.Blocks)) {
		t.Fatalf("maps = %d, want %d", got, len(in.Blocks))
	}
	if rep.Tracker.Retries == 0 && rep.Tracker.Kills == 0 {
		t.Log("note: no attempt was caught on the failed node at t=20")
	}
	if tb.Cluster.Alive(7) {
		t.Fatal("cluster should record node 7 as down")
	}
	out := datampi.ReadTextOutput(tb.FS, "/out")
	if len(out) == 0 {
		t.Fatal("no output after node failure")
	}
}

// TestScenarioDeadNodeStaysExcluded: a node an earlier scenario failed
// stays down on the testbed, so the next scenario's queue must not place
// a task attempt there.
func TestScenarioDeadNodeStaysExcluded(t *testing.T) {
	for name, mk := range faultEngines() {
		tb := datampi.NewTestbed(datampi.TestbedConfig{Scale: 1024, BlockSize: 4 * datampi.MB, Seed: 3})
		in := tb.GenerateText("/in", 256*datampi.MB, 1)
		eng := mk(tb)
		if _, err := datampi.NewScenario(tb,
			datampi.Tenant("first", 1, eng),
			datampi.Arrive("first", 0, datampi.WordCount(tb.FS, in, "/out/first", 8)),
			datampi.At(0, datampi.NodeDown(7)),
		).Run(); err != nil {
			t.Fatalf("%s first scenario: %v", name, err)
		}
		rep, err := datampi.NewScenario(tb,
			datampi.WithTracing(datampi.TraceConfig{}),
			datampi.Tenant("second", 1, eng),
			datampi.Arrive("second", 0, datampi.WordCount(tb.FS, in, "/out/second", 8)),
		).Run()
		if err != nil {
			t.Fatalf("%s second scenario: %v", name, err)
		}
		tasks, onDead := 0, 0
		rep.Trace.Each(func(sp *datampi.Span) {
			if sp.Cat == "task" {
				tasks++
				if sp.Node == 7 {
					onDead++
				}
			}
		})
		if tasks == 0 {
			t.Fatalf("%s: the second scenario traced no task span", name)
		}
		if onDead > 0 {
			t.Fatalf("%s: %d of the second scenario's %d task spans ran on node 7, which the first scenario left down", name, onDead, tasks)
		}
	}
}

// TestScenarioSlotEventMissNoted: a Grow/Shrink event firing before any
// engine created its pool must be flagged in the report, not silently
// claimed by the timeline.
func TestScenarioSlotEventMissNoted(t *testing.T) {
	for _, ev := range []datampi.Event{
		datampi.GrowSlots("no-such-pool", 8),
		datampi.ShrinkSlots("no-such-pool", 2),
	} {
		tb, eng, mk := scenarioRig(t)
		rep, err := datampi.NewScenario(tb,
			datampi.Tenant("a", 1, eng),
			datampi.Arrive("a", 0, mk("/out/m-")(0)),
			datampi.At(0, ev),
		).Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Notes) != 1 || !strings.Contains(rep.Notes[0], ev.Name()) || !strings.Contains(rep.Notes[0], "no-such-pool") {
			t.Fatalf("missed %s not noted: %v", ev.Name(), rep.Notes)
		}
		if !strings.Contains(rep.Render(), "had no effect") {
			t.Fatalf("render should surface the miss of %s:\n%s", ev.Name(), rep.Render())
		}
	}
}

// TestScenarioValidation: configuration errors surface from Run, not as
// panics mid-simulation.
func TestScenarioValidation(t *testing.T) {
	tb, eng, mk := scenarioRig(t)
	if _, err := datampi.NewScenario(tb,
		datampi.Tenant("a", 1, eng),
		datampi.Arrive("ghost", 0, mk("/out/x-")(0)),
	).Run(); err == nil || !strings.Contains(err.Error(), "undeclared tenant") {
		t.Fatalf("undeclared tenant not caught: %v", err)
	}
	if _, err := datampi.NewScenario(tb,
		datampi.Tenant("a", 1, eng),
		datampi.Tenant("a", 1, eng),
	).Run(); err == nil || !strings.Contains(err.Error(), "declared twice") {
		t.Fatalf("duplicate tenant not caught: %v", err)
	}
	if _, err := datampi.NewScenario(tb, datampi.Tenant("a", 1, eng)).Run(); err == nil {
		t.Fatal("empty scenario not caught")
	}
	if _, err := datampi.NewScenario(tb,
		datampi.Tenant("a", 1, eng),
		datampi.Arrive("a", 0, mk("/out/z-")(0)),
		datampi.At(120, datampi.SlowNode(8, 4)), // node 8 on an 8-node testbed
	).Run(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range event node not caught at Run: %v", err)
	}
	if _, err := datampi.NewScenario(tb,
		datampi.Tenant("a", 1, eng),
		datampi.Arrive("a", 0, mk("/out/z2-")(0)),
		datampi.At(120, datampi.SlowNode(0, -1)),
	).Run(); err == nil || !strings.Contains(err.Error(), "factor") {
		t.Fatalf("non-positive slow factor not caught at Run: %v", err)
	}
	for _, ev := range []datampi.Event{datampi.GrowSlots("dm-o", 0), datampi.ShrinkSlots("dm-o", 0)} {
		if _, err := datampi.NewScenario(tb,
			datampi.Tenant("a", 1, eng),
			datampi.Arrive("a", 0, mk("/out/z4-")(0)),
			datampi.At(120, ev),
		).Run(); err == nil || !strings.Contains(err.Error(), "perNode must be at least 1") {
			t.Fatalf("%s not caught at Run: %v", ev.Name(), err)
		}
	}
	otherTb := datampi.NewTestbed(datampi.TestbedConfig{Scale: 1024, Seed: 9})
	otherEng := datampi.New(otherTb.FS, datampi.DefaultConfig())
	if _, err := datampi.NewScenario(tb,
		datampi.Tenant("a", 1, otherEng),
		datampi.Arrive("a", 0, mk("/out/z3-")(0)),
	).Run(); err == nil || !strings.Contains(err.Error(), "different testbed") {
		t.Fatalf("wrong-testbed engine not caught at Run: %v", err)
	}
}

// TestScenarioBadGrepPatternIsAnAccountedError: a malformed pattern
// reaching Grep from a tenant's arrival used to panic the process while
// the job was being described. It is now that one job's failure: the
// report carries it (Run returns it as the first error), the tenant's
// other job still completes, and nothing of the rejected job stays
// allocated on the testbed.
func TestScenarioBadGrepPatternIsAnAccountedError(t *testing.T) {
	tb := datampi.NewTestbed(datampi.TestbedConfig{Scale: 1024, Seed: 3})
	in := tb.GenerateText("/in", 256*datampi.MB, 1)
	eng := datampi.NewHadoop(tb.FS)
	rep, err := datampi.NewScenario(tb,
		datampi.Tenant("search", 1, eng),
		datampi.Arrive("search", 0, datampi.Grep(tb.FS, in, "/out/bad", `th[ae`, 8)),
		datampi.Arrive("search", 1, datampi.Grep(tb.FS, in, "/out/good", `th[ae]`, 8)),
	).Run()
	if err == nil || !strings.Contains(err.Error(), "th[ae") {
		t.Fatalf("Run error = %v, want the bad pattern's compile error", err)
	}
	if len(rep.Jobs) != 2 || rep.Jobs[0].Result.Err == nil || rep.Jobs[1].Result.Err != nil {
		t.Fatalf("job errors = %v / %v, want only the first job failed", rep.Jobs[0].Result.Err, rep.Jobs[1].Result.Err)
	}
	if rep.Tenants[0].Jobs != 2 || rep.Tenants[0].Failed != 1 {
		t.Fatalf("tenant report %+v, want 2 jobs of which 1 failed", rep.Tenants[0])
	}
	if rep.Jobs[0].SlotSeconds != 0 {
		t.Fatalf("the rejected job was charged %.1f slot-seconds", rep.Jobs[0].SlotSeconds)
	}
	if len(datampi.ReadTextOutput(tb.FS, "/out/good")) == 0 || len(datampi.ReadTextOutput(tb.FS, "/out/bad")) != 0 {
		t.Fatal("want output from the good job only")
	}
	for i := 0; i < tb.Cluster.N(); i++ {
		if used := tb.Cluster.Node(i).Mem.Used(); used != 0 {
			t.Fatalf("node %d still has %.0f bytes allocated", i, used)
		}
	}
}

// TestScenarioMixedSlotWidthsIsAnAccountedError: two DataMPI tenants whose
// configs size the shared "dm-o" slot pool differently used to panic the
// scenario. The later job is now refused before it is charged anything:
// the earlier one completes, Report.Err names the pool and the width the
// refused job wanted, and nothing stays allocated on the testbed.
func TestScenarioMixedSlotWidthsIsAnAccountedError(t *testing.T) {
	tb := datampi.NewTestbed(datampi.TestbedConfig{Scale: 1024, Seed: 3})
	in := tb.GenerateText("/in", 256*datampi.MB, 1)
	wide := datampi.DefaultConfig()
	wide.TasksPerNode = 6
	rep, err := datampi.NewScenario(tb,
		datampi.Tenant("a", 1, datampi.New(tb.FS, datampi.DefaultConfig())),
		datampi.Tenant("b", 1, datampi.New(tb.FS, wide)),
		datampi.Arrive("a", 0, datampi.WordCount(tb.FS, in, "/out/a", 8)),
		datampi.Arrive("b", 1, datampi.WordCount(tb.FS, in, "/out/b", 8)),
	).Run()
	if rep == nil {
		t.Fatalf("no report: %v", err)
	}
	if len(rep.Jobs) != 2 || rep.Jobs[0].Result.Err != nil || rep.Jobs[1].Result.Err == nil {
		t.Fatalf("job errors = %v / %v, want only b's job failed", rep.Jobs[0].Result.Err, rep.Jobs[1].Result.Err)
	}
	if rerr := rep.Err(); rerr == nil || !strings.Contains(rerr.Error(), `pool "dm-o"`) ||
		!strings.Contains(rerr.Error(), "wants 6") {
		t.Fatalf("Report.Err() = %v, want it to name the dm-o pool and the 6 slots/node b wanted", rerr)
	}
	if rep.Jobs[1].SlotSeconds != 0 {
		t.Fatalf("the refused job was charged %.1f slot-seconds", rep.Jobs[1].SlotSeconds)
	}
	if len(datampi.ReadTextOutput(tb.FS, "/out/a")) == 0 {
		t.Fatal("a's job wrote no output")
	}
	for i := 0; i < tb.Cluster.N(); i++ {
		if used := tb.Cluster.Node(i).Mem.Used(); used != 0 {
			t.Fatalf("node %d still has %.0f bytes allocated", i, used)
		}
	}
}
