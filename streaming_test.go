package datampi_test

// Tests for the streaming-report and closed-loop additions: the streamed
// per-tenant aggregates must match the retained path exactly, and a
// closed-loop user's jobs must be serialized behind its completions.

import (
	"fmt"
	"strings"
	"testing"

	datampi "github.com/datampi/datampi-go"
)

// closedRig builds the scenario used by both streaming tests: one
// Poisson batch tenant plus one closed-loop user population, sharing an
// engine, with a fixed seed.
func closedRig(t *testing.T, stream bool) (*datampi.Report, error) {
	t.Helper()
	tb := datampi.NewTestbed(datampi.TestbedConfig{Scale: 1024, Seed: 3})
	in := tb.GenerateText("/in", 256*datampi.MB, 1)
	eng := datampi.New(tb.FS, datampi.DefaultConfig())
	opts := []datampi.ScenarioOption{
		datampi.WithPolicy(datampi.Fair),
		datampi.Tenant("batch", 1, eng),
		datampi.PoissonArrivals("batch", 0.05, 4, 42, func(i int) datampi.Job {
			return datampi.WordCount(tb.FS, in, fmt.Sprintf("/out/b-%d", i), 8)
		}),
		datampi.Tenant("users", 2, eng),
		datampi.ClosedLoopUsers("users", 2, 3, 30, 7, func(user, k int) datampi.Job {
			return datampi.WordCount(tb.FS, in, fmt.Sprintf("/out/u%d-%d", user, k), 8)
		}),
	}
	if stream {
		opts = append(opts, datampi.WithStreamingReport())
	}
	return datampi.NewScenario(tb, opts...).Run()
}

// TestStreamingReportMatchesRetained compares the retained and streamed
// reports of the same trace: identical tenant aggregates (the sample
// counts are under the sketch's exact-buffer size, so the distributions
// must agree bit for bit), identical Submitted count, and the streamed
// run must drop the per-job rows it promised to fold away.
func TestStreamingReportMatchesRetained(t *testing.T) {
	retained, err := closedRig(t, false)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := closedRig(t, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(retained.Jobs) == 0 {
		t.Fatal("retained report has no job rows")
	}
	if len(streamed.Jobs) != 0 {
		t.Fatalf("streamed report kept %d job rows, want none", len(streamed.Jobs))
	}
	if retained.Submitted != streamed.Submitted || streamed.Submitted != 4+2*3 {
		t.Fatalf("Submitted: retained %d, streamed %d, want %d",
			retained.Submitted, streamed.Submitted, 4+2*3)
	}
	if retained.Start != streamed.Start || retained.End != streamed.End {
		t.Fatalf("span: retained %v..%v, streamed %v..%v", retained.Start, retained.End, streamed.Start, streamed.End)
	}
	if len(retained.Tenants) != len(streamed.Tenants) {
		t.Fatalf("tenant counts differ: %d vs %d", len(retained.Tenants), len(streamed.Tenants))
	}
	for i := range retained.Tenants {
		r, s := retained.Tenants[i], streamed.Tenants[i]
		if r.Name != s.Name || r.Jobs != s.Jobs || r.Failed != s.Failed {
			t.Fatalf("tenant %s: retained %+v vs streamed %+v", r.Name, r, s)
		}
		if r.Response != s.Response {
			t.Fatalf("tenant %s: response dists differ:\nretained %+v\nstreamed %+v",
				r.Name, r.Response, s.Response)
		}
		// Both modes fold every completion through the same aggregate, in
		// completion order: the sums agree to the bit.
		if r.SlotSeconds != s.SlotSeconds || r.SlotShare != s.SlotShare {
			t.Fatalf("tenant %s: slot seconds %v vs %v, share %v vs %v", r.Name, r.SlotSeconds, s.SlotSeconds, r.SlotShare, s.SlotShare)
		}
	}
}

// TestClosedLoopFirstJobCheckedBeforeSideEffects: a closed-loop user whose
// first job cannot run fails Run before anything touches the testbed — no
// event applied, no job admitted, no replication monitor left subscribed.
func TestClosedLoopFirstJobCheckedBeforeSideEffects(t *testing.T) {
	tb := datampi.NewTestbed(datampi.TestbedConfig{Scale: 1024, Seed: 3})
	in := tb.GenerateText("/in", 256*datampi.MB, 1)
	eng := datampi.New(tb.FS, datampi.DefaultConfig())
	cpu := tb.Cluster.Node(1).CPU.Capacity()
	_, err := datampi.NewScenario(tb,
		datampi.Tenant("batch", 1, eng),
		datampi.Arrive("batch", 0, datampi.WordCount(tb.FS, in, "/out/b", 8)),
		datampi.Tenant("users", 1, eng),
		datampi.ClosedLoopUsers("users", 1, 2, 20, 7, func(user, k int) datampi.Job { return datampi.Job{Name: "unstaged"} }),
		datampi.At(0, datampi.SlowNode(1, 4)),
		datampi.WithReplicationMonitor(datampi.ReplicationMonitorConfig{}),
	).Run()
	if err == nil || !strings.Contains(err.Error(), "no filesystem") {
		t.Fatalf("Run error = %v, want the first job's missing filesystem", err)
	}
	if got := tb.Cluster.Node(1).CPU.Capacity(); got != cpu {
		t.Fatalf("node 1 CPU capacity %v after the rejected Run, want %v", got, cpu)
	}
	used := 0.0
	for i := 0; i < tb.Cluster.N(); i++ {
		used += tb.FS.DiskUsed(i)
	}
	// A monitor left subscribed would re-replicate the failed node's blocks.
	tb.FS.NodeDown(3)
	if err := tb.Cluster.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if now := tb.Cluster.Eng.Now(); now != 0 {
		t.Fatalf("the simulation ran to t=%v after the rejected Run: something was admitted", now)
	}
	after := 0.0
	for i := 0; i < tb.Cluster.N(); i++ {
		after += tb.FS.DiskUsed(i)
	}
	if after != used {
		t.Fatalf("disk use %v -> %v: a replication monitor is still attached", used, after)
	}
}

// TestClosedLoopSerializesPerUser runs a single-user closed loop next to
// background batch load and asserts the defining property: the user's
// k+1-th job is admitted only after its k-th job completed (plus think
// time), never concurrently.
func TestClosedLoopSerializesPerUser(t *testing.T) {
	tb := datampi.NewTestbed(datampi.TestbedConfig{Scale: 1024, Seed: 3})
	in := tb.GenerateText("/in", 256*datampi.MB, 1)
	eng := datampi.New(tb.FS, datampi.DefaultConfig())
	rep, err := datampi.NewScenario(tb,
		datampi.WithPolicy(datampi.Fair),
		datampi.Tenant("batch", 1, eng),
		datampi.PoissonArrivals("batch", 0.05, 3, 42, func(i int) datampi.Job {
			return datampi.WordCount(tb.FS, in, fmt.Sprintf("/out/b-%d", i), 8)
		}),
		datampi.Tenant("solo", 1, eng),
		datampi.ClosedLoopUsers("solo", 1, 4, 20, 7, func(user, k int) datampi.Job {
			return datampi.WordCount(tb.FS, in, fmt.Sprintf("/out/s-%d", k), 8)
		}),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	var prevEnd float64
	seen := 0
	for _, jr := range rep.Jobs {
		if jr.Tenant != "solo" {
			continue
		}
		if jr.Result.Err != nil {
			t.Fatalf("solo job failed: %v", jr.Result.Err)
		}
		if jr.Arrival < prevEnd {
			t.Fatalf("solo job %d admitted at %v before its predecessor completed at %v",
				seen, jr.Arrival, prevEnd)
		}
		prevEnd = jr.Arrival + jr.Response
		seen++
	}
	if seen != 4 {
		t.Fatalf("closed loop ran %d jobs, want 4", seen)
	}
}
