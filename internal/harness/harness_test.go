package harness

import (
	"strings"
	"testing"
)

// paperIDs are the paper's fourteen artifacts; beyondIDs the sweeps that
// go past it.
var (
	paperIDs = []string{
		"table1", "table2", "fig2a", "fig2b", "fig3a", "fig3b", "fig3c", "fig3d",
		"fig4sort", "fig4wc", "fig5", "fig6a", "fig6b", "fig7",
	}
	beyondIDs = []string{"faultsweep", "tenants", "datacenter", "tracecheck", "recordsweep", "straggler"}
	wantIDs   = append(append([]string(nil), paperIDs...), beyondIDs...)
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	have := map[string]bool{}
	for _, e := range Experiments() {
		have[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range wantIDs {
		if !have[id] {
			t.Fatalf("missing experiment %s", id)
		}
	}
	if len(have) != len(wantIDs) {
		t.Fatalf("registry has %d experiments, want %d", len(have), len(wantIDs))
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig3b"); !ok {
		t.Fatal("fig3b not found")
	}
	if _, ok := Lookup("nonsense"); ok {
		t.Fatal("bogus id found")
	}
}

func TestTablesRender(t *testing.T) {
	for _, id := range []string{"table1", "table2"} {
		exp, _ := Lookup(id)
		rep, err := exp.Run(Options{})
		if err != nil {
			t.Fatal(err)
		}
		out := rep.Render()
		if !strings.Contains(out, rep.Title) {
			t.Fatalf("%s render missing title:\n%s", id, out)
		}
		csv := rep.CSV()
		if len(strings.Split(strings.TrimSpace(csv), "\n")) != len(rep.Rows)+1 {
			t.Fatalf("%s CSV row count wrong", id)
		}
	}
}

// coarse is a Scale at which every paper artifact runs in a few seconds.
const coarse = 131072

func runExp(t *testing.T, id string, opt Options) *Report {
	t.Helper()
	exp, ok := Lookup(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	rep, err := exp.Run(opt)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return rep
}

// TestPaperFigures executes all fourteen artifacts through one memo:
// each renders a table, no job fails, and only Spark runs out of memory.
func TestPaperFigures(t *testing.T) {
	opt := Options{Quick: true, Scale: coarse}.WithMemo()
	for _, id := range paperIDs {
		rep := runExp(t, id, opt)
		if len(rep.Columns) == 0 || len(rep.Rows) == 0 {
			t.Fatalf("%s rendered no table:\n%s", id, rep.Render())
		}
		for _, row := range rep.Rows {
			if len(row) != len(rep.Columns) {
				t.Fatalf("%s: row %v does not fit columns %v", id, row, rep.Columns)
			}
			for ci, cell := range row {
				switch {
				case cell == "" || cell == "FAIL":
					t.Errorf("%s: cell %q at %s / %s", id, cell, row[0], rep.Columns[ci])
				case cell == "OOM" && !strings.HasPrefix(rep.Columns[ci], "Spark") && row[0] != "Spark":
					t.Errorf("%s: OOM outside Spark at %s / %s", id, row[0], rep.Columns[ci])
				}
			}
		}
	}
}

// TestFig7MeasuresNothingNew: Figure 7 is a projection. After the figures
// that own its points have run in the same memo (full sweeps: it reads
// the 16 and 32 GB points), it measures no point of its own; alone, it
// measures them itself and renders the same table.
func TestFig7MeasuresNothingNew(t *testing.T) {
	// Only the point count matters here, so the data can be tiny.
	opt := Options{Scale: 8 * coarse}.WithMemo()
	for _, id := range []string{"fig3b", "fig3c", "fig3d", "fig4sort", "fig4wc", "fig5", "fig6a"} {
		runExp(t, id, opt)
	}
	before := len(opt.memo.cells)
	shared := runExp(t, "fig7", opt)
	if after := len(opt.memo.cells); after != before {
		t.Fatalf("fig7 measured %d new points after the figures that own them", after-before)
	}
	if alone := runExp(t, "fig7", Options{Scale: opt.Scale}); alone.Render() != shared.Render() {
		t.Fatalf("fig7 differs with and without a warm memo:\n%s%s", shared.Render(), alone.Render())
	}
}

// TestMemoMeasuresOnce: sweep workers asking for one point at the same
// time share a single run.
func TestMemoMeasuresOnce(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(8)
	var m memo
	p := point{wl: wlWordCount, gb: 0.125, rc: fig5.rc}.at(Options{Scale: coarse}, DataMPI)
	got, _ := sweep(8, func(int) (*measured, error) { return m.measure(p), nil })
	for _, g := range got {
		if g != got[0] || g.err != nil || g.secs <= 0 {
			t.Fatalf("workers got different or failed runs: %+v vs %+v", g, got[0])
		}
	}
	if len(m.cells) != 1 {
		t.Fatalf("memo holds %d cells for one point", len(m.cells))
	}
}

// TestFig5SmallJobsShape runs the cheapest timing experiment end-to-end
// and asserts the paper's qualitative result: DataMPI ≈ Spark ≪ Hadoop.
func TestFig5SmallJobsShape(t *testing.T) {
	exp, _ := Lookup("fig5")
	rep, err := exp.Run(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		h, s, d := atof(row[1]), atof(row[2]), atof(row[3])
		if !(d < h && s < h) {
			t.Fatalf("small job %s: Hadoop should be slowest: %v", row[0], row)
		}
		if d > 2.5*s {
			t.Fatalf("small job %s: DataMPI (%v) should be comparable to Spark (%v)", row[0], d, s)
		}
	}
}

// TestFig3bShape asserts the headline micro-benchmark shape at 8 GB:
// DataMPI < Spark ≈ Hadoop·0.8 < Hadoop, and Spark OOM at 64 GB.
func TestFig3bShape(t *testing.T) {
	exp, _ := Lookup("fig3b")
	rep, err := exp.Run(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	first := rep.Rows[0] // 8 GB
	h, s, d := atof(first[1]), atof(first[2]), atof(first[3])
	if d <= 0 || h <= 0 || s <= 0 {
		t.Fatalf("missing values in %v", first)
	}
	if !(d < s && s < h) {
		t.Fatalf("8GB ordering wrong: H=%v S=%v D=%v", h, s, d)
	}
	gain := 1 - d/h
	if gain < 0.25 || gain > 0.70 {
		t.Fatalf("DataMPI gain over Hadoop %.0f%%, want within the paper's band neighbourhood", gain*100)
	}
	last := rep.Rows[len(rep.Rows)-1] // 64 GB
	if last[2] != "OOM" {
		t.Fatalf("Spark should OOM at 64GB: %v", last)
	}
}

// TestStragglerRecoveryShape runs the straggler experiment in quick mode
// (Hadoop + DataMPI) and asserts the headline property: with one node 4x
// slow, speculative execution recovers at least 30% of the injected
// slowdown, and the runs are deterministic across invocations.
func TestStragglerRecoveryShape(t *testing.T) {
	exp, _ := Lookup("straggler")
	rep, err := exp.Run(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("quick mode rows = %d, want Hadoop and DataMPI", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		clean, slow, spec, rec := atof(row[1]), atof(row[2]), atof(row[3]), atof(row[4])
		if !(clean < spec && spec < slow) {
			t.Fatalf("%s: want Clean < Spec < Slow, got %v", row[0], row)
		}
		if rec < 30 {
			t.Fatalf("%s: speculation recovered %v%%, want >= 30%%", row[0], rec)
		}
	}
	rep2, err := exp.Run(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Rows {
		for j := range rep.Rows[i] {
			if rep.Rows[i][j] != rep2.Rows[i][j] {
				t.Fatalf("straggler runs not deterministic: %v vs %v", rep.Rows[i], rep2.Rows[i])
			}
		}
	}
}

// TestTenantsTraceShape runs the multi-tenant trace in quick mode and
// asserts the acceptance properties: at least 3 tenants and 20 Poisson
// arrivals, per-tenant p50/p95 response times in the table, a mid-trace
// perturbation on the timeline, and byte-identical determinism across
// runs.
func TestTenantsTraceShape(t *testing.T) {
	exp, ok := Lookup("tenants")
	if !ok {
		t.Fatal("tenants experiment not registered")
	}
	rep, err := exp.Run(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 3 {
		t.Fatalf("tenant rows = %d, want >= 3", len(rep.Rows))
	}
	jobs := 0.0
	for _, row := range rep.Rows {
		jobs += atof(row[2])
		p50, p95 := atof(row[3]), atof(row[4])
		if p50 <= 0 || p95 < p50 {
			t.Fatalf("tenant %s: implausible latency distribution p50=%v p95=%v", row[0], p50, p95)
		}
	}
	if jobs < 20 {
		t.Fatalf("trace ran %v jobs, want >= 20", jobs)
	}
	slowNoted, restoreNoted := false, false
	for _, n := range rep.Notes {
		if strings.Contains(n, "slow-node") {
			slowNoted = true
		}
		if strings.Contains(n, "restore-node") {
			restoreNoted = true
		}
	}
	if !slowNoted || !restoreNoted {
		t.Fatalf("timeline notes missing the mid-trace perturbation: %v", rep.Notes)
	}
	rep2, err := exp.Run(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Render() != rep2.Render() {
		t.Fatalf("tenants runs not byte-identical:\n--- first\n%s--- second\n%s", rep.Render(), rep2.Render())
	}
}

// TestFaultsweepShape runs the fault sweep in quick mode and asserts the
// acceptance properties: all three frameworks survive kills, rack
// failures and flaps with output byte-identical to their clean runs
// wherever replication permits, replication-1 rows terminate with
// accounted data loss instead of deadlocking, rejoin reconciliation shows
// up in the counters, and two runs render byte-identically (determinism).
func TestFaultsweepShape(t *testing.T) {
	exp, ok := Lookup("faultsweep")
	if !ok {
		t.Fatal("faultsweep experiment not registered")
	}
	rep, err := exp.Run(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// 3 frameworks x 2 kill times, plus 3 frameworks x 2 replication
	// factors x {rack, flap}.
	if len(rep.Rows) != 18 {
		t.Fatalf("quick rows = %d, want 6 kill + 12 correlated", len(rep.Rows))
	}
	fws := map[string]bool{}
	faults := map[string]bool{}
	sawCancelledOrPruned := false
	for _, row := range rep.Rows {
		fw, fault, repl := row[0], row[1], atof(row[2])
		fws[fw] = true
		faults[fault] = true
		clean, faulted := atof(row[4]), atof(row[5])
		if clean <= 0 || (faulted <= 0 && row[12] != "failed") {
			t.Fatalf("missing timings: %v", row)
		}
		lost := atof(row[11])
		switch {
		case repl == 1:
			// The fault is unsurvivable for the blocks it held: whether the
			// job rode out the outage or failed permanently, the loss must
			// be accounted and the run must have terminated.
			if lost == 0 {
				t.Fatalf("%s %s repl=1 reported no data loss: %v", fw, fault, row)
			}
			if out := row[12]; out != "ok" && out != "failed" {
				t.Fatalf("%s %s repl=1 output cell %q, want ok or failed: %v", fw, fault, out, row)
			}
		default:
			if row[12] != "ok" {
				t.Fatalf("%s %s repl=%.0f produced wrong output: %v", fw, fault, repl, row)
			}
			if lost != 0 {
				t.Fatalf("%s %s repl=%.0f lost data: %v", fw, fault, repl, row)
			}
		}
		if fault == "kill" && atof(row[8]) == 0 {
			t.Fatalf("%s kill: replication monitor restored no replicas: %v", fw, row)
		}
		if atof(row[9]) > 0 || atof(row[10]) > 0 {
			sawCancelledOrPruned = true
		}
	}
	if len(fws) != 3 {
		t.Fatalf("frameworks covered: %v, want all three", fws)
	}
	for _, f := range []string{"kill", "rack", "flap"} {
		if !faults[f] {
			t.Fatalf("fault shapes covered: %v, want kill+rack+flap", faults)
		}
	}
	if !sawCancelledOrPruned {
		t.Fatal("no row exercised rejoin reconciliation (cancelled repairs or pruned replicas)")
	}
	rep2, err := exp.Run(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Render() != rep2.Render() {
		t.Fatalf("faultsweep runs not byte-identical:\n--- first\n%s--- second\n%s", rep.Render(), rep2.Render())
	}
}

func atof(s string) float64 {
	var v float64
	for _, c := range s {
		if c < '0' || c > '9' {
			if c == '.' {
				continue
			}
			return v
		}
		v = v*10 + float64(c-'0')
	}
	return v
}

func TestReportRenderAlignment(t *testing.T) {
	rep := &Report{
		ID: "x", Title: "t",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333333", "4"}},
		Notes:   []string{"hello"},
	}
	out := rep.Render()
	if !strings.Contains(out, "note: hello") {
		t.Fatalf("notes missing:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 5 {
		t.Fatalf("render too short:\n%s", out)
	}
}
