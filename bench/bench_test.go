package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/datampi/datampi-go/internal/harness"
)

// TestCatalogue checks the names and counts against the driver's limits
// and that BENCHMARK.json is exactly what the catalogue renders.
func TestCatalogue(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range endToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Source != "probe" && m.Source != "run" && m.Source != "traced" {
			t.Errorf("%s: source %q", m.Name, m.Source)
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, manifest()) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: go run -C bench . -manifest > BENCHMARK.json")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for n := range seen {
		if !bytes.Contains(readme, []byte("`"+n+"`")) {
			t.Errorf("README.md does not document `%s`", n)
		}
	}
}

// TestListMatchesManifest: the names -list prints are the names in
// BENCHMARK.json.
func TestListMatchesManifest(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name string }
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(file, &doc); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, list := range [][]named{doc.Workloads, doc.EndToEnd, doc.PerLayer} {
		for _, e := range list {
			want[e.Name] = true
		}
	}
	got := map[string]bool{}
	for _, line := range strings.Split(listing(), "\n") {
		if strings.HasPrefix(line, "  ") {
			got[strings.Fields(line)[0]] = true
		}
	}
	for n := range want {
		if !got[n] {
			t.Errorf("-list does not print %s", n)
		}
	}
	for n := range got {
		if !want[n] {
			t.Errorf("-list prints %s, which BENCHMARK.json does not name", n)
		}
	}
}

// TestSimulatedSecondsMatchHarness: the benchmark measures the same jobs
// users run. On a quick subset at a coarse scale, the simulated seconds
// the benchmark obtains equal the cells the harness figures render.
func TestSimulatedSecondsMatchHarness(t *testing.T) {
	const scale, seed = 65536, 1
	for _, fig := range []struct{ id, kind string }{
		{"fig3b", kindTextSort}, {"fig3c", kindWordCount}, {"fig3d", kindGrep},
	} {
		exp, ok := harness.Lookup(fig.id)
		if !ok {
			t.Fatalf("harness has no %s", fig.id)
		}
		rep0, err := exp.Run(harness.Options{Scale: scale, Quick: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		r := &rep{rec: newRecorder(false), seed: seed, scale: scale}
		// Columns: Size(GB), Hadoop, Spark, DataMPI, ...
		for _, row := range rep0.Rows {
			var gb float64
			if _, err := fmt.Sscanf(row[0], "%g", &gb); err != nil {
				t.Fatal(err)
			}
			for col, fw := range []framework{hadoop, spark, datampiFW} {
				var patterns []string
				if fig.kind == kindGrep {
					patterns = []string{grepPaper}
				}
				r.microPoint(fig.id, fw, fig.kind, gb, patterns...)
				pt := r.points[len(r.points)-1]
				pt.run()
				got := fmt.Sprintf("%.0f", pt.figS)
				if pt.jobs[0].res.Err != nil {
					got = "OOM"
				}
				if want := strings.TrimSpace(row[1+col]); got != want {
					t.Errorf("%s %s: benchmark %s, harness %s", fig.id, pt.id, got, want)
				}
			}
		}
	}
}

// TestStubCompletes: the stub engine completes every job.
func TestStubCompletes(t *testing.T) {
	r := &rep{rec: newRecorder(false), seed: 1}
	r.stubPoint(300)
	pt := r.points[0]
	pt.run()
	if pt.ops != 300 || pt.fails != 0 {
		t.Fatalf("stub: %d jobs, %d failed, want 300 and 0", pt.ops, pt.fails)
	}
	if r.sched.tracker.Tasks != 300*stubTasksPerJob {
		t.Fatalf("stub: %d tasks, want %d", r.sched.tracker.Tasks, 300*stubTasksPerJob)
	}
}

// TestPaperScoring pins the two scoring rules.
func TestPaperScoring(t *testing.T) {
	refs := []paperRef{
		{ID: "abs", Exp: "x", Kind: "seconds", Of: "Hadoop", GB: 8, Seconds: 100},
		{ID: "range", Exp: "x", Kind: "gain", Of: "DataMPI", Over: "Hadoop", Agg: "each", Lo: 30, Hi: 40},
	}
	points := []*point{
		{exp: "x", fw: "Hadoop", gb: 8, figS: 110},
		{exp: "x", fw: "DataMPI", gb: 8, figS: 55}, // 50% gain: 10 points past the range
	}
	scores := scorePaper(refs, points)
	if len(scores) != 2 || scores[0].Err != 10 || scores[1].Err != 10 {
		t.Fatalf("scores %+v, want two errors of 10", scores)
	}
	if got := paperErrPct(scores); got != 10 {
		t.Fatalf("paper_err_pct %v, want 10", got)
	}
}
