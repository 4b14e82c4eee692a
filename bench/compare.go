package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readResult(path string) (resultFile, error) {
	var doc resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// verdict classifies one end-to-end metric of b against baseline a. All
// end-to-end metrics are lower-is-better. A change within the bound (or
// under the metric's absolute floor) is "same"; when either side's own
// min-max spread exceeds the bound the comparison cannot resolve a
// change of that size and is "unresolved", never "same".
func verdict(m metric, a, b stat) string {
	if a.N == 0 || b.N == 0 || a.Median <= 0 {
		return "unresolved"
	}
	delta := b.Median - a.Median
	tol := math.Max(m.Bound*a.Median, m.Floor)
	noisy := func(s stat) bool { return s.Max-s.Min > math.Max(m.Bound*s.Median, m.Floor) }
	switch {
	case math.Abs(delta) <= tol:
		if noisy(a) || noisy(b) {
			return "unresolved"
		}
		return "same"
	case delta > 0:
		return "worse"
	default:
		return "better"
	}
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the delta, the bound and the verdict, and whether the simulated
// statistics are identical. It returns the process exit code: non-zero
// on any "worse" or on a higher failed share.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "warning: seeds differ (%d vs %d): simulated statistics are not comparable\n", a.Seed, b.Seed)
	}
	byName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Workload] = wr
	}
	code := 0
	fmt.Fprintf(w, "%-13s %-14s %12s %12s %9s %7s  %s\n", "workload", "metric", "a median", "b median", "delta", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Workload]
		if !ok {
			fmt.Fprintf(w, "%-13s missing from %s\n", wa.Workload, pathB)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			v := verdict(m, sa, sb)
			if v == "worse" {
				code = 1
			}
			pct := 0.0
			if sa.Median != 0 {
				pct = (sb.Median/sa.Median - 1) * 100
			}
			fmt.Fprintf(w, "%-13s %-14s %12.4f %12.4f %+8.2f%% %6.0f%%  %s\n",
				wa.Workload, m.Name, sa.Median, sb.Median, pct, m.Bound*100, v)
		}
		digest := "equal"
		if wa.SimDigest != wb.SimDigest {
			digest = "DIFFERENT"
		}
		shareA := float64(wa.Failed) / math.Max(1, float64(wa.Attempted))
		shareB := float64(wb.Failed) / math.Max(1, float64(wb.Attempted))
		fmt.Fprintf(w, "%-13s sim_digest %s; failed %d/%d vs %d/%d\n",
			wa.Workload, digest, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		if shareB > shareA {
			code = 1
		}
		// Exact per-layer metrics: anything on the sim clock or counted.
		for _, m := range perLayer {
			if m.Clock == "host" || wa.Layer == nil || wb.Layer == nil {
				continue
			}
			x, y := wa.Layer[m.Name], wb.Layer[m.Name]
			if x == y {
				continue
			}
			note := ""
			if m.Floor > 0 && y-x > m.Floor {
				note = fmt.Sprintf(" -- worse by more than %g %s", m.Floor, m.Unit)
				code = 1
			}
			fmt.Fprintf(w, "%-13s %s (%s clock) differs: %v vs %v%s\n", wa.Workload, m.Name, m.Clock, x, y, note)
		}
	}
	return code
}
