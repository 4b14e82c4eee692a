package sched

import (
	"math/rand"
	"sort"
	"testing"
)

// median returns the lower-middle element of xs by sorting a copy — the
// reference runningMedian is checked against.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// TestRunningMedianMatchesReference pins the sorted-slice running median
// to a sort-based reference: after every add, for both parities, the
// values must be exactly equal (same lower-middle element, no float
// drift — the slice only moves samples, never combines them).
func TestRunningMedianMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		var m runningMedian
		xs := make([]float64, 0, 257)
		n := 1 + rng.Intn(256)
		for i := 0; i < n; i++ {
			var x float64
			switch rng.Intn(4) {
			case 0:
				x = rng.Float64()
			case 1:
				x = float64(rng.Intn(8)) // force duplicates
			case 2:
				x = -rng.Float64() * 100
			default:
				x = rng.NormFloat64() * 1e6
			}
			m.add(x)
			xs = append(xs, x)
			want := median(xs)
			if got := m.median(); got != want {
				t.Fatalf("trial %d after %d adds: runningMedian %v != reference %v",
					trial, len(xs), got, want)
			}
			if m.n() != len(xs) {
				t.Fatalf("n() = %d, want %d", m.n(), len(xs))
			}
		}
	}
}
