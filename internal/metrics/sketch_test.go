package metrics

import (
	"math"
	"sort"
	"testing"
)

// sketchLCG is a tiny deterministic generator so the adversarial
// distributions below are reproducible without math/rand.
type sketchLCG uint64

func (r *sketchLCG) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64(*r>>11) / float64(1<<53)
}

// TestSketchExactRegimeMatchesNewDist pins the small-stream guarantee
// scenario reports rely on: at or below the exact-buffer size the
// sketch's Dist is bit-identical to NewDist on the same values.
func TestSketchExactRegimeMatchesNewDist(t *testing.T) {
	r := sketchLCG(42)
	var xs []float64
	var s Sketch
	for i := 0; i < sketchExactMax; i++ {
		x := r.next() * 1000
		xs = append(xs, x)
		s.Add(x)
		if got, want := s.Dist(), NewDist(xs); got != want {
			t.Fatalf("n=%d: sketch %+v != exact %+v", i+1, got, want)
		}
	}
}

// sketchRelErr compares a sketched percentile against the exact
// nearest-rank value over the sorted samples.
func sketchRelErr(t *testing.T, got float64, sorted []float64, p float64) float64 {
	t.Helper()
	want := sorted[nearestRank(p, len(sorted))]
	if want == 0 {
		if got != 0 {
			t.Fatalf("p%v: got %v, want 0", p*100, got)
		}
		return 0
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestSketchAccuracyAdversarial bounds the sketched percentile error on
// distributions built to stress a log-binned histogram: heavy-tailed
// (10 orders of magnitude of spread), bimodal with the mass split just
// around a percentile boundary, near-constant streams (every value in
// one bin), and streams with many exact zeros.
func TestSketchAccuracyAdversarial(t *testing.T) {
	// The bin guarantee is (gamma-1)/(gamma+1) on the value; the
	// nearest-rank comparison adds nothing for continuous streams, so
	// 2% leaves headroom over the ~1% design point.
	const tol = 0.02
	cases := []struct {
		name string
		gen  func(r *sketchLCG, i, n int) float64
	}{
		{"heavy-tail", func(r *sketchLCG, i, n int) float64 {
			return math.Pow(10, r.next()*10-4) // 1e-4 .. 1e6
		}},
		{"bimodal-split", func(r *sketchLCG, i, n int) float64 {
			// ~50.5% low mode / 49.5% high mode: p50 sits at the cliff.
			if r.next() < 0.505 {
				return 1 + r.next()*0.01
			}
			return 1000 + r.next()*10
		}},
		{"near-constant", func(r *sketchLCG, i, n int) float64 {
			return 3.14159 + r.next()*1e-9
		}},
		{"zero-heavy", func(r *sketchLCG, i, n int) float64 {
			if r.next() < 0.3 {
				return 0
			}
			return r.next() * 100
		}},
		{"sorted-ascending", func(r *sketchLCG, i, n int) float64 {
			return float64(i + 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 20000
			r := sketchLCG(7)
			var s Sketch
			xs := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				x := tc.gen(&r, i, n)
				xs = append(xs, x)
				s.Add(x)
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			d := s.Dist()
			if d.N != n {
				t.Fatalf("N = %d, want %d", d.N, n)
			}
			if d.Min != sorted[0] || d.Max != sorted[n-1] {
				t.Fatalf("extremes not exact: min %v/%v max %v/%v", d.Min, sorted[0], d.Max, sorted[n-1])
			}
			exactMean := 0.0
			for _, x := range xs {
				exactMean += x
			}
			exactMean /= n
			if math.Abs(d.Mean-exactMean) > 1e-9*math.Abs(exactMean) {
				t.Fatalf("mean not exact: %v vs %v", d.Mean, exactMean)
			}
			if e := sketchRelErr(t, d.P50, sorted, 0.50); e > tol {
				t.Fatalf("p50 relative error %.4f > %.2f (got %v, exact %v)",
					e, tol, d.P50, sorted[nearestRank(0.50, n)])
			}
			if e := sketchRelErr(t, d.P95, sorted, 0.95); e > tol {
				t.Fatalf("p95 relative error %.4f > %.2f (got %v, exact %v)",
					e, tol, d.P95, sorted[nearestRank(0.95, n)])
			}
		})
	}
}

// TestSketchConstantSpace verifies the bin count stays bounded no
// matter how long the stream runs — the point of the sketch.
func TestSketchConstantSpace(t *testing.T) {
	r := sketchLCG(3)
	var s Sketch
	for i := 0; i < 500000; i++ {
		s.Add(math.Pow(10, r.next()*12-6)) // 1e-6 .. 1e6, 12 decades
	}
	if s.exact != nil {
		t.Fatal("stream of 500k values still buffered exactly")
	}
	// 12 decades at gamma=1.02: ~ln(1e12)/ln(1.02) ≈ 1396 bins max.
	if len(s.bins) > 1500 {
		t.Fatalf("bin count %d not constant-space", len(s.bins))
	}
	if s.N() != 500000 {
		t.Fatalf("N = %d", s.N())
	}
}
