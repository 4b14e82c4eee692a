package bdb

import (
	"math"
	"math/rand"
	"testing"
)

// zipfGrid is the parameter grid the table is held to the standard
// library on: the seed models' skews, one close to 1 (where hinv's
// exponent, and with it the float error, is largest) and two steep ones,
// over vocabularies from two words to ten times the models'.
var zipfGrid = struct {
	s    []float64
	imax []uint64
}{
	s:    []float64{1.01, 1.05, 1.07, 1.5, 2.5},
	imax: []uint64{1, 99, 9999, 99999},
}

// checkTableMatchesStdlib draws n variates from the table and from
// rand.Zipf over two streams of one seed and requires equal values and,
// afterwards, streams at the same position.
func checkTableMatchesStdlib(t *testing.T, z *zipfTable, seed int64, n int) {
	t.Helper()
	got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	std := rand.NewZipf(want, z.q, z.v, uint64(z.imax))
	for i := range n {
		if g, w := z.draw(got), std.Uint64(); g != w {
			t.Fatalf("s=%v imax=%v seed %d: draw %d is %d, rand.Zipf drew %d", z.q, z.imax, seed, i, g, w)
		}
	}
	if got.Int63() != want.Int63() {
		t.Fatalf("s=%v imax=%v seed %d: after %d equal draws the streams are at different positions", z.q, z.imax, seed, n)
	}
}

// TestZipfTableMatchesStdlib: a million draws per grid cell, over twenty
// seeds, equal rand.Zipf's value for value and draw for draw.
func TestZipfTableMatchesStdlib(t *testing.T) {
	for _, s := range zipfGrid.s {
		for _, imax := range zipfGrid.imax {
			z := newZipfTable(s, 1, imax)
			for seed := int64(1); seed <= 20; seed++ {
				checkTableMatchesStdlib(t, z, seed, 50_000)
			}
		}
	}
}

// stdSampler is Sampler as it was: rand.Zipf behind the signature band.
type stdSampler struct {
	m    *SeedModel
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newStdSampler(m *SeedModel, seed int64) *stdSampler {
	rng := rand.New(rand.NewSource(seed))
	return &stdSampler{m: m, rng: rng, zipf: rand.NewZipf(rng, m.ZipfS, 1, uint64(m.Vocab-1))}
}

func (s *stdSampler) NextWordIndex() int {
	if s.m.SigLen > 0 && s.rng.Float64() < s.m.SigWeight {
		return s.m.SigStart + s.rng.Intn(s.m.SigLen)
	}
	return int(s.zipf.Uint64())
}

// TestSamplerMatchesStdlib runs every seed model's sampler — signature
// band and shared table — against the rand.Zipf one.
func TestSamplerMatchesStdlib(t *testing.T) {
	models := []*SeedModel{LDAWiki1W()}
	for n := 1; n <= 5; n++ {
		models = append(models, Amazon(n))
	}
	for _, m := range models {
		for seed := int64(1); seed <= 20; seed++ {
			got, want := m.NewSampler(seed), newStdSampler(m, seed)
			for i := range 50_000 {
				if g, w := got.NextWordIndex(), want.NextWordIndex(); g != w {
					t.Fatalf("%s seed %d: word %d is %d, the rand.Zipf sampler drew %d", m.Name, seed, i, g, w)
				}
			}
			if got.rng.Int63() != want.rng.Int63() {
				t.Fatalf("%s seed %d: streams at different positions", m.Name, seed)
			}
		}
	}
}

// scriptedSource replays r values: rng.Float64() is float64(Int63()) /
// 2^63, so Int63 returns r * 2^63. used counts the values taken.
type scriptedSource struct {
	script []float64
	used   int
}

func (s *scriptedSource) Int63() int64 {
	r := s.script[s.used%len(s.script)]
	s.used++
	return int64(r * (1 << 63))
}

func (s *scriptedSource) Seed(int64) {}

// TestZipfTableEdges feeds both samplers the r at every edge of every
// table of the grid, and r one ulp, 2^10 ulps, half a guard band, one and
// two guard bands to either side of it, each followed by an r that is
// always accepted. The same value from the same number of r says the
// attempt at the probed r had the same outcome — accepted with that k, or
// rejected — in the table and in the standard library's loop. This is
// the test that fails if the guard band is too narrow for the float error
// of the architecture it runs on; it also checks that the bands are where
// the edges are (the edge's own r is never decided by the table, two
// bands away always is).
func TestZipfTableEdges(t *testing.T) {
	for _, s := range zipfGrid.s {
		for _, imax := range zipfGrid.imax {
			z := newZipfTable(s, 1, imax)
			tableSrc, stdSrc := &scriptedSource{}, &scriptedSource{}
			tableRng := rand.New(tableSrc)
			std := rand.NewZipf(rand.New(stdSrc), s, 1, imax)
			// r = 1/2 lies well inside a low k's accept run.
			const accepted = 0.5
			probe := func(r float64) (decided bool) {
				r = min(max(r, 0), 1-1.0/(1<<53))
				script := []float64{r, accepted}
				tableSrc.script, tableSrc.used = script, 0
				stdSrc.script, stdSrc.used = script, 0
				got, want := z.draw(tableRng), std.Uint64()
				if got != want || tableSrc.used != stdSrc.used {
					t.Fatalf("s=%v imax=%d r=%v: table drew %d from %d r, rand.Zipf %d from %d",
						s, imax, r, got, tableSrc.used, want, stdSrc.used)
				}
				r = float64(int64(r*(1<<63))) / (1 << 63) // as Float64 returned it
				return z.run(r, z.hxm+r*z.hx0minusHxm) >= 0
			}
			if probe(accepted); stdSrc.used != 1 {
				t.Fatalf("s=%v imax=%d: r = 1/2 is not accepted at once", s, imax)
			}
			probe(1)
			fallThroughs, budget := 0, 0
			for i, run := range z.runs {
				// The edge above run i sits one band above run.hi; ur falls
				// from hxm by |hx0minusHxm| per unit of r.
				bandUr := zipfGuard * z.kWidth(i)
				edge := (run.hi + bandUr - z.hxm) / z.hx0minusHxm
				band := bandUr / -z.hx0minusHxm
				ulp := math.Nextafter(edge, 2) - edge
				// Where a steep tail crowds many runs into one guide bucket a
				// probe scans them all: every edge earns 16 runs of scanning,
				// to a balance of 4096, and is probed when that pays for it.
				budget = min(budget+16, 4096)
				scan := i - int(z.guide[int(min(edge, 0.99)*float64(len(z.guide)))])
				if scan > budget {
					continue
				}
				budget -= scan
				for _, d := range []float64{0, ulp, -ulp} {
					if !probe(edge + d) {
						fallThroughs++
					} else if band > 16*ulp && edge < 1 {
						// Decided only where the band is narrower than the
						// spacing of r (steep s, far tail) or the edge is out
						// of reach (under k = 0's accept run, past r = 1).
						t.Fatalf("s=%v imax=%d run %d: r %v from its upper edge is decided by the table", s, imax, i, d)
					}
				}
				for _, d := range []float64{1024 * ulp, band / 2, band, 2*band + 8*ulp} {
					probe(edge - d)
					probe(edge + d)
				}
				// Two bands below the edge is inside run i, unless the run is
				// narrower than that (a reject run clamped to nothing).
				if run.hi-bandUr+8*ulp*z.hx0minusHxm > run.lo && !probe(edge+2*band+8*ulp) {
					t.Fatalf("s=%v imax=%d run %d: two guard bands inside the run is not decided by the table", s, imax, i)
				}
			}
			if fallThroughs == 0 {
				t.Fatalf("s=%v imax=%d: no probe reached the standard library's loop body", s, imax)
			}
		}
	}
}

// kWidth is the width in ur of the interval of the k that run i belongs
// to, recomputed as newZipfTable computes it.
func (z *zipfTable) kWidth(i int) float64 {
	k := float64((len(z.runs) - 2 - i&^1) / 2)
	return z.h(k+0.5) - z.h(k-0.5)
}

// FuzzZipfTableMatchesStdlib differences the table against rand.Zipf at
// any skew from 1.01 to 4 and any vocabulary up to 2^17 words.
func FuzzZipfTableMatchesStdlib(f *testing.F) {
	f.Add(int64(1), 1.07, uint64(9999))
	f.Add(int64(29), 1.05, uint64(9999))
	f.Add(int64(7), 1.01, uint64(1<<17))
	f.Add(int64(3), 4.0, uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, s float64, imax uint64) {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Skip("no such skew")
		}
		s = 1.01 + math.Mod(math.Abs(s), 2.99)
		imax %= 1<<17 + 1
		checkTableMatchesStdlib(t, newZipfTable(s, 1, imax), seed, 20_000)
	})
}
