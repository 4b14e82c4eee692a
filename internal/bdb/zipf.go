package bdb

import (
	"math"
	"math/rand"
	"sync"
)

// zipfTable draws exactly what math/rand.Zipf draws — the same value
// from the same number of rng.Float64 calls — without its two or three
// exp/log pairs per attempt.
//
// rand.Zipf is Hörmann and Derflinger's rejection-inversion: one attempt
// maps a uniform r to ur = hxm + r*hx0minusHxm, inverts it to x, rounds x
// to k, and accepts k when x sits in the top part of k's interval or ur
// passes a second test. For one (s, v, imax) the outcome of an attempt is
// therefore a step function of ur: walking down from hxm, an accept run
// and then a reject run for k = imax, the same for imax-1, and so on to
// 0. The table holds those 2*(imax+1) runs and a guide from the top bits
// of r to the first run its bucket can reach; an attempt is one Float64,
// one multiply-add and a short forward scan.
//
// The edges between runs come from the same h and hinv expressions, but
// where the standard library's floating-point result actually flips is
// only known to a few ulps of ur. Each run therefore claims its interval
// less a guard band at both ends, 2^-20 of that k's interval wide (the
// float error is near 2^-36 of it for the seed models and stays below
// 2^-29 over the parameter grid the tests cover), and an attempt that
// lands in a band is decided by the standard library's loop body, copied
// below verbatim.
type zipfTable struct {
	// rand.Zipf's fields, computed as NewZipf computes them.
	imax         float64
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64

	// runs[2*j] is the accept run of k = imax-j and runs[2*j+1] its reject
	// run, in descending ur. A run decides ur when lo < ur < hi.
	runs []zipfRun
	// guide[t] is the first run with lo below the largest ur of bucket t,
	// the r in [t, t+1) / len(guide). len(guide) is a power of two.
	guide []int32
}

type zipfRun struct{ lo, hi float64 }

// zipfGuard is the guard band as a fraction of k's interval in ur.
const zipfGuard = 1.0 / (1 << 20)

func (z *zipfTable) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipfTable) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// newZipfTable builds the table for math/rand's NewZipf(_, s, v, imax).
// Requirements as there: s > 1 and v >= 1.
func newZipfTable(s, v float64, imax uint64) *zipfTable {
	z := &zipfTable{imax: float64(imax), v: v, q: s}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))

	n := int(imax) + 1
	z.runs = make([]zipfRun, 2*n)
	top := z.hxm // h(k+0.5), the upper end of k's interval
	for j := range n {
		k := z.imax - float64(j)
		// Accepted at and above the lower of the two tests' thresholds:
		// x >= k-s, or ur >= h(k+0.5) - (k+v)^-q.
		accept := min(z.h(k-z.s), top-math.Exp(-math.Log(k+z.v)*z.q))
		bottom := z.h(k - 0.5)
		band := zipfGuard * (top - bottom)
		if j < n-1 {
			accept = max(accept, bottom)
		} else {
			bottom = math.Inf(-1) // nothing lies under k = 0
		}
		z.runs[2*j] = zipfRun{lo: accept + band, hi: top - band}
		z.runs[2*j+1] = zipfRun{lo: bottom + band, hi: accept - band}
		top = bottom
	}

	// About one bucket per run: the tail of the distribution, where a
	// bucket spans the most runs, then scans a handful.
	buckets := 1
	for buckets < len(z.runs) {
		buckets <<= 1
	}
	z.guide = make([]int32, buckets)
	i := 0
	for t := range z.guide {
		// ur falls as r grows, so the first run below a bucket's smallest
		// r is at or before the first run below any of its r.
		r := float64(t) / float64(buckets)
		ur := z.hxm + r*z.hx0minusHxm
		for ur <= z.runs[i].lo {
			i++
		}
		z.guide[t] = int32(i)
	}
	return z
}

// run returns the index of the run that decides the attempt (r, ur), or
// -1 when ur lies in a guard band.
func (z *zipfTable) run(r, ur float64) int {
	i := int(z.guide[int(r*float64(len(z.guide)))])
	for ur <= z.runs[i].lo {
		i++
	}
	if ur < z.runs[i].hi {
		return i
	}
	return -1
}

// draw returns the next variate, consuming rng as rand.Zipf.Uint64 does.
func (z *zipfTable) draw(rng *rand.Rand) uint64 {
	for {
		r := rng.Float64() // r on [0,1]
		ur := z.hxm + r*z.hx0minusHxm
		if i := z.run(r, ur); i >= 0 {
			if i&1 == 0 {
				return uint64(len(z.runs)-2-i) / 2
			}
			continue
		}
		// In a guard band: the rest of rand.Zipf.Uint64's loop body.
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s {
			return uint64(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}

// zipfTables holds one immutable table per parameter set, built on first
// use: about 1 ms and 0.4 MB at the seed models' 10,000 words.
var zipfTables sync.Map // zipfKey -> *zipfTable

type zipfKey struct {
	s    float64
	imax uint64
}

// zipfTableFor returns the shared table for NewZipf(_, s, 1, imax).
func zipfTableFor(s float64, imax uint64) *zipfTable {
	key := zipfKey{s, imax}
	if z, ok := zipfTables.Load(key); ok {
		return z.(*zipfTable)
	}
	z, _ := zipfTables.LoadOrStore(key, newZipfTable(s, 1, imax))
	return z.(*zipfTable)
}
