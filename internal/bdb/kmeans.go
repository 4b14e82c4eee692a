package bdb

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"github.com/datampi/datampi-go/internal/core"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/rdd"
)

// KMeansDim is the term-space dimensionality (the seed models' vocabulary).
const KMeansDim = 10000

// KMeansResult reports a K-means training run.
type KMeansResult struct {
	Centroids  [][]float64
	Iterations int
	IterTimes  []float64 // per-iteration durations
	FirstIter  float64   // iteration 1 including input load — the paper's metric
	Elapsed    float64
	Err        error
}

// InitialCentroids picks the first k parsed vectors as starting centroids
// (deterministic, data-driven — Mahout's canopy-less default is similar).
func InitialCentroids(in *dfs.File, k int) ([][]float64, error) {
	cents := make([][]float64, 0, k)
	var v SparseVec
	for _, blk := range in.Blocks {
		for line := range bytes.Lines(blk.Data) { // lazy: stops after k lines
			if line = bytes.TrimSuffix(line, []byte("\n")); len(line) == 0 {
				continue
			}
			if _, err := v.parseTerms(line); err != nil {
				return nil, err
			}
			if cents = append(cents, v.dense()); len(cents) == k {
				return cents, nil
			}
		}
	}
	return nil, fmt.Errorf("bdb: input has fewer than %d vectors", k)
}

// parseTerms is parse for K-means input and partial sums: an index the
// KMeansDim-wide dense centroids and sums cannot hold makes the vector
// malformed too (parse already rejected negative ones). Every vector the
// kernels add or expand has passed it.
func (v *SparseVec) parseTerms(line []byte) (verbatim bool, err error) {
	if verbatim, err = v.parse(line); err != nil {
		return false, err
	}
	for _, idx := range v.Idx {
		if idx >= KMeansDim {
			return false, fmt.Errorf("bdb: index %d outside the %d-term space", idx, KMeansDim)
		}
	}
	return verbatim, nil
}

// dense expands a parseTerms vector into a fresh dense centroid.
func (v SparseVec) dense() []float64 {
	c := make([]float64, KMeansDim)
	v.AddTo(c)
	return c
}

func norm2(c []float64) float64 {
	s := 0.0
	for _, x := range c {
		s += x * x
	}
	return s
}

func norms2(cents [][]float64) []float64 {
	norms := make([]float64, len(cents))
	for i := range cents {
		norms[i] = norm2(cents[i])
	}
	return norms
}

// NearestCentroid returns the index of the closest centroid.
func NearestCentroid(v SparseVec, cents [][]float64, norms []float64) int {
	best, bestD := 0, math.Inf(1)
	for ci := range cents {
		d := v.DistanceSq(cents[ci], norms[ci])
		if d < bestD {
			best, bestD = ci, d
		}
	}
	return best
}

// partialSum is the one accumulator behind every K-means kernel: a
// cluster's partial sum held dense, plus a bitmap of the slots it
// touched, so adding a ~70-term vector costs O(terms) and encoding the
// sum walks the touched slots in index order, a bitmap word at a time,
// with no sort. It carries the kernels' parse target and encode buffers
// too. Accumulators live in partialPool; a kernel call takes what it
// needs and puts it back, empty, before it returns — per call and not
// per job, because a Map that is emitting may re-enter the combiner
// through a collector spill.
type partialSum struct {
	sum      []float64 // KMeansDim wide, zero outside the touched slots
	touched  []uint64  // bit i%64 of word i/64: slot i was added to (its sum may have cancelled to 0 since)
	vec      SparseVec // parse target
	key, buf []byte    // encode scratch, handed to emit
}

var partialPool = sync.Pool{New: func() any {
	return &partialSum{sum: make([]float64, KMeansDim), touched: make([]uint64, (KMeansDim+63)/64)}
}}

// partialSep separates the count from the vector in "count|idx:val ...".
var partialSep = []byte{'|'}

// add accumulates v, which has passed parseTerms, in v's order (the order
// the dense AddTo used, so sums round the same way).
func (p *partialSum) add(v SparseVec) {
	for i, idx := range v.Idx {
		p.touched[idx/64] |= 1 << (idx % 64)
		p.sum[idx] += v.Val[i]
	}
}

// addPartials decodes and accumulates "count|idx:val ..." values,
// skipping malformed ones whole, and returns the summed counts.
func (p *partialSum) addPartials(values [][]byte) (total int64) {
	for _, val := range values {
		count, vec, ok := bytes.Cut(val, partialSep)
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(string(count), 10, 64)
		if err != nil {
			continue
		}
		if _, err := p.vec.parseTerms(vec); err != nil {
			continue
		}
		total += n
		p.add(p.vec)
	}
	return total
}

// divide turns the sum into a mean, over exactly the slots add touched.
func (p *partialSum) divide(n int64) {
	for w, word := range p.touched {
		for ; word != 0; word &= word - 1 {
			p.sum[w*64+bits.TrailingZeros64(word)] /= float64(n)
		}
	}
}

// encode renders the partial sum as "count|idx:val ..." — indices
// ascending, %.6g values, sums that are exactly 0 dropped — and empties
// the accumulator. The result is p's own buffer, valid until p is used
// again: emit copies it; a combiner or reducer, whose result is
// retained, must clone it.
func (p *partialSum) encode(n int64) []byte {
	dst := append(strconv.AppendInt(p.buf[:0], n, 10), partialSep...)
	head := len(dst)
	for w, word := range p.touched {
		for ; word != 0; word &= word - 1 {
			idx := w*64 + bits.TrailingZeros64(word)
			if x := p.sum[idx]; x != 0 {
				if len(dst) > head {
					dst = append(dst, ' ')
				}
				dst = appendComponent(dst, int32(idx), x, 6)
			}
			p.sum[idx] = 0
		}
	}
	clear(p.touched)
	p.buf = dst
	return dst
}

// emitPartial emits cluster ci's partial sum from p's own buffers.
func (p *partialSum) emitPartial(ci int, n int64, emit job.Emit) {
	p.key = strconv.AppendInt(p.key[:0], int64(ci), 10)
	emit(p.key, p.encode(n))
}

// kmeansCombine sums partial sums per cluster (the Mahout combiner).
func kmeansCombine(key []byte, values [][]byte) [][]byte {
	p := partialPool.Get().(*partialSum)
	defer partialPool.Put(p)
	total := p.addPartials(values)
	return [][]byte{bytes.Clone(p.encode(total))}
}

// kmeansReduce computes the new centroid from the cluster's partials.
func kmeansReduce(key []byte, values [][]byte) []kv.Pair {
	p := partialPool.Get().(*partialSum)
	defer partialPool.Put(p)
	total := p.addPartials(values)
	if total > 0 {
		p.divide(total)
	}
	return []kv.Pair{{Key: key, Value: bytes.Clone(p.encode(total))}}
}

// kmeansAssign is the assign step of one Lloyd iteration as a map
// function: each input vector becomes (nearest cluster, "1|vector"). A
// verbatim line (see parse) is already the encoded vector and is emitted
// as it is.
func kmeansAssign(cents [][]float64, norms []float64) job.MapFunc {
	return func(key, value []byte, emit job.Emit) {
		p := partialPool.Get().(*partialSum)
		defer partialPool.Put(p)
		verbatim, err := p.vec.parseTerms(value)
		if err != nil || len(p.vec.Idx) == 0 {
			return
		}
		ci := NearestCentroid(p.vec, cents, norms)
		if !verbatim {
			p.add(p.vec)
			p.emitPartial(ci, 1, emit)
			return
		}
		p.key = strconv.AppendInt(p.key[:0], int64(ci), 10)
		p.buf = append(append(p.buf[:0], '1', '|'), value...)
		emit(p.key, p.buf)
	}
}

// kmeansIterSpec builds one Lloyd iteration as a MapReduce job against
// the current centroids — exactly Mahout's per-iteration job shape.
func kmeansIterSpec(fsys *dfs.FS, in *dfs.File, out string, reducers int, cents [][]float64) job.Spec {
	return job.Spec{
		Name: "KMeansIter", FS: fsys, Input: in, InputFormat: job.Text,
		Output: out, Reducers: reducers,
		Map:          kmeansAssign(cents, norms2(cents)),
		Combine:      kmeansCombine,
		Reduce:       kmeansReduce,
		MapCPUFactor: KMeansCPUFactor,
	}
}

// nextCentroids turns one iteration's reduce output into the next dense
// centroids — an empty cluster keeps its previous centroid — and reports
// how far they moved.
func nextCentroids(prev [][]float64, reduced []kv.Pair) ([][]float64, float64, error) {
	next := slices.Clone(prev) // centroids are never written after they are built
	var v SparseVec
	for _, r := range reduced {
		ci, err := strconv.Atoi(string(r.Key))
		if err != nil || ci < 0 || ci >= len(next) {
			continue
		}
		_, vec, ok := bytes.Cut(r.Value, partialSep)
		if !ok {
			return nil, 0, fmt.Errorf("bdb: bad partial %q", r.Value)
		}
		if _, err := v.parseTerms(vec); err != nil {
			return nil, 0, err
		}
		next[ci] = v.dense()
	}
	return next, centroidShift(prev, next), nil
}

func centroidShift(a, b [][]float64) float64 {
	s := 0.0
	for i := range a {
		for j := range a[i] {
			d := a[i][j] - b[i][j]
			s += d * d
		}
	}
	return math.Sqrt(s)
}

// KMeansMR trains K-means by running one MapReduce job per iteration on
// any job.Engine — how Mahout drives Hadoop, and how DataMPI's
// Common-mode port of the "Mahout actuating logic" works (Section 4.6).
func KMeansMR(eng job.Engine, fsys *dfs.FS, in *dfs.File, outPrefix string,
	k, reducers, maxIter int, epsilon float64) KMeansResult {
	return kmeansLoop(fsys, in, k, maxIter, epsilon, func(iter int, cents [][]float64) ([]kv.Pair, job.Result) {
		out := fmt.Sprintf("%s/clusters-%d", outPrefix, iter)
		jr := eng.Run(kmeansIterSpec(fsys, in, out, reducers, cents))
		if jr.Err != nil {
			return nil, jr
		}
		return job.ReadTextOutput(fsys, out), jr
	})
}

// KMeansSpark trains K-means on the RDD engine with the input vectors
// cached in memory after the first pass — Spark's headline iterative
// advantage ("outstanding performance ... after caching the data in the
// RDDs", Section 4.6). Each iteration is KMeansMR's job, collected.
func KMeansSpark(e *rdd.Engine, in *dfs.File, k, reducers, maxIter int, epsilon float64) KMeansResult {
	e.Cache(in)
	return kmeansLoop(e.FS, in, k, maxIter, epsilon, func(_ int, cents [][]float64) ([]kv.Pair, job.Result) {
		return e.Collect(kmeansIterSpec(e.FS, in, "", reducers, cents))
	})
}

// kmeansLoop runs Lloyd iterations from the first k vectors of in until
// the centroids move less than epsilon or maxIter ran: iterate runs
// iteration iter (from 1) against cents and returns its reduced partial
// sums and its job's result.
func kmeansLoop(fsys *dfs.FS, in *dfs.File, k, maxIter int, epsilon float64,
	iterate func(iter int, cents [][]float64) ([]kv.Pair, job.Result)) KMeansResult {
	var res KMeansResult
	cents, err := InitialCentroids(in, k)
	if err != nil {
		res.Err = err
		return res
	}
	clock := fsys.Cluster().Eng
	start := clock.Now()
	for iter := 1; iter <= maxIter; iter++ {
		reduced, jr := iterate(iter, cents)
		if jr.Err != nil {
			res.Err = jr.Err
			return res
		}
		res.IterTimes = append(res.IterTimes, jr.Elapsed)
		if iter == 1 {
			res.FirstIter = clock.Now() - start
		}
		next, shift, err := nextCentroids(cents, reduced)
		if err != nil {
			res.Err = err
			return res
		}
		cents = next
		res.Iterations = iter
		if shift < epsilon {
			break
		}
	}
	res.Centroids = cents
	res.Elapsed = clock.Now() - start
	return res
}

// kmState is the broadcastable DataMPI iteration state.
type kmState struct {
	cents [][]float64
	norms []float64
}

// vecBlock is one O task's cached vectors as one CSR block: vector i is
// idx[off[i]:off[i+1]] / val[off[i]:off[i+1]].
type vecBlock struct {
	idx []int32
	val []float64
	off []int
}

// KMeansDataMPI trains K-means in DataMPI's Iteration mode: vectors stay
// cached in the O tasks' memory, partial sums pipeline to A tasks each
// round, and the merged centroids broadcast back.
func KMeansDataMPI(e *core.Engine, in *dfs.File, k, maxIter int, epsilon float64) KMeansResult {
	var res KMeansResult
	cents, err := InitialCentroids(in, k)
	if err != nil {
		res.Err = err
		return res
	}
	var mergeErr error
	itJob := core.IterationJob[kmState]{
		Name: "KMeans", Input: in, InputFormat: job.Text,
		Rounds:     maxIter,
		CPUFactorO: KMeansCPUFactor,
		LoadO: func(records []kv.Pair) any {
			blk := &vecBlock{off: make([]int, 1, len(records)+1)}
			var v SparseVec
			for _, r := range records {
				if _, err := v.parseTerms(r.Value); err == nil && len(v.Idx) > 0 {
					blk.idx = append(blk.idx, v.Idx...)
					blk.val = append(blk.val, v.Val...)
					blk.off = append(blk.off, len(blk.idx))
				}
			}
			return blk
		},
		RunO: func(round int, st kmState, cached any, emit job.Emit) {
			blk := cached.(*vecBlock)
			accs := make([]*partialSum, k)
			for ci := range accs {
				accs[ci] = partialPool.Get().(*partialSum)
			}
			counts := make([]int64, k)
			for i, lo := range blk.off[:len(blk.off)-1] {
				v := SparseVec{Idx: blk.idx[lo:blk.off[i+1]], Val: blk.val[lo:blk.off[i+1]]}
				ci := NearestCentroid(v, st.cents, st.norms)
				accs[ci].add(v)
				counts[ci]++
			}
			for ci, p := range accs {
				if counts[ci] > 0 {
					p.emitPartial(ci, counts[ci], emit)
				}
				partialPool.Put(p)
			}
		},
		RunA: func(round int, grouped []kv.Pair) []kv.Pair {
			return kv.GroupReduce(grouped, kmeansReduce)
		},
		MergeState: func(round int, st kmState, aggs []kv.Pair) (kmState, bool) {
			next, shift, err := nextCentroids(st.cents, aggs)
			if err != nil {
				mergeErr = err
				return st, true
			}
			return kmState{cents: next, norms: norms2(next)}, shift < epsilon
		},
		StateNominalBytes: float64(k * KMeansDim * 8),
	}
	ir := core.RunIteration(e, itJob, kmState{cents: cents, norms: norms2(cents)})
	res.Err = ir.Err
	if res.Err == nil {
		res.Err = mergeErr
	}
	res.Centroids = ir.State.cents
	res.Iterations = ir.Rounds
	res.IterTimes = ir.RoundTimes
	res.FirstIter = ir.FirstRound
	res.Elapsed = ir.Elapsed
	return res
}

// KMeansReference runs one sequential Lloyd iteration — the correctness
// oracle all engines are checked against.
func KMeansReference(in *dfs.File, cents [][]float64, iters int) ([][]float64, error) {
	k := len(cents)
	var vecs []SparseVec
	for _, blk := range in.Blocks {
		for _, line := range bytes.Split(blk.Data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var v SparseVec
			if _, err := v.parseTerms(line); err != nil {
				return nil, err
			}
			if len(v.Idx) > 0 {
				vecs = append(vecs, v)
			}
		}
	}
	cur := cents
	for it := 0; it < iters; it++ {
		norms := norms2(cur)
		sums := make([][]float64, k)
		counts := make([]int64, k)
		for i := range sums {
			sums[i] = make([]float64, KMeansDim)
		}
		for _, v := range vecs {
			ci := NearestCentroid(v, cur, norms)
			v.AddTo(sums[ci])
			counts[ci]++
		}
		next := make([][]float64, k)
		for ci := range next {
			if counts[ci] > 0 {
				for j := range sums[ci] {
					sums[ci][j] /= float64(counts[ci])
				}
				next[ci] = sums[ci]
			} else {
				next[ci] = append([]float64(nil), cur[ci]...)
			}
		}
		cur = next
	}
	return cur, nil
}
