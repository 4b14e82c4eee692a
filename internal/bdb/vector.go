package bdb

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"github.com/datampi/datampi-go/internal/dfs"
)

// SparseVec is a sparse term-frequency vector, the K-means input record
// (BigDataBench's genData_Kmeans converts documents to sparse vectors via
// Mahout's seq2sparse; this type plays that role).
type SparseVec struct {
	Idx []int32
	Val []float64
}

// Dot returns the dot product with a dense vector.
func (v SparseVec) Dot(dense []float64) float64 {
	s := 0.0
	for i, idx := range v.Idx {
		if int(idx) < len(dense) {
			s += v.Val[i] * dense[idx]
		}
	}
	return s
}

// Norm2 returns the squared L2 norm.
func (v SparseVec) Norm2() float64 {
	s := 0.0
	for _, x := range v.Val {
		s += x * x
	}
	return s
}

// AddTo accumulates the vector into a dense sum.
func (v SparseVec) AddTo(dense []float64) {
	for i, idx := range v.Idx {
		dense[idx] += v.Val[i]
	}
}

// DistanceSq returns squared Euclidean distance to a dense centroid with
// precomputed squared norm cNorm2.
func (v SparseVec) DistanceSq(c []float64, cNorm2 float64) float64 {
	return v.Norm2() - 2*v.Dot(c) + cNorm2
}

// MarshalText renders "idx:val idx:val ..." — the on-DFS vector format.
func (v SparseVec) MarshalText() []byte { return v.appendText(nil) }

func (v SparseVec) appendText(dst []byte) []byte {
	for i := range v.Idx {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = appendComponent(dst, v.Idx[i], v.Val[i], 4)
	}
	return dst
}

// appendComponent appends "idx:val" with val as %.<prec>g would print it
// (strconv's 'g' and fmt's %g agree byte for byte, non-finite values
// included), without fmt's boxed arguments.
func appendComponent(dst []byte, idx int32, val float64, prec int) []byte {
	dst = strconv.AppendInt(dst, int64(idx), 10)
	dst = append(dst, ':')
	return strconv.AppendFloat(dst, val, 'g', prec, 64)
}

// ParseSparseVec parses the MarshalText format into a fresh vector, sized
// from the line's component count.
func ParseSparseVec(b []byte) (SparseVec, error) {
	n := bytes.Count(b, []byte(":"))
	v := SparseVec{Idx: make([]int32, 0, n), Val: make([]float64, 0, n)}
	err := v.parse(b)
	return v, err
}

// parse replaces v with the components of a MarshalText line, reusing
// v's slices: a caller that keeps v across lines parses without
// allocating. Fields are split on ASCII space (every generated line is
// ASCII). An index outside [0, 2^31) is malformed, not narrowed.
func (v *SparseVec) parse(b []byte) error {
	v.Idx, v.Val = v.Idx[:0], v.Val[:0]
	for i, j := nextField(b, 0); j > i; i, j = nextField(b, j) {
		tok := b[i:j]
		c := bytes.IndexByte(tok, ':')
		if c < 0 {
			return fmt.Errorf("bdb: bad vector component %q", tok)
		}
		idx, err := strconv.Atoi(string(tok[:c]))
		if err != nil {
			return fmt.Errorf("bdb: bad index in %q: %v", tok, err)
		}
		if idx < 0 || idx > math.MaxInt32 {
			return fmt.Errorf("bdb: index out of range in %q", tok)
		}
		val, err := strconv.ParseFloat(string(tok[c+1:]), 64)
		if err != nil {
			return fmt.Errorf("bdb: bad value in %q: %v", tok, err)
		}
		v.Idx = append(v.Idx, int32(idx))
		v.Val = append(v.Val, val)
	}
	return nil
}

// stopwordCutoff drops the Zipf head when vectorizing, as Mahout's
// seq2sparse analyzer removes stopwords (and TF-IDF downweights them).
// Without it the shared high-frequency words drown the category signal.
const stopwordCutoff = 100

// DocToVector converts a document's words into a TF vector over the model
// vocabulary with stopword removal, normalized to unit L2 — the shape of
// seq2sparse's output.
func DocToVector(m *SeedModel, words [][]byte) SparseVec {
	counts := map[int32]float64{}
	idxOf := vocabIndex(m)
	for _, w := range words {
		if i, ok := idxOf[string(w)]; ok && i >= stopwordCutoff {
			counts[i]++
		}
	}
	var v SparseVec
	for idx := range counts {
		v.Idx = append(v.Idx, idx)
	}
	sort.Slice(v.Idx, func(i, j int) bool { return v.Idx[i] < v.Idx[j] })
	norm := 0.0
	for _, idx := range v.Idx {
		norm += counts[idx] * counts[idx]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		norm = 1
	}
	for _, idx := range v.Idx {
		v.Val = append(v.Val, counts[idx]/norm)
	}
	return v
}

// vocabIndex caches word -> index maps per vocabulary size. The cache
// is shared by every sim in the process, so the parallel sweep runner
// requires the mutex.
var (
	vocabMu    sync.Mutex
	vocabCache = map[int]map[string]int32{}
)

func vocabIndex(m *SeedModel) map[string]int32 {
	vocabMu.Lock()
	defer vocabMu.Unlock()
	if idx, ok := vocabCache[m.Vocab]; ok {
		return idx
	}
	idx := make(map[string]int32, m.Vocab)
	for i := 0; i < m.Vocab; i++ {
		idx[m.Word(i)] = int32(i)
	}
	vocabCache[m.Vocab] = idx
	return idx
}

// GenerateVectorFile produces the K-means input: nominalBytes of sparse
// vector lines, each drawn from one of the five amazon seed models (the
// paper: "five seed models, amazon1-amazon5, are used"). Returns the file
// plus the ground-truth model index per line for clustering-quality
// checks in tests.
func GenerateVectorFile(fsys *dfs.FS, name string, seed int64, nominalBytes float64) (*dfs.File, []int) {
	scale := fsys.Config().Scale
	target := int(nominalBytes / scale)
	models := make([]*SeedModel, 5)
	samplers := make([]*Sampler, 5)
	for i := range models {
		models[i] = Amazon(i + 1)
		samplers[i] = models[i].NewSampler(seed + int64(i)*7919)
	}
	var buf bytes.Buffer
	var truth []int
	c := 0
	for buf.Len() < target {
		mi := c % 5
		c++
		s := samplers[mi]
		nWords := 50 + s.rng.Intn(60)
		words := make([][]byte, 0, nWords)
		for i := 0; i < nWords; i++ {
			words = append(words, []byte(s.NextWord()))
		}
		vec := DocToVector(models[mi], words)
		buf.Write(vec.appendText(buf.AvailableBuffer()))
		buf.WriteByte('\n')
		truth = append(truth, mi)
	}
	return fsys.PreloadAligned(name, buf.Bytes(), '\n'), truth
}

// GenerateLabeledDocs produces the Naive Bayes input: "labelN<TAB>text"
// lines where label i's text comes from amazon(i+1) — BigDataBench's five
// document categories.
func GenerateLabeledDocs(fsys *dfs.FS, name string, seed int64, nominalBytes float64) *dfs.File {
	scale := fsys.Config().Scale
	target := int(nominalBytes / scale)
	samplers := make([]*Sampler, 5)
	for i := range samplers {
		samplers[i] = Amazon(i + 1).NewSampler(seed + int64(i)*104729)
	}
	var buf bytes.Buffer
	c := 0
	for buf.Len() < target {
		mi := c % 5
		c++
		s := samplers[mi]
		fmt.Fprintf(&buf, "label%d\t", mi)
		n := 20 + s.rng.Intn(40)
		for i := 0; i < n; i++ {
			if i > 0 {
				buf.WriteByte(' ')
			}
			buf.WriteString(s.NextWord())
		}
		buf.WriteByte('\n')
	}
	return fsys.PreloadAligned(name, buf.Bytes(), '\n')
}

// GenerateTextFile produces the micro-benchmark text input (Text Sort,
// WordCount, Grep) from a seed model at the given nominal size.
func GenerateTextFile(fsys *dfs.FS, name string, m *SeedModel, seed int64, nominalBytes float64) *dfs.File {
	scale := fsys.Config().Scale
	data := m.GenerateText(seed, int(nominalBytes/scale))
	return fsys.PreloadAligned(name, data, '\n')
}
