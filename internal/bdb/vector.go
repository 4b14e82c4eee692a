package bdb

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"

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

// tfVector replaces v with the TF vector of a document given as word
// indices, with stopword removal, normalized to unit L2 and ascending in
// index — the shape of seq2sparse's output. counts is scratch, one zero
// per vocabulary word on entry and again on return.
func tfVector(v *SparseVec, counts []float64, doc []int32) {
	v.Idx, v.Val = v.Idx[:0], v.Val[:0]
	for _, w := range doc {
		if w < stopwordCutoff {
			continue
		}
		if counts[w] == 0 {
			v.Idx = append(v.Idx, w)
		}
		counts[w]++
	}
	slices.Sort(v.Idx)
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
		counts[idx] = 0
	}
}

// GenerateVectorFile produces the K-means input: nominalBytes of sparse
// vector lines, each drawn from one of the five amazon seed models (the
// paper: "five seed models, amazon1-amazon5, are used"). Returns the file
// plus the ground-truth model index per line for clustering-quality
// checks in tests; the truth slice is the caller's own. The lines come
// from the staging store.
func GenerateVectorFile(fsys *dfs.FS, name string, seed int64, nominalBytes float64) (*dfs.File, []int) {
	target := int(nominalBytes / fsys.Config().Scale)
	v := staging(stageKey{kind: vectorFile, seed: seed, size: target}, nil, func() staged {
		return generateVectors(seed, target)
	})
	return fsys.PreloadAligned(name, v.data, '\n'), slices.Clone(v.truth)
}

func generateVectors(seed int64, target int) staged {
	samplers := make([]*Sampler, 5)
	for i := range samplers {
		samplers[i] = Amazon(i + 1).NewSampler(seed + int64(i)*7919)
	}
	buf := make([]byte, 0, target+2048)
	var truth []int
	var vec SparseVec
	var doc []int32
	counts := make([]float64, vocabSize)
	for c := 0; len(buf) < target; c++ {
		mi := c % 5
		s := samplers[mi]
		doc = doc[:0]
		for range 50 + s.rng.Intn(60) {
			doc = append(doc, int32(s.NextWordIndex()))
		}
		tfVector(&vec, counts, doc)
		buf = append(vec.appendText(buf), '\n')
		truth = append(truth, mi)
	}
	return staged{data: buf, truth: truth}
}

// GenerateLabeledDocs produces the Naive Bayes input: "labelN<TAB>text"
// lines where label i's text comes from amazon(i+1) — BigDataBench's five
// document categories. The lines come from the staging store.
func GenerateLabeledDocs(fsys *dfs.FS, name string, seed int64, nominalBytes float64) *dfs.File {
	target := int(nominalBytes / fsys.Config().Scale)
	v := staging(stageKey{kind: docFile, seed: seed, size: target}, nil, func() staged {
		return staged{data: generateDocs(seed, target)}
	})
	return fsys.PreloadAligned(name, v.data, '\n')
}

func generateDocs(seed int64, target int) []byte {
	samplers := make([]*Sampler, 5)
	for i := range samplers {
		samplers[i] = Amazon(i + 1).NewSampler(seed + int64(i)*104729)
	}
	words := vocabulary()
	buf := make([]byte, 0, target+1024)
	for c := 0; len(buf) < target; c++ {
		mi := c % 5
		s := samplers[mi]
		buf = append(strconv.AppendInt(append(buf, "label"...), int64(mi), 10), '\t')
		buf = append(s.appendWords(buf, words, 20+s.rng.Intn(40)), '\n')
	}
	return buf
}

// GenerateTextFile produces the micro-benchmark text input (Text Sort,
// WordCount, Grep) from a seed model at the given nominal size. The text
// comes from the staging store.
func GenerateTextFile(fsys *dfs.FS, name string, m *SeedModel, seed int64, nominalBytes float64) *dfs.File {
	n := int(nominalBytes / fsys.Config().Scale)
	v := staging(stageKey{kind: textStream, model: *m, seed: seed, size: n}, nil, func() staged {
		return staged{data: m.GenerateText(seed, n)}
	})
	return fsys.PreloadAligned(name, v.data, '\n')
}
