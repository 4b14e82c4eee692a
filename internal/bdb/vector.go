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
	return appendG(dst, val, prec)
}

// pow10 holds the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// decades[i] is the float64 nearest 10^(i-4). Each negative power rounds
// up, so a >= decades[i] exactly when a >= 10^(i-4) for every float64 a
// (TestDecadesBoundExactPowers).
var decades = [...]float64{1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6,
	1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// gGuard is the guard band around a rounding tie, in units of the last
// digit kept: the scaled value is off its exact product by at most 2^-33
// (one rounding below 2^20), so outside the band it rounds as the exact
// product would.
const gGuard = 1.0 / (1 << 20)

// appendG appends x as strconv.AppendFloat(dst, x, 'g', prec, 64) does,
// for prec 1 to 6. Inside [1e-4, 1e15) in magnitude, x scaled by one
// exact power of ten to prec integer digits rounds with one Floor; a
// value within gGuard of a tie (exact ties round to even in strconv) and
// every value outside the range go to strconv.
func appendG(dst []byte, x float64, prec int) []byte {
	a := math.Abs(x)
	if !(a >= decades[0] && a < decades[len(decades)-1]) {
		return strconv.AppendFloat(dst, x, 'g', prec, 64)
	}
	e := 0 // a's decimal exponent: decades[e] <= a < decades[e+1], then less 4
	for a >= decades[e+1] {
		e++
	}
	e -= 4
	var y float64
	if k := prec - 1 - e; k >= 0 {
		y = a * pow10[k]
	} else {
		y = a / pow10[-k]
	}
	n := math.Floor(y)
	switch f := y - n; {
	case math.Abs(f-0.5) < gGuard:
		return strconv.AppendFloat(dst, x, 'g', prec, 64)
	case f > 0.5:
		n++
	}
	if n == pow10[prec] { // rounded up to the next decade
		n, e = pow10[prec-1], e+1
	}
	var digs [6]byte
	for i, u := prec-1, uint64(n); i >= 0; i, u = i-1, u/10 {
		digs[i] = byte('0' + u%10)
	}
	nd := prec
	for nd > 1 && digs[nd-1] == '0' {
		nd--
	}
	if x < 0 {
		dst = append(dst, '-')
	}
	switch {
	case e >= prec: // %e form; e < -4 is outside the range
		dst = append(dst, digs[0])
		if nd > 1 {
			dst = append(append(dst, '.'), digs[1:nd]...)
		}
		dst = append(dst, 'e', '+')
		if e < 10 {
			dst = append(dst, '0')
		}
		return strconv.AppendInt(dst, int64(e), 10)
	case e < 0:
		dst = append(dst, '0', '.')
		for range -e - 1 {
			dst = append(dst, '0')
		}
		return append(dst, digs[:nd]...)
	case nd <= e+1:
		dst = append(dst, digs[:nd]...)
		for range e + 1 - nd {
			dst = append(dst, '0')
		}
		return dst
	default:
		dst = append(dst, digs[:e+1]...)
		return append(append(dst, '.'), digs[e+1:nd]...)
	}
}

// ParseSparseVec parses the MarshalText format into a fresh vector, sized
// from the line's component count.
func ParseSparseVec(b []byte) (SparseVec, error) {
	n := bytes.Count(b, []byte(":"))
	v := SparseVec{Idx: make([]int32, 0, n), Val: make([]float64, 0, n)}
	_, err := v.parse(b)
	return v, err
}

// parse replaces v with the components of a MarshalText line, reusing
// v's slices: a caller that keeps v across lines parses without
// allocating. Fields are split on ASCII space (every generated line is
// ASCII). An index outside [0, 2^31) is malformed, not narrowed.
//
// verbatim reports a line that is exactly what partialSum.encode(1)
// prints after "1|" for v: fields one space apart, indices strictly
// ascending in canonical decimal, and values non-zero and written as
// %.6g writes them in fixed form. Every generated vector is one (%.4g
// values in (0, 1]).
func (v *SparseVec) parse(b []byte) (verbatim bool, err error) {
	v.Idx, v.Val = v.Idx[:0], v.Val[:0]
	verbatim = true
	next := 0 // where a verbatim line's next field starts
	for i := skipSpace(b, 0); i < len(b); i = skipSpace(b, i) {
		idx, val, canonical, j, ok := scanComponent(b, i)
		if !ok {
			_, j = nextField(b, i)
			if idx, val, err = parseComponent(b[i:j]); err != nil {
				return false, err
			}
		}
		verbatim = verbatim && i == next && (i == 0 || b[i-1] == ' ') && canonical &&
			(len(v.Idx) == 0 || idx > v.Idx[len(v.Idx)-1])
		next, i = j+1, j
		v.Idx = append(v.Idx, idx)
		v.Val = append(v.Val, val)
	}
	return verbatim && next == len(b)+1, nil
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && asciiSpace(b[i]) {
		i++
	}
	return i
}

// scanComponent reads the field at b[i:] by hand when it is plain: one
// to nine digits, ':', then a plain decimal (an optional leading '-',
// digits and at most one '.') with at most 15 significant and 22
// fraction digits, up to ASCII space or the end of b. Such a value is
// m / 10^f with m and 10^f both exact float64s, so the one division
// rounds correctly, as strconv.ParseFloat does. Any other field (signs,
// exponents, Inf, NaN, hex, underscores, long or malformed tokens) is
// not ok, and parseComponent reads it. canonical reports an index without
// a leading zero and a non-zero value written as %.6g writes it in fixed
// form: at most six significant digits, no leading or trailing zero, and
// a decimal exponent in [-4, 6).
func scanComponent(b []byte, i int) (idx int32, x float64, canonical bool, end int, ok bool) {
	k := i
	for ; k < len(b) && k-i < 10 && '0' <= b[k] && b[k] <= '9'; k++ {
		idx = idx*10 + int32(b[k]-'0')
	}
	if n := k - i; n == 0 || n > 9 || k == len(b) || b[k] != ':' {
		return 0, 0, false, 0, false
	}
	canonIdx := b[i] != '0' || k == i+1
	k++
	neg := k < len(b) && b[k] == '-'
	if neg {
		k++
	}
	start := k
	var m uint64
	sig, dot := 0, -1
	for ; k < len(b); k++ {
		if d := b[k] - '0'; d <= 9 {
			if m = m*10 + uint64(d); m != 0 {
				sig++ // m wraps only past 19 significant digits
			}
			continue
		}
		if b[k] == '.' && dot < 0 {
			dot = k - start
			continue
		}
		if !asciiSpace(b[k]) {
			return 0, 0, false, 0, false
		}
		break
	}
	body := b[start:k]
	digits, frac := len(body), 0
	if dot >= 0 {
		digits, frac = digits-1, len(body)-dot-1
	}
	if digits == 0 || sig > 15 || frac > 22 {
		return 0, 0, false, 0, false
	}
	if x = float64(m) / pow10[frac]; neg {
		x = -x
	}
	intLen := dot
	if dot < 0 {
		intLen = len(body)
	}
	canonical = canonIdx && m != 0 && sig <= 6 && intLen > 0 &&
		(dot < 0 || frac > 0 && body[len(body)-1] != '0') &&
		(body[0] != '0' || intLen == 1 && frac-sig <= 3)
	return idx, x, canonical, k, true
}

// parseComponent reads one "idx:val" field with strconv; its errors name
// the field.
func parseComponent(tok []byte) (int32, float64, error) {
	c := bytes.IndexByte(tok, ':')
	if c < 0 {
		return 0, 0, fmt.Errorf("bdb: bad vector component %q", tok)
	}
	idx, err := strconv.Atoi(string(tok[:c]))
	if err != nil {
		return 0, 0, fmt.Errorf("bdb: bad index in %q: %v", tok, err)
	}
	if idx < 0 || idx > math.MaxInt32 {
		return 0, 0, fmt.Errorf("bdb: index out of range in %q", tok)
	}
	val, err := strconv.ParseFloat(string(tok[c+1:]), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bdb: bad value in %q: %v", tok, err)
	}
	return int32(idx), val, nil
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
