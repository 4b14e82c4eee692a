// Package bdb reimplements the BigDataBench 2.1 pieces the paper uses:
// the Text Generator with its trained seed models (lda_wiki1w from the
// wikipedia corpus, amazon1..amazon5 from Amazon movie reviews), the
// ToSeqFile converter (sequence files compressed with GzipCodec), and the
// five chosen workloads — Sort, WordCount, Grep, K-means and Naive Bayes
// (Table 1) — runnable on all three engines.
//
// The real BigDataBench models are LDA topic models trained on real
// corpora; here each seed model is a seeded Zipfian unigram model with a
// category-specific signature vocabulary. That preserves the data
// characteristics the workloads are sensitive to: heavy-tailed word
// frequencies (WordCount/Grep selectivity and combiner effectiveness),
// compressibility (Normal Sort's gzip input), and per-category term
// separability (Naive Bayes accuracy, K-means cluster structure).
//
// Generation runs at table speed and is a pure function of the seed: words
// are drawn through an exact table inversion of math/rand.Zipf (zipf.go)
// and copied from one immutable vocabulary, and ToSeqFile compresses its
// blocks on parallel workers — same seed, same bytes, on any GOMAXPROCS.
// One staging store per process (stage.go) makes each generated file and
// each seq+gzip member once, for every FS, rig and engine that stages it.
package bdb

import (
	"fmt"
	"math/rand"
	"sync"
)

// SeedModel is a synthetic stand-in for a BigDataBench generator seed
// model: a Zipfian unigram distribution over a vocabulary, optionally
// biased toward a signature band of category terms.
type SeedModel struct {
	Name      string
	Vocab     int     // vocabulary size, at most vocabSize
	ZipfS     float64 // Zipf skew (>1)
	SigStart  int     // first signature word index (category models)
	SigLen    int     // number of signature words
	SigWeight float64 // probability of drawing from the signature band
}

// vocabSize is the size of the one vocabulary every seed model draws from
// (and of the K-means term space).
const vocabSize = KMeansDim

// LDAWiki1W is the lda_wiki1w seed model trained from wikipedia entries,
// used by the paper for Sort, WordCount and Grep inputs.
func LDAWiki1W() *SeedModel {
	return &SeedModel{Name: "lda_wiki1w", Vocab: vocabSize, ZipfS: 1.07}
}

// Amazon returns the amazonN seed model (1-based, N in 1..5), used for
// the K-means and Naive Bayes category inputs. Each category biases a
// disjoint signature band of the vocabulary so categories are separable.
func Amazon(n int) *SeedModel {
	if n < 1 || n > 5 {
		panic(fmt.Sprintf("bdb: amazon model index %d out of range", n))
	}
	return &SeedModel{
		Name:      fmt.Sprintf("amazon%d", n),
		Vocab:     vocabSize,
		ZipfS:     1.05,
		SigStart:  2000 + (n-1)*800,
		SigLen:    800,
		SigWeight: 0.55,
	}
}

// baseWords seeds the vocabulary with common English words so generated
// text looks like text; the tail is synthetic.
var baseWords = []string{
	"the", "of", "and", "a", "to", "in", "is", "was", "he", "for",
	"it", "with", "as", "his", "on", "be", "at", "by", "had", "not",
	"are", "but", "from", "or", "have", "an", "they", "which", "one", "you",
	"were", "her", "all", "she", "there", "would", "their", "we", "him", "been",
	"has", "when", "who", "will", "more", "no", "if", "out", "so", "said",
	"what", "up", "its", "about", "into", "than", "them", "can", "only", "other",
	"new", "some", "could", "time", "these", "two", "may", "then", "do", "first",
	"any", "my", "now", "such", "like", "our", "over", "man", "me", "even",
	"most", "made", "after", "also", "did", "many", "before", "must", "through", "years",
	"where", "much", "your", "way", "well", "down", "should", "because", "each", "just",
}

// vocabulary is the word list shared by every seed model, built on first
// use and never written again: a word depends on its index alone. Text
// generation draws millions of samples from it, so words are bytes ready
// to append, not strings formatted per draw or per model.
var vocabulary = sync.OnceValue(func() [][]byte {
	words := make([][]byte, vocabSize)
	for i := range words {
		if i < len(baseWords) {
			words[i] = []byte(baseWords[i])
		} else {
			words[i] = fmt.Appendf(nil, "%s%04d", syllable(i), i)
		}
	}
	return words
})

// syllable makes synthetic words pronounceable-ish and category-distinct.
func syllable(i int) string {
	cons := "bcdfghklmnprstvw"
	vow := "aeiou"
	return string([]byte{cons[i%len(cons)], vow[(i/7)%len(vow)], cons[(i/31)%len(cons)]})
}

// Sampler draws word indices from the model with a deterministic stream.
type Sampler struct {
	m    *SeedModel
	rng  *rand.Rand
	zipf *zipfTable
}

// NewSampler creates a deterministic word sampler for a seed.
func (m *SeedModel) NewSampler(seed int64) *Sampler {
	return &Sampler{
		m:    m,
		rng:  rand.New(rand.NewSource(seed)),
		zipf: zipfTableFor(m.ZipfS, uint64(m.Vocab-1)),
	}
}

// NextWordIndex draws one word index.
func (s *Sampler) NextWordIndex() int {
	if s.m.SigLen > 0 && s.rng.Float64() < s.m.SigWeight {
		return s.m.SigStart + s.rng.Intn(s.m.SigLen)
	}
	return int(s.zipf.draw(s.rng))
}

// appendWords appends n space-separated words drawn from the model.
func (s *Sampler) appendWords(dst []byte, words [][]byte, n int) []byte {
	for i := range n {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, words[s.NextWordIndex()]...)
	}
	return dst
}

// GenerateText produces approximately nBytes of newline-separated text.
func (m *SeedModel) GenerateText(seed int64, nBytes int) []byte {
	s := m.NewSampler(seed)
	words := vocabulary()
	buf := make([]byte, 0, nBytes+256)
	for len(buf) < nBytes {
		buf = append(s.appendWords(buf, words, 5+s.rng.Intn(11)), '\n')
	}
	return buf
}
