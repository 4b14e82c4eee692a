package bdb

import (
	"bytes"
	"fmt"
	"math"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
)

// NBModel is a trained multinomial Naive Bayes classifier.
type NBModel struct {
	Labels     []string
	Prior      map[string]float64            // log P(label)
	CondLog    map[string]map[string]float64 // label -> term -> log P(term|label)
	DefaultLog map[string]float64            // unseen-term log prob per label
	VocabSize  int
}

// Classify returns the most likely label for a bag of words.
func (m *NBModel) Classify(words [][]byte) string {
	best, bestScore := "", math.Inf(-1)
	for _, lbl := range m.Labels {
		score := m.Prior[lbl]
		cond := m.CondLog[lbl]
		for _, w := range words {
			if lp, ok := cond[string(w)]; ok {
				score += lp
			} else {
				score += m.DefaultLog[lbl]
			}
		}
		if score > bestScore {
			best, bestScore = lbl, score
		}
	}
	return best
}

// nbSep separates label and term in composite keys.
const nbSep = '\x01'

// docLabel cuts "label<TAB>text" at the tab; the counting jobs' map
// functions walk text with nextField.
func docLabel(line []byte) (label, text []byte, ok bool) {
	i := bytes.IndexByte(line, '\t')
	if i <= 0 {
		return nil, nil, false
	}
	return line[:i], line[i+1:], true
}

// splitDoc parses "label<TAB>text" into label and words, for the callers
// that need the words as a slice (Classify, NBReference).
func splitDoc(line []byte) (label []byte, words [][]byte, ok bool) {
	label, text, ok := docLabel(line)
	return label, bytes.Fields(text), ok
}

// NBTermFreqSpec is job 1 of the Mahout-style pipeline: overall term
// frequency counting (the dictionary/DF pass of seq2sparse). The paper
// notes this counting dominates Naive Bayes' runtime and is
// WordCount-shaped.
func NBTermFreqSpec(fsys *dfs.FS, in *dfs.File, out string, reducers int) job.Spec {
	return job.Spec{
		Name: "NB-termfreq", FS: fsys, Input: in, InputFormat: job.Text,
		Output: out, Reducers: reducers,
		Map: func(key, value []byte, emit job.Emit) {
			_, text, ok := docLabel(value)
			if !ok {
				return
			}
			for i, j := nextField(text, 0); j > i; i, j = nextField(text, j) {
				emit(text[i:j], one)
			}
		},
		Combine:      kv.SumCombiner,
		Reduce:       kv.SumReducer,
		MapCPUFactor: BayesCPUFactor,
		Ported:       true,
		Fingerprint:  "NBTermFreq",
	}
}

// NBLabelTermSpec is job 2: per-(label, term) occurrence counting — the
// term-frequency-per-class statistics the trainer consumes.
func NBLabelTermSpec(fsys *dfs.FS, in *dfs.File, out string, reducers int) job.Spec {
	return job.Spec{
		Name: "NB-labelterm", FS: fsys, Input: in, InputFormat: job.Text,
		Output: out, Reducers: reducers,
		Map: func(key, value []byte, emit job.Emit) {
			label, text, ok := docLabel(value)
			if !ok {
				return
			}
			k := append(append([]byte(nil), label...), nbSep)
			for i, j := nextField(text, 0); j > i; i, j = nextField(text, j) {
				k = append(k[:len(label)+1], text[i:j]...)
				emit(k, one)
			}
		},
		Combine:      kv.SumCombiner,
		Reduce:       kv.SumReducer,
		MapCPUFactor: BayesCPUFactor,
		Ported:       true,
		Fingerprint:  "NBLabelTerm",
	}
}

// NBLabelCountSpec is job 3: documents per label (the priors).
func NBLabelCountSpec(fsys *dfs.FS, in *dfs.File, out string, reducers int) job.Spec {
	return job.Spec{
		Name: "NB-prior", FS: fsys, Input: in, InputFormat: job.Text,
		Output: out, Reducers: reducers,
		Map: func(key, value []byte, emit job.Emit) {
			label, _, ok := docLabel(value)
			if !ok {
				return
			}
			emit(label, one)
		},
		Combine:      kv.SumCombiner,
		Reduce:       kv.SumReducer,
		MapCPUFactor: 1.0,
		Fingerprint:  "NBLabelCount",
	}
}

// NBResult reports a full training pipeline run.
type NBResult struct {
	Model    *NBModel
	JobTimes []float64
	Elapsed  float64
	Err      error
}

// NaiveBayesTrain runs the Mahout-style pipeline (term counting,
// label-term counting, priors, then model fitting) on any engine. The
// paper compares this between Hadoop and DataMPI only — BigDataBench 2.1
// has no Spark implementation.
func NaiveBayesTrain(eng job.Engine, fsys *dfs.FS, in *dfs.File, outPrefix string, reducers int) NBResult {
	var res NBResult
	start := fsys.Cluster().Eng.Now()
	specs := []job.Spec{
		NBTermFreqSpec(fsys, in, outPrefix+"/termfreq", reducers),
		NBLabelTermSpec(fsys, in, outPrefix+"/labelterm", reducers),
		NBLabelCountSpec(fsys, in, outPrefix+"/prior", reducers),
	}
	for _, spec := range specs {
		jr := eng.Run(spec)
		if jr.Err != nil {
			res.Err = fmt.Errorf("bdb: %s: %w", spec.Name, jr.Err)
			return res
		}
		res.JobTimes = append(res.JobTimes, jr.Elapsed)
	}
	model, err := fitNB(fsys, outPrefix)
	if err != nil {
		res.Err = err
		return res
	}
	res.Model = model
	res.Elapsed = fsys.Cluster().Eng.Now() - start
	return res
}

// fitNB builds the classifier from the three jobs' outputs with Laplace
// smoothing.
func fitNB(fsys *dfs.FS, prefix string) (*NBModel, error) {
	m := &NBModel{
		Prior:      map[string]float64{},
		CondLog:    map[string]map[string]float64{},
		DefaultLog: map[string]float64{},
	}
	// Priors.
	var totalDocs int64
	priorCounts := map[string]int64{}
	for _, p := range job.ReadTextOutput(fsys, prefix+"/prior") {
		n := kv.ParseInt(p.Value)
		priorCounts[string(p.Key)] = n
		totalDocs += n
	}
	if totalDocs == 0 {
		return nil, fmt.Errorf("bdb: no documents counted")
	}
	for lbl, n := range priorCounts {
		m.Labels = append(m.Labels, lbl)
		m.Prior[lbl] = math.Log(float64(n) / float64(totalDocs))
	}
	sortStrings(m.Labels)
	// Vocabulary size from the term-frequency job.
	vocab := countLines(fsys, prefix+"/termfreq")
	if vocab == 0 {
		return nil, fmt.Errorf("bdb: empty vocabulary")
	}
	m.VocabSize = vocab
	// Per-label term totals and conditional probabilities.
	labelTermCounts := map[string]map[string]int64{}
	labelTotals := map[string]int64{}
	for _, p := range job.ReadTextOutput(fsys, prefix+"/labelterm") {
		i := bytes.IndexByte(p.Key, nbSep)
		if i < 0 {
			continue
		}
		lbl, term := string(p.Key[:i]), string(p.Key[i+1:])
		if labelTermCounts[lbl] == nil {
			labelTermCounts[lbl] = map[string]int64{}
		}
		n := kv.ParseInt(p.Value)
		labelTermCounts[lbl][term] += n
		labelTotals[lbl] += n
	}
	for lbl, terms := range labelTermCounts {
		denom := float64(labelTotals[lbl] + int64(vocab))
		cond := make(map[string]float64, len(terms))
		for t, n := range terms {
			cond[t] = math.Log(float64(n+1) / denom)
		}
		m.CondLog[lbl] = cond
		m.DefaultLog[lbl] = math.Log(1 / denom)
	}
	return m, nil
}

// countLines counts the non-empty lines — the records — of the files
// under prefix without materialising them. A line may straddle blocks.
func countLines(fsys *dfs.FS, prefix string) int {
	n := 0
	for _, f := range fsys.ListPrefix(prefix) {
		inLine := false
		for _, blk := range f.Blocks {
			for _, c := range blk.Data {
				if c != '\n' {
					inLine = true
				} else if inLine {
					n, inLine = n+1, false
				}
			}
		}
		if inLine {
			n++
		}
	}
	return n
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// NBClassifySpec is the optional classification job: map-only scoring of
// labeled documents against a trained model, emitting (true,predicted)
// confusion counts.
func NBClassifySpec(fsys *dfs.FS, in *dfs.File, out string, m *NBModel, reducers int) job.Spec {
	return job.Spec{
		Name: "NB-classify", FS: fsys, Input: in, InputFormat: job.Text,
		Output: out, Reducers: reducers,
		Map: func(key, value []byte, emit job.Emit) {
			label, words, ok := splitDoc(value)
			if !ok {
				return
			}
			pred := m.Classify(words)
			emit([]byte(string(label)+"->"+pred), one)
		},
		Combine:      kv.SumCombiner,
		Reduce:       kv.SumReducer,
		MapCPUFactor: BayesCPUFactor,
		Ported:       true,
	}
}

// NBAccuracy computes classification accuracy from a confusion output.
func NBAccuracy(fsys *dfs.FS, prefix string) (float64, error) {
	var correct, total int64
	for _, p := range job.ReadTextOutput(fsys, prefix) {
		n := kv.ParseInt(p.Value)
		total += n
		parts := bytes.Split(p.Key, []byte("->"))
		if len(parts) == 2 && bytes.Equal(parts[0], parts[1]) {
			correct += n
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("bdb: empty confusion matrix")
	}
	return float64(correct) / float64(total), nil
}

// NBReference trains the same model sequentially — the oracle for tests.
func NBReference(in *dfs.File) (*NBModel, error) {
	priorCounts := map[string]int64{}
	labelTermCounts := map[string]map[string]int64{}
	labelTotals := map[string]int64{}
	vocabSet := map[string]bool{}
	var totalDocs int64
	for _, blk := range in.Blocks {
		for _, line := range bytes.Split(blk.Data, []byte("\n")) {
			label, words, ok := splitDoc(line)
			if !ok {
				continue
			}
			lbl := string(label)
			priorCounts[lbl]++
			totalDocs++
			if labelTermCounts[lbl] == nil {
				labelTermCounts[lbl] = map[string]int64{}
			}
			for _, w := range words {
				vocabSet[string(w)] = true
				labelTermCounts[lbl][string(w)]++
				labelTotals[lbl]++
			}
		}
	}
	if totalDocs == 0 {
		return nil, fmt.Errorf("bdb: no docs")
	}
	m := &NBModel{
		Prior:      map[string]float64{},
		CondLog:    map[string]map[string]float64{},
		DefaultLog: map[string]float64{},
		VocabSize:  len(vocabSet),
	}
	for lbl, n := range priorCounts {
		m.Labels = append(m.Labels, lbl)
		m.Prior[lbl] = math.Log(float64(n) / float64(totalDocs))
	}
	sortStrings(m.Labels)
	for lbl, terms := range labelTermCounts {
		denom := float64(labelTotals[lbl] + int64(len(vocabSet)))
		cond := map[string]float64{}
		for t, n := range terms {
			cond[t] = math.Log(float64(n+1) / denom)
		}
		m.CondLog[lbl] = cond
		m.DefaultLog[lbl] = math.Log(1 / denom)
	}
	return m, nil
}
