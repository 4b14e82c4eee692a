package bdb

import (
	"bytes"
	"fmt"
	"regexp"
	"regexp/syntax"
	"slices"
	"unicode/utf8"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
)

// CPU intensity factors relative to plain record parsing, shared by all
// engines so the workload's relative compute weight is engine-neutral.
// WordCount's factor reproduces the paper's observation that WordCount is
// CPU-bound (Section 4.4: Hadoop at 80% CPU) while Sort is I/O-bound.
const (
	SortCPUFactor      = 1.0
	WordCountCPUFactor = 3.5
	GrepCPUFactor      = 1.3
	KMeansCPUFactor    = 6.0
	BayesCPUFactor     = 3.0
)

// SumReduce adds the integer values per key (WordCount/Grep reducer).
func SumReduce(key []byte, values [][]byte) []kv.Pair {
	var sum int64
	for _, v := range values {
		sum += kv.ParseInt(v)
	}
	return []kv.Pair{{Key: key, Value: kv.FormatInt(sum)}}
}

// WordCountSpec builds the WordCount micro-benchmark: tokenize lines,
// count occurrences per word, with a map-side combiner.
func WordCountSpec(fsys *dfs.FS, in *dfs.File, out string, reducers int) job.Spec {
	return job.Spec{
		Name: "WordCount", FS: fsys, Input: in, InputFormat: job.Text,
		Output: out, Reducers: reducers,
		Map: func(key, value []byte, emit job.Emit) {
			for i, j := nextField(value, 0); j > i; i, j = nextField(value, j) {
				emit(value[i:j], one)
			}
		},
		Combine:      kv.SumCombiner,
		Reduce:       SumReduce,
		MapCPUFactor: WordCountCPUFactor,
	}
}

// nextField returns the bounds of the first field of b at or after i
// (end == start: none left), fields being separated by the ASCII subset
// of unicode.IsSpace — bytes.Fields on ASCII text, which all generated
// input is. The WordCount, Naive Bayes and vector-parsing kernels loop
// over it in place: no [][]byte per line, no closure call per token.
func nextField(b []byte, i int) (start, end int) {
	for i < len(b) && asciiSpace(b[i]) {
		i++
	}
	j := i
	for j < len(b) && !asciiSpace(b[j]) {
		j++
	}
	return i, j
}

func asciiSpace(b byte) bool {
	switch b {
	case '\t', '\n', '\v', '\f', '\r', ' ':
		return true
	}
	return false
}

var one = []byte("1")

// GrepSpec builds the Grep micro-benchmark: search lines for a pattern
// and count occurrences of each matched string (BigDataBench semantics).
// A pattern that does not compile yields a spec carrying the error
// (job.Spec.Err), which every engine rejects at submission.
func GrepSpec(fsys *dfs.FS, in *dfs.File, out, pattern string, reducers int) job.Spec {
	spec := job.Spec{
		Name: "Grep", FS: fsys, Input: in, InputFormat: job.Text,
		Output: out, Reducers: reducers,
		Combine:      kv.SumCombiner,
		Reduce:       SumReduce,
		MapCPUFactor: GrepCPUFactor,
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		spec.Err = fmt.Errorf("bdb: grep pattern %q: %w", pattern, err)
		return spec
	}
	spec.Map = grepMap(re)
	return spec
}

// grepMap returns the map function emitting (match, 1) for every match
// re.FindAll(line, -1) would return, in the same order.
//
// FindAll builds a [][]byte per matching line and a capture slice per
// match. When the pattern has no empty-width assertion (^ $ \A \z \b \B)
// and cannot match the empty string, the matches of a valid UTF-8 line
// can be walked with Find over a moving window instead, which allocates
// nothing: without assertions a match does not depend on what precedes
// the window, so the leftmost match of line[end:] is FindAll's next
// match; and the first occurrence of the matched bytes in the window is
// where it matched, because in valid UTF-8 an earlier occurrence starts
// on a rune boundary and would itself have been a match further left.
// Any other pattern, and any line that is not valid UTF-8 (a stray byte
// matches as U+FFFD only where it does not complete a rune), keeps
// FindAll, which is also the walker's differential oracle
// (FuzzGrepMatchesFindAll).
func grepMap(re *regexp.Regexp) job.MapFunc {
	findAll := func(key, value []byte, emit job.Emit) {
		for _, m := range re.FindAll(value, -1) {
			emit(m, one)
		}
	}
	if !walkable(re) {
		return findAll
	}
	return func(key, value []byte, emit job.Emit) {
		m := re.Find(value)
		if m == nil {
			return // no match: what the line holds does not matter
		}
		if !utf8.Valid(value) {
			findAll(key, value, emit)
			return
		}
		for win := value; m != nil; m = re.Find(win) {
			emit(m, one)
			win = win[bytes.Index(win, m)+len(m):]
		}
	}
}

// walkable reports whether re is assertion-free and never matches the
// empty string (see grepMap).
func walkable(re *regexp.Regexp) bool {
	parsed, err := syntax.Parse(re.String(), syntax.Perl)
	return err == nil && !hasAssertion(parsed) && !re.Match(nil)
}

func hasAssertion(re *syntax.Regexp) bool {
	switch re.Op {
	case syntax.OpBeginLine, syntax.OpEndLine, syntax.OpBeginText, syntax.OpEndText,
		syntax.OpWordBoundary, syntax.OpNoWordBoundary:
		return true
	}
	for _, sub := range re.Sub {
		if hasAssertion(sub) {
			return true
		}
	}
	return false
}

// SampleSortBoundaries samples the input's lines (every ls-th line of
// every stride-th block, about 200 per block) and computes balanced
// range-partition boundaries, as TeraSort-style total-order sorts do.
func SampleSortBoundaries(in *dfs.File, parts int) [][]byte {
	var sample [][]byte
	stride := 1 + len(in.Blocks)/8
	for bi := 0; bi < len(in.Blocks); bi += stride {
		data := in.Blocks[bi].Data
		// Lines are what bytes.Split on "\n" yields (a last, possibly
		// empty, line after the final newline included), walked in place.
		n := bytes.Count(data, newline) + 1
		ls := 1 + n/200
		sample = slices.Grow(sample, (n+ls-1)/ls)
		for i := 0; ; i++ {
			line, rest, more := bytes.Cut(data, newline)
			if i%ls == 0 && len(line) > 0 {
				sample = append(sample, line)
			}
			if !more {
				break
			}
			data = rest
		}
	}
	return kv.SampleBoundaries(sample, parts)
}

var newline = []byte{'\n'}

// TextSortSpec builds the Text Sort micro-benchmark: total-order sort of
// uncompressed text lines via sampled range partitioning.
func TextSortSpec(fsys *dfs.FS, in *dfs.File, out string, reducers int) job.Spec {
	return job.Spec{
		Name: "TextSort", FS: fsys, Input: in, InputFormat: job.Text,
		Output: out, Reducers: reducers,
		Map:          func(key, value []byte, emit job.Emit) { emit(value, nil) },
		Part:         &kv.RangePartitioner{Boundaries: SampleSortBoundaries(in, reducers)},
		MapCPUFactor: SortCPUFactor,
	}
}

// NormalSortSpec builds the Normal Sort micro-benchmark: sort of the
// gzip-compressed sequence file produced by ToSeqFile. Keys and values
// are the original lines.
func NormalSortSpec(fsys *dfs.FS, in *dfs.File, out string, reducers int) job.Spec {
	// Sample boundaries from decoded records of the first block.
	var sample [][]byte
	if len(in.Blocks) > 0 {
		if recs, _, err := job.Records(job.SeqGzip, in.Blocks[0].Data); err == nil {
			stride := 1 + len(recs)/512
			for i := 0; i < len(recs); i += stride {
				sample = append(sample, recs[i].Key)
			}
		}
	}
	return job.Spec{
		Name: "NormalSort", FS: fsys, Input: in, InputFormat: job.SeqGzip,
		Output: out, Reducers: reducers,
		Map:          func(key, value []byte, emit job.Emit) { emit(key, value) },
		Part:         &kv.RangePartitioner{Boundaries: kv.SampleBoundaries(sample, reducers)},
		MapCPUFactor: SortCPUFactor * 1.4, // decompression adds CPU
	}
}
