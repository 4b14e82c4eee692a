package bdb

import (
	"bytes"
	"regexp"

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
func GrepSpec(fsys *dfs.FS, in *dfs.File, out, pattern string, reducers int) job.Spec {
	re := regexp.MustCompile(pattern)
	return job.Spec{
		Name: "Grep", FS: fsys, Input: in, InputFormat: job.Text,
		Output: out, Reducers: reducers,
		Map: func(key, value []byte, emit job.Emit) {
			for _, m := range re.FindAll(value, -1) {
				emit(m, one)
			}
		},
		Combine:      kv.SumCombiner,
		Reduce:       SumReduce,
		MapCPUFactor: GrepCPUFactor,
	}
}

// SampleSortBoundaries samples the input's keys and computes balanced
// range-partition boundaries, as TeraSort-style total-order sorts do.
func SampleSortBoundaries(in *dfs.File, lineKey bool, parts int) [][]byte {
	var sample [][]byte
	stride := 1 + len(in.Blocks)/8
	for bi := 0; bi < len(in.Blocks); bi += stride {
		lines := bytes.Split(in.Blocks[bi].Data, []byte("\n"))
		ls := 1 + len(lines)/200
		for i := 0; i < len(lines); i += ls {
			if len(lines[i]) > 0 {
				sample = append(sample, lines[i])
			}
		}
	}
	return kv.SampleBoundaries(sample, parts)
}

// TextSortSpec builds the Text Sort micro-benchmark: total-order sort of
// uncompressed text lines via sampled range partitioning.
func TextSortSpec(fsys *dfs.FS, in *dfs.File, out string, reducers int) job.Spec {
	return job.Spec{
		Name: "TextSort", FS: fsys, Input: in, InputFormat: job.Text,
		Output: out, Reducers: reducers,
		Map:          func(key, value []byte, emit job.Emit) { emit(value, nil) },
		Part:         &kv.RangePartitioner{Boundaries: SampleSortBoundaries(in, true, reducers)},
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
