package bdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"regexp"
	"regexp/syntax"
	"slices"
	"unicode"
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
		Reduce:       kv.SumReducer,
		MapCPUFactor: WordCountCPUFactor,
		Fingerprint:  "WordCount",
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
		Reduce:       kv.SumReducer,
		MapCPUFactor: GrepCPUFactor,
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		spec.Err = fmt.Errorf("bdb: grep pattern %q: %w", pattern, err)
		return spec
	}
	spec.Map, spec.Fingerprint = grepMap(re), "Grep "+pattern
	return spec
}

// grepMap returns the map function emitting (match, 1) for every match
// re.FindAll(line, -1) would return, in the same order: a table scan when
// the pattern is a byte-set program (see byteSetsOf), FindAll otherwise.
// FindAll is also the scan's differential oracle (FuzzGrepMatchesFindAll).
func grepMap(re *regexp.Regexp) job.MapFunc {
	if p, ok := byteSetsOf(re.String()); ok {
		return p.grep
	}
	return func(key, value []byte, emit job.Emit) {
		for _, m := range re.FindAll(value, -1) {
			emit(m, one)
		}
	}
}

// byteSets is a byte-set program: a match is one byte of each fixed set
// in turn, then every following byte of tail (nil: none) — greedily.
type byteSets struct {
	fixed [][256]bool
	tail  *[256]bool
}

// byteSetsOf compiles pattern when it is a byte-set program: after
// Simplify, a concatenation of one-byte atoms — ASCII literal runes
// (case-folded only when the rune's whole SimpleFold orbit is ASCII) and
// classes lying below utf8.RuneSelf — of which only the last may repeat,
// with a greedy + or, after a non-empty prefix, a greedy *.
//
// For such a pattern FindAll's leftmost-first matches are what a left to
// right scan finds: at the leftmost position where every fixed atom
// matches, the match extends greedily over the tail, and the next match
// is searched from its end. No match is empty. An ASCII byte is always a
// rune of its own and a byte at or above 0x80 can never satisfy an ASCII
// set, so invalid UTF-8 needs no special case.
func byteSetsOf(pattern string) (*byteSets, bool) {
	re, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		return nil, false
	}
	atoms := concatAtoms(re.Simplify(), nil)
	p := &byteSets{}
	for i, a := range atoms {
		if a.Op != syntax.OpPlus && a.Op != syntax.OpStar {
			sets, ok := atomSets(a)
			if !ok {
				return nil, false
			}
			p.fixed = append(p.fixed, sets...)
			continue
		}
		sub := concatAtoms(a.Sub[0], nil)
		if i != len(atoms)-1 || a.Flags&syntax.NonGreedy != 0 || len(sub) != 1 {
			return nil, false
		}
		sets, ok := atomSets(sub[0])
		if !ok || len(sets) != 1 {
			return nil, false
		}
		if a.Op == syntax.OpPlus {
			p.fixed = append(p.fixed, sets[0])
		}
		p.tail = &sets[0]
	}
	return p, len(p.fixed) > 0
}

// concatAtoms appends the factors of re to atoms, flattening nested
// concatenations and unwrapping capture groups.
func concatAtoms(re *syntax.Regexp, atoms []*syntax.Regexp) []*syntax.Regexp {
	switch re.Op {
	case syntax.OpCapture:
		return concatAtoms(re.Sub[0], atoms)
	case syntax.OpConcat:
		for _, sub := range re.Sub {
			atoms = concatAtoms(sub, atoms)
		}
		return atoms
	}
	return append(atoms, re)
}

// atomSets returns the byte set of each one-byte atom a literal or char
// class stands for, and false for any other node or a non-ASCII atom.
func atomSets(re *syntax.Regexp) ([][256]bool, bool) {
	switch re.Op {
	case syntax.OpCharClass:
		var set [256]bool
		for i := 0; i < len(re.Rune); i += 2 {
			if re.Rune[i+1] >= utf8.RuneSelf {
				return nil, false
			}
			for r := re.Rune[i]; r <= re.Rune[i+1]; r++ {
				set[r] = true
			}
		}
		return [][256]bool{set}, true
	case syntax.OpLiteral:
		sets := make([][256]bool, len(re.Rune))
		for i, r := range re.Rune {
			for f := r; ; {
				if f >= utf8.RuneSelf {
					return nil, false
				}
				sets[i][f] = true
				if re.Flags&syntax.FoldCase != 0 {
					f = unicode.SimpleFold(f)
				}
				if f == r {
					break
				}
			}
		}
		return sets, true
	}
	return nil, false
}

// grep is the Grep map function of a byte-set program: it emits each
// match as a sub-slice of value, allocating nothing.
func (p *byteSets) grep(key, value []byte, emit job.Emit) {
	first, n := &p.fixed[0], len(p.fixed)
	for i := 0; i+n <= len(value); {
		if !first[value[i]] {
			i++
			continue
		}
		k := 1
		for k < n && p.fixed[k][value[i+k]] {
			k++
		}
		if k < n {
			i++
			continue
		}
		end := i + n
		if p.tail != nil {
			for end < len(value) && p.tail[value[end]] {
				end++
			}
		}
		emit(value[i:end], one)
		i = end
	}
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
	bounds := SampleSortBoundaries(in, reducers)
	return job.Spec{
		Name: "TextSort", FS: fsys, Input: in, InputFormat: job.Text,
		Output: out, Reducers: reducers,
		Map:          func(key, value []byte, emit job.Emit) { emit(value, nil) },
		Part:         &kv.RangePartitioner{Boundaries: bounds},
		MapCPUFactor: SortCPUFactor,
		Fingerprint:  sortFingerprint("TextSort", bounds),
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
	bounds := kv.SampleBoundaries(sample, reducers)
	return job.Spec{
		Name: "NormalSort", FS: fsys, Input: in, InputFormat: job.SeqGzip,
		Output: out, Reducers: reducers,
		Map:          func(key, value []byte, emit job.Emit) { emit(key, value) },
		Part:         &kv.RangePartitioner{Boundaries: bounds},
		MapCPUFactor: SortCPUFactor * 1.4, // decompression adds CPU
		Fingerprint:  sortFingerprint("NormalSort", bounds),
	}
}

// sortFingerprint is a sort spec's job.Spec.Fingerprint: its name and an
// FNV-64 hash of its range boundaries, each length-prefixed, so sorts
// partitioned differently never share record work.
func sortFingerprint(name string, bounds [][]byte) string {
	h := fnv.New64a()
	var n [binary.MaxVarintLen64]byte
	for _, b := range bounds {
		h.Write(binary.AppendUvarint(n[:0], uint64(len(b))))
		h.Write(b)
	}
	return fmt.Sprintf("%s %016x", name, h.Sum64())
}
