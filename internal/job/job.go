// Package job defines the engine-agnostic description of a batch
// key-value job — input file, map function, combiner, reducer,
// partitioner — together with input-format record readers and a
// sequential reference executor used to verify every engine's output.
//
// The three engines (internal/mr, internal/rdd, internal/core) all accept
// a job.Spec, so each BigDataBench workload is written once and runs on
// Hadoop-like MapReduce, the Spark-like RDD engine, and DataMPI.
package job

import (
	"bytes"
	"fmt"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/kv"
)

// Format identifies how block bytes decode into records.
type Format int

const (
	// Text records are newline-separated lines; the map key is nil.
	Text Format = iota
	// Seq records are kv-encoded pairs (BigDataBench sequence files).
	Seq
	// SeqGzip records are kv-encoded pairs compressed with gzip, as
	// produced by BigDataBench's ToSeqFile with GzipCodec (the Normal
	// Sort input).
	SeqGzip
)

func (f Format) String() string {
	switch f {
	case Text:
		return "text"
	case Seq:
		return "seq"
	case SeqGzip:
		return "seq+gzip"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// Borrowable reports whether a block's records alias the block itself,
// which is immutable, so that a sink may keep them without a copy (see
// kv.PartitionCollector.Borrow): true for Text and Seq. SeqGzip records
// alias an inflate buffer that Reader.Close recycles.
func (f Format) Borrowable() bool { return f == Text || f == Seq }

// Emit passes one intermediate record out of a map function. Every
// receiver copies key and value before it returns (the kv collector into
// its slab, RunSequential into fresh slices), so the caller may emit from a buffer it reuses for the
// next record — and an Emit implementation must keep copying. The one
// exception is a collector lent the task's block (kv's
// PartitionCollector.Borrow): it keeps a record that lies in that
// immutable block as it is, and still copies any other. The input
// side leans on the same rule: a map function's key and value come from a
// Reader and are only good until it returns (see Reader for which formats
// alias the block and which a recycled inflate buffer).
type Emit func(key, value []byte)

// MapFunc transforms one input record into intermediate records. Engines
// run the map side of a job ahead of its simulated tasks, on worker
// goroutines, so a MapFunc may run on several goroutines at once — for
// different blocks of one job and across jobs. It must not share mutable
// state between calls: any scratch it keeps from one call to the next is
// per goroutine (a sync.Pool, as bdb's accumulators use).
type MapFunc func(key, value []byte, emit Emit)

// Spec describes a job independently of the engine that runs it.
type Spec struct {
	Name        string
	FS          *dfs.FS
	Input       *dfs.File
	InputFormat Format
	Output      string // output file path ("" = discard)
	Reducers    int

	// Map, Combine, Part and Reduce may run at the same time on
	// different goroutines — for different blocks and partitions of one
	// job and across jobs — because the engines run each map side and
	// each reduce tail ahead of its tasks: none of them may share mutable
	// state between calls, and scratch any of them keeps from one call to
	// the next is per goroutine (a sync.Pool, as bdb's accumulators use).
	Map     MapFunc
	Combine kv.Combiner // optional map-side aggregation
	Reduce  kv.Reducer  // nil = identity (emit pairs as grouped)
	Part    kv.Partitioner

	// Fingerprint names what the record functions compute. Two specs
	// with the same non-empty fingerprint promise the same InputFormat,
	// Map, Combine, Part and Reduce, so an engine may compute a block's
	// map output (and a reduce task's output over map outputs it keeps)
	// once and hand it to the other jobs that ask for the same block and
	// shape; simulated charges do not change. Empty (the default)
	// shares nothing. A constructor sets it when its record work depends
	// only on its arguments (bdb.WordCountSpec, GrepSpec, TextSortSpec,
	// NormalSortSpec and the three Naive Bayes counting jobs); a wrapper that changes what Map, Combine, Part or
	// Reduce computes must clear it.
	Fingerprint string

	// MapCPUFactor scales the engines' per-byte map CPU cost relative to
	// plain record parsing (1.0). K-means distance computation, for
	// example, is far more CPU-intensive per byte than Sort's identity map.
	MapCPUFactor float64

	// Ported marks a job whose application code is a port of Mahout's
	// actuating logic and data structures, as the paper's Naive Bayes is
	// (Section 4.6); each engine's cost profile says what that costs
	// (taskrt.Profile.PortedCPUFactor).
	Ported bool

	// SaturatingIntermediate declares that the job's intermediate and
	// output data sizes are bounded by key cardinality (a vocabulary, a
	// pattern set, a cluster count) rather than growing with the input —
	// true for WordCount, Grep, Naive Bayes counting and K-means partial
	// sums, false for Sort. Under data scaling (see internal/dfs) such data is
	// charged at its true, unscaled size; scaling it with the input would
	// overcharge aggregates by orders of magnitude. Normalize defaults it
	// to "a combiner is present", which holds for every BigDataBench
	// workload in this suite.
	SaturatingIntermediate bool

	// Err is set by a constructor that could not build the job from its
	// arguments (bdb.GrepSpec given a pattern that does not compile) in
	// place of a panic at job-description time. Every engine rejects such
	// a spec at submission and RunSequential returns the error: Result.Err
	// is set, nothing is charged, no task runs.
	Err error

	// identityReduce records that Reduce was defaulted by Normalize, so
	// engines can skip the per-key grouping entirely: identity reduction
	// of a key-sorted slice is the slice itself.
	identityReduce bool
}

// Normalize fills defaults in place.
func (s *Spec) Normalize() {
	if s.Reducers <= 0 {
		s.Reducers = 1
	}
	if s.Part == nil {
		s.Part = kv.HashPartitioner{}
	}
	if s.MapCPUFactor <= 0 {
		s.MapCPUFactor = 1
	}
	if s.Reduce == nil {
		s.Reduce = IdentityReduce
		s.identityReduce = true
	}
	if s.Combine != nil {
		s.SaturatingIntermediate = true
	}
}

// EmitScale returns the nominal-bytes multiplier for intermediate and
// output data: the filesystem scale for volume-preserving jobs (Sort), or
// 1 for saturating aggregations.
func (s *Spec) EmitScale() float64 {
	if s.SaturatingIntermediate {
		return 1
	}
	if s.FS != nil {
		return s.FS.Config().Scale
	}
	return 1
}

// IdentityReduce emits each value under its key unchanged.
func IdentityReduce(key []byte, values [][]byte) []kv.Pair {
	out := make([]kv.Pair, 0, len(values))
	for _, v := range values {
		out = append(out, kv.Pair{Key: key, Value: v})
	}
	return out
}

// HasIdentityReduce reports whether the (normalized) spec's reducer is
// the defaulted identity. Identity reduction re-emits every (key, value)
// in grouping order, which for a key-sorted input is exactly the input,
// so an engine returns its merged run instead of grouping it.
func (s *Spec) HasIdentityReduce() bool { return s.identityReduce }

// Result reports a finished job.
type Result struct {
	Engine  string
	Job     string
	Start   float64 // simulated start time
	End     float64
	Elapsed float64
	// Phases maps engine phase names ("map", "shuffle+reduce", "O", "A",
	// "stage0", "stage1", ...) to their durations.
	Phases     map[string]float64
	OutputFile *dfs.File
	// OutRecords counts the reduce output records of an mr or core job,
	// written or not (Output ""). rdd leaves it 0.
	OutRecords int64
	// Counters holds engine execution statistics: task counts, locality,
	// shuffle volume (nominal bytes), spills — the observability surface
	// of a JobTracker UI.
	Counters map[string]int64
	Err      error
}

// AddCounter increments a named counter, allocating the map lazily.
func (r *Result) AddCounter(name string, n int64) {
	if r.Counters == nil {
		r.Counters = map[string]int64{}
	}
	r.Counters[name] += n
}

// String summarizes the result.
func (r Result) String() string {
	if r.Err != nil {
		return fmt.Sprintf("%s %s FAILED after %.1fs: %v", r.Engine, r.Job, r.Elapsed, r.Err)
	}
	return fmt.Sprintf("%s %s %.1fs", r.Engine, r.Job, r.Elapsed)
}

// Engine runs jobs on the simulated cluster.
type Engine interface {
	Name() string
	Run(spec Spec) Result
}

// Records decodes a whole block into a slice: a Reader drained into a
// slice sized once from a count of the block's records. It returns the
// records and the decoded ("inflated") byte count, which differs from
// len(data) for compressed formats. The engines' per-task map paths pull
// from a Reader instead; Records is for the callers that keep the records
// (an iteration's load phase, a key sample, a cached source partition),
// which is also why it never closes the Reader: the records it returns
// alias the block, or for SeqGzip an inflate buffer that is now theirs.
func Records(format Format, data []byte) (pairs []kv.Pair, inflated int, err error) {
	var rd Reader
	if err := rd.Open(format, data); err != nil {
		return nil, 0, err
	}
	pairs = make([]kv.Pair, 0, rd.count())
	for k, v, ok := rd.Next(); ok; k, v, ok = rd.Next() {
		pairs = append(pairs, kv.Pair{Key: k, Value: v})
	}
	if err := rd.Err(); err != nil {
		return nil, rd.Inflated(), err
	}
	return pairs, rd.Inflated(), nil
}

// MapBlock runs the spec's map function over one input block, record by
// record, and returns what the engines charge for it: the block's record
// count and its decoded size (0 for a block that did not open). emit
// must copy what it keeps (Emit's contract), because the block's inflate
// buffer is recycled on return.
func (s *Spec) MapBlock(data []byte, emit Emit) (records, inflated int, err error) {
	var rd Reader
	if err := rd.Open(s.InputFormat, data); err != nil {
		return 0, 0, err
	}
	for k, v, ok := rd.Next(); ok; k, v, ok = rd.Next() {
		s.Map(k, v, emit)
	}
	rd.Close()
	return rd.Records(), rd.Inflated(), rd.Err()
}

// AppendTextLine appends one line the way Hadoop's TextOutputFormat
// writes it to dst: "key\tvalue\n", or "key\n" for an empty value.
func AppendTextLine(dst, key, value []byte) []byte {
	dst = append(dst, key...)
	if len(value) > 0 {
		dst = append(dst, '\t')
		dst = append(dst, value...)
	}
	return append(dst, '\n')
}

// EncodeTextOutput renders pairs as AppendTextLine lines into a buffer of
// their exact size: the oracle of taskrt's reduce tail, which renders
// merged groups straight into text.
func EncodeTextOutput(pairs []kv.Pair) []byte {
	size := 0
	for _, p := range pairs {
		size += len(p.Key) + 1
		if len(p.Value) > 0 {
			size += 1 + len(p.Value)
		}
	}
	buf := make([]byte, 0, size)
	for _, p := range pairs {
		buf = AppendTextLine(buf, p.Key, p.Value)
	}
	return buf
}

// ReadTextOutput gathers a job's output part files (files whose names
// start with prefix) and parses TextOutputFormat lines back into pairs.
// It reads metadata directly without charging simulated time; intended for
// verification, not for simulated dataflow.
func ReadTextOutput(fsys *dfs.FS, prefix string) []kv.Pair {
	var out []kv.Pair
	var rd Reader
	for _, f := range fsys.ListPrefix(prefix) {
		// Concatenate the file's blocks before splitting: output writers
		// flush at block boundaries that may fall mid-line.
		var data []byte
		for _, blk := range f.Blocks {
			data = append(data, blk.Data...)
		}
		_ = rd.Open(Text, data) // Text never fails to open
		for _, line, ok := rd.Next(); ok; _, line, ok = rd.Next() {
			if len(line) == 0 {
				continue
			}
			if i := bytes.IndexByte(line, '\t'); i >= 0 {
				out = append(out, kv.Pair{Key: append([]byte(nil), line[:i]...), Value: append([]byte(nil), line[i+1:]...)})
			} else {
				out = append(out, kv.Pair{Key: append([]byte(nil), line...)})
			}
		}
	}
	return out
}

// RunSequential executes the spec's logic directly, with no cluster or
// simulation — the correctness oracle for engine tests. It returns the
// reduced output pairs of every partition concatenated in partition order
// (each partition internally key-sorted).
func RunSequential(spec Spec) ([]kv.Pair, error) {
	if spec.Err != nil {
		return nil, spec.Err
	}
	spec.Normalize()
	parts := make([][]kv.Pair, spec.Reducers)
	emit := func(k, v []byte) {
		p := spec.Part.Partition(k, spec.Reducers)
		parts[p] = append(parts[p], kv.Pair{Key: append([]byte(nil), k...), Value: append([]byte(nil), v...)})
	}
	for _, blk := range spec.Input.Blocks {
		if _, _, err := spec.MapBlock(blk.Data, emit); err != nil {
			return nil, err
		}
	}
	var out []kv.Pair
	for _, part := range parts {
		kv.SortPairs(part)
		out = append(out, kv.GroupReduce(part, spec.Reduce)...)
	}
	return out, nil
}
