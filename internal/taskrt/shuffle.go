package taskrt

import (
	"fmt"
	"strconv"
	"sync"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/trace"
)

// recordFraming is the per-record framing overhead, in actual bytes, of an
// intermediate pair on disk or on the wire (key and value lengths plus the
// record marker). Every engine pays it at the same point.
const recordFraming = 6

// Framed returns part's framed size in nominal bytes: the actual bytes
// summed as an integer and scaled once.
func Framed(part []kv.Pair, scale float64) float64 {
	b := 0
	for _, pr := range part {
		b += pr.Size() + recordFraming
	}
	return float64(b) * scale
}

// mergeSeam, when set, sees every set of runs before MergeRuns,
// MergeReduce or ReduceTail merges it, and the runs a reducer pulled
// when it takes a tail computed ahead (Pending.Tail). Every merge
// requires each run sorted; the engine tests set it (through MergeSeam)
// to assert that of every run an engine hands over.
var mergeSeam func(runs [][]kv.Pair)

// MergeRuns merges sorted runs into one sorted run.
func MergeRuns(runs [][]kv.Pair) []kv.Pair {
	if mergeSeam != nil {
		mergeSeam(runs)
	}
	return kv.MergeRuns(runs)
}

// MergeReduce merges sorted runs and reduces each key's group as it
// meets it: kv.GroupReduce over MergeRuns, without the merged slice. It
// is the merge of an rdd collect, whose pairs stay pairs.
func MergeReduce(runs [][]kv.Pair, reduce kv.Reducer) []kv.Pair {
	if mergeSeam != nil {
		mergeSeam(runs)
	}
	return kv.MergeReduce(runs, reduce)
}

// MergeSeam is where a test installs the check that sees the runs handed
// to MergeRuns, MergeReduce and ReduceTail, and those of a reducer
// taking its tail from Pending.Tail. ReduceTail runs on the Ahead workers
// too, so the check may run on several goroutines at once: it must be
// safe for that. Install it while no job runs.
func MergeSeam() *func(runs [][]kv.Pair) { return &mergeSeam }

// Partitioned is a map-side task's output: one sorted run per consumer,
// each sized in nominal framed bytes and nominal records, and what the
// collector spilled and re-read on the way (nominal bytes; zero without a
// sort buffer).
type Partitioned struct {
	Parts            [][]kv.Pair
	Nominal, Records []float64 // per partition
	OutNominal       float64   // sum of Nominal
	OutRecords       float64   // sum of Records
	Spilled, Merged  float64
}

// Collect finishes coll and sizes its partitions at scale nominal bytes
// (and records) per actual one.
func Collect(coll *kv.PartitionCollector, scale float64) (Partitioned, error) {
	parts, spilled, merged := coll.Finish()
	if err := coll.Err(); err != nil {
		return Partitioned{}, fmt.Errorf("output: %w", err)
	}
	out := Partitioned{Parts: parts, Nominal: make([]float64, len(parts)), Records: make([]float64, len(parts)),
		Spilled: float64(spilled) * scale, Merged: float64(merged) * scale}
	for pi, part := range parts {
		out.Nominal[pi] = Framed(part, scale)
		out.Records[pi] = float64(len(part)) * scale
		out.OutNominal += out.Nominal[pi]
		out.OutRecords += out.Records[pi]
	}
	return out, nil
}

// Mapped is one map-side task's record work: the input's decoded size
// and record count, both nominal, and the sized output — or the error
// that stopped it, reading "input: ..." or "output: ..." for the engine
// to prefix, and the step it struck at.
type Mapped struct {
	InNominal, InRecords float64
	Out                  Partitioned
	Err                  error
	Failed               MapStep
}

// MapStep names how far a task's record work got before its error (zero:
// none): the cost half charges what came before it.
type MapStep uint8

const (
	MapOpen    MapStep = iota + 1 // the block did not open (a fill: did not decode): nothing was read
	MapDecode                     // a record did not decode: the block was read
	MapCollect                    // the collector failed: the input was read and mapped
)

// MapBlock streams blk through spec's map function into a collector of
// nParts sorted, combined partitions that spills past sortBuf nominal
// bytes (0: never), at scale nominal bytes per actual one (the
// filesystem's Scale). Text and Seq blocks are lent to the collector, so
// map output that lies in the block stays there (kv's
// PartitionCollector.Borrow). It touches no simulation state, so it may
// run ahead of the task (see Ahead).
func MapBlock(spec *job.Spec, blk *dfs.Block, nParts int, sortBuf, scale float64) Mapped {
	coll := kv.NewPartitionCollector(nParts, int(sortBuf/scale), spec.Combine, spec.Part)
	if spec.InputFormat.Borrowable() {
		coll.Borrow(blk.Data)
	}
	records, inflated, err := spec.MapBlock(blk.Data, coll.Emit)
	m := Mapped{InNominal: float64(inflated) * scale}
	if err != nil {
		m.Err, m.Failed = fmt.Errorf("input: %w", err), MapDecode
		if inflated == 0 { // a block that did not open has no size (job.Spec.MapBlock)
			m.Failed = MapOpen
		}
		return m
	}
	m.InRecords = float64(records) * scale
	m.collect(spec, coll)
	return m
}

// MapPairs is MapBlock over records already decoded (an rdd cache
// partition) of nominal bytes.
func MapPairs(spec *job.Spec, pairs []kv.Pair, nParts int, nominal, scale float64) Mapped {
	coll := kv.NewPartitionCollector(nParts, 0, spec.Combine, spec.Part)
	emit := coll.Emit // one method value, not one per record
	for _, pr := range pairs {
		spec.Map(pr.Key, pr.Value, emit)
	}
	m := Mapped{InNominal: nominal, InRecords: float64(len(pairs)) * scale}
	m.collect(spec, coll)
	return m
}

// collect sizes coll's partitions into m at spec's emit scale, or records
// why they failed.
func (m *Mapped) collect(spec *job.Spec, coll *kv.PartitionCollector) {
	if m.Out, m.Err = Collect(coll, spec.EmitScale()); m.Err != nil {
		m.Failed = MapCollect
	}
}

// StartSend charges the staged sender-side path (serialize, then copy or
// zero-copy into the transfer buffers) for bytes of shuffle output
// produced on node. It is a no-op on the fluid model, where the wire is
// the whole transfer and nothing is charged at write time.
func (b *Base) StartSend(wg *sim.WaitGroup, node int, bytes, records float64) {
	if b.tp.Enabled() && bytes > 0 {
		wg.Add(1)
		b.tp.SendStages(node, bytes, records, wg.Done)
	}
}

// Fetches is one consuming attempt's side of a disk-materialized shuffle
// edge. Its fetch spans chain each to the previous fetch and to the
// producing attempt's span: the shuffle's serialized wall time becomes a
// dependency path the critical-path walk attributes to "net".
type Fetches struct {
	b     *Base
	p     *sim.Proc
	att   *sched.Attempt
	label string // span name prefix: "fetch:" + label + producer index
	last  uint64 // previous fetch's span ID
}

// Fetches opens the consuming side of a shuffle edge for att, running on p.
func (b *Base) Fetches(p *sim.Proc, att *sched.Attempt, label string) Fetches {
	return Fetches{b: b, p: p, att: att, label: label}
}

// Fetch pulls nominal bytes (records nominal records) that producer
// number idx materialized on src's disk to the attempt's node: the source
// disk read overlapped with the transfer, as the serving daemon streams
// it. On the fluid model the transfer is a bare fabric flow, skipped when
// the source is local; on the staged model it is wire (remote only) plus
// deserialize with per-record costs on the consumer. producerSpan is the
// producing attempt's span ID (0 when unknown).
func (f *Fetches) Fetch(idx, src int, nominal, records float64, producerSpan uint64) {
	b, dst := f.b, f.att.Node()
	var fsp *trace.Span
	if tr := f.att.Tracer(); tr != nil {
		tsp := f.att.TraceSpan()
		fsp = tr.BeginChild(tsp, "fetch:"+f.label+strconv.Itoa(idx), "net", dst, tsp.Tid, b.C.Eng.Now()).
			Annotate("src", strconv.Itoa(src)).
			Annotate("bytes", strconv.FormatFloat(nominal, 'f', 0, 64)).
			DepOn(producerSpan).
			DepOn(f.last)
	}
	var wg sim.WaitGroup
	wg.Add(1)
	b.C.Node(src).Disk.Start(nominal, wg.Done)
	// A disabled FetchStages would post a zero-delay event for a local
	// fetch where the fluid model posts none, so branch before calling it.
	if b.tp.Enabled() {
		wg.Add(1)
		b.tp.FetchStages(src, dst, nominal, records, wg.Done)
	} else if src != dst {
		wg.Add(1)
		b.C.Net.StartFlow(src, dst, nominal, wg.Done)
	}
	b.Prof.AddDiskRead(src, nominal)
	wg.WaitAs(f.p, "shuffle-io")
	if fsp != nil {
		fsp.EndAt(b.C.Eng.Now())
		f.last = fsp.ID
	}
}

// Done closes the edge: the attempt's span depends on its last fetch.
func (f *Fetches) Done() { f.att.TraceSpan().DepOn(f.last) }

// Buffer is a reduce-side task's in-memory shuffle buffer: fetched bytes
// accumulate in memory and spill to the local disk as one merged run
// whenever they exceed the cap; the final merge reads the spilled runs
// back.
type Buffer struct {
	b        *Base
	p        *sim.Proc
	node     int
	cap      float64
	buffered float64     // nominal bytes held in memory
	spilled  float64     // nominal bytes spilled to the local disk
	mem      *sim.Memory // charged for the buffered bytes; nil when the engine accounts its heap itself
	held     float64     // bytes currently charged to mem
}

// Buffer opens a shuffle buffer for the task running on p at node that
// spills past capBytes. A non-nil mem is charged for the bytes buffered.
func (b *Base) Buffer(p *sim.Proc, node int, capBytes float64, mem *sim.Memory) Buffer {
	return Buffer{b: b, p: p, node: node, cap: capBytes, mem: mem}
}

// Add accounts nominal bytes pulled into the buffer and returns the bytes
// it spilled to make room (0 when the buffer still fits).
func (rb *Buffer) Add(nominal float64) float64 {
	rb.buffered += nominal
	if rb.mem != nil {
		rb.held += nominal
		rb.mem.MustAlloc(nominal)
	}
	if rb.buffered <= rb.cap {
		return 0
	}
	// In-memory buffer overflow: spill the merged runs to local disk.
	spill := rb.buffered
	rb.b.C.Node(rb.node).Disk.Use(rb.p, spill, "shuffle-io")
	rb.b.Prof.AddDiskWrite(rb.node, spill)
	rb.spilled += spill
	rb.buffered = 0
	rb.Release()
	return spill
}

// Release frees the memory the buffered bytes hold. Tasks defer it so a
// kill mid-fetch releases the buffer too.
func (rb *Buffer) Release() {
	if rb.mem != nil {
		rb.mem.Free(rb.held)
		rb.held = 0
	}
}

// textPool holds the reduce tail's line buffer between tasks. A buffer
// grown past maxPooledText is left to the collector rather than pinned.
var textPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledText = 4 << 20

// Charge is the cost half of a reduce tail: the spilled runs come back
// from disk while the task pays CPU (reduceCPU over the nominal bytes
// buffered and the nominal records in runs), with the runtime's Overhead
// beside it.
func (rb *Buffer) Charge(spec *job.Spec, runs [][]kv.Pair) {
	b, total := rb.b, rb.buffered+rb.spilled
	var wg sim.WaitGroup
	if rb.spilled > 0 {
		wg.Add(1)
		b.C.Node(rb.node).Disk.Start(rb.spilled, wg.Done)
		b.Prof.AddDiskRead(rb.node, rb.spilled)
	}
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	// Intermediate record counts follow the same saturation rule as
	// intermediate bytes.
	nominalRecords := float64(n) * spec.EmitScale()
	cpuSec := b.cost.reduceCPU(spec, total, nominalRecords)
	b.StartCPU(&wg, rb.node, cpuSec, b.Overhead(rb.node, cpuSec))
	wg.WaitAs(rb.p, "disk")
}

// ReduceTail is every engine's record half of a reduce tail; it touches
// no simulation state, so it may run ahead of the task (see Tails). It
// merges runs (each sorted) into text lines (job.AppendTextLine),
// rendering each key group as the merge meets it — every value for the
// identity reducer, the reducer's pairs otherwise — and returns them
// exact-size (nil for a spec with no Output) with the output record
// count. Engines call it through Pending.Tail, which shares it between
// jobs of one fingerprint.
func ReduceTail(spec *job.Spec, runs [][]kv.Pair) (text []byte, records int) {
	if mergeSeam != nil {
		mergeSeam(runs)
	}
	identity, encode := spec.HasIdentityReduce(), spec.Output != ""
	if identity && !encode {
		for _, r := range runs {
			records += len(r)
		}
		return nil, records
	}
	bp := textPool.Get().(*[]byte)
	lines := (*bp)[:0]
	kv.MergeGroups(runs, func(key []byte, values [][]byte) {
		if identity {
			records += len(values)
			for _, v := range values {
				lines = job.AppendTextLine(lines, key, v)
			}
			return
		}
		out := spec.Reduce(key, values)
		records += len(out)
		if encode {
			for _, p := range out {
				lines = job.AppendTextLine(lines, p.Key, p.Value)
			}
		}
	})
	if len(lines) > 0 {
		text = make([]byte, len(lines))
		copy(text, lines)
	}
	if cap(lines) <= maxPooledText {
		*bp = lines[:0]
		textPool.Put(bp)
	}
	return text, records
}
