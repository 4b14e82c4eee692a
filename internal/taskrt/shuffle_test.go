package taskrt

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/metrics"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/trace"
	"github.com/datampi/datampi-go/internal/transport"
)

// runAttempt runs body as one task attempt on node and drives the
// simulation to completion.
func runAttempt(t *testing.T, c *cluster.Cluster, tr *trace.Tracer, node int, body func(p *sim.Proc, att *sched.Attempt)) {
	t.Helper()
	ctl := sched.Solo(c.Eng, c.N())
	ctl.Tracker().SetTracer(tr)
	ctl.Launch(sched.TaskSpec{
		Name: "consumer", Node: node, Pool: ctl.Pool("test", 1), Group: "test",
		Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
			body(p, att)
			return nil, nil
		},
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFetch(t *testing.T) {
	const nominal, records = 64 * cluster.MB, 1e5
	hw := cluster.New(cluster.DefaultHardware())
	diskSecs := nominal / hw.Node(0).Disk.Capacity()
	wireSecs := nominal / hw.HW.NetLinkBW
	cases := []struct {
		name     string
		src, dst int
		staged   bool
		srcDown  bool
		wantSecs func(got float64) bool
		wantWire float64 // staged wire bytes
	}{
		{name: "local", src: 2, dst: 2, wantSecs: func(got float64) bool { return got == diskSecs }},
		// The slower of the overlapped disk read and fabric flow.
		{name: "remote", src: 1, dst: 2, wantSecs: func(got float64) bool { return got >= wireSecs && got < diskSecs+wireSecs }},
		// Staged: deserialize on the consumer follows the wire.
		{name: "staged remote", src: 1, dst: 2, staged: true, wantWire: nominal,
			wantSecs: func(got float64) bool { return got > wireSecs }},
		// Staged local: no wire, but the consumer still deserializes.
		{name: "staged local", src: 2, dst: 2, staged: true,
			wantSecs: func(got float64) bool { return got >= diskSecs }},
		// Fetch never consults liveness — Outputs.Pull routes around a
		// dead source first (refetch or regenerate) — so a fetch that
		// slips through still terminates and charges like any other
		// instead of hanging.
		{name: "dead source", src: 1, dst: 2, srcDown: true, wantSecs: func(got float64) bool { return got >= wireSecs }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, b := testBase()
			b.Prof = metrics.NewProfiler(c, 1)
			b.Transport().SetEnabled(tc.staged)
			if tc.srcDown {
				c.NodeDown(tc.src)
			}
			tr := trace.New(trace.Config{})
			var secs float64
			runAttempt(t, c, tr, tc.dst, func(p *sim.Proc, att *sched.Attempt) {
				f := b.Fetches(p, att, "m")
				start := c.Eng.Now()
				f.Fetch(7, tc.src, nominal, records, 0)
				secs = c.Eng.Now() - start
				if p.BlockReason != "" {
					t.Errorf("BlockReason %q left set after Fetch", p.BlockReason)
				}
				f.Fetch(8, tc.src, nominal, records, 0)
				f.Done()
			})
			if !tc.wantSecs(secs) {
				t.Fatalf("fetch took %.4fs (disk alone %.4fs, wire alone %.4fs)", secs, diskSecs, wireSecs)
			}
			if got := b.Transport().Stats().BytesWire; got != 2*tc.wantWire {
				t.Fatalf("staged wire bytes = %.0f, want %.0f", got, 2*tc.wantWire)
			}
			if rx := c.Net.RxIntegral(tc.dst); (rx > 0) != (tc.src != tc.dst) {
				t.Fatalf("fabric delivered %.0f bytes to node %d for a fetch from node %d", rx, tc.dst, tc.src)
			}
			// The chain: attempt <- fetch 8 <- fetch 7, both "net" spans
			// under the attempt, named after the producer.
			net := tr.FindByCat("net")
			if len(net) != 2 || net[0].Name != "fetch:m7" || net[1].Name != "fetch:m8" {
				t.Fatalf("fetch spans: %+v", net)
			}
			att := tr.Span(net[0].Parent)
			if att == nil || len(net[1].Deps) != 1 || net[1].Deps[0] != net[0].ID ||
				len(att.Deps) == 0 || att.Deps[len(att.Deps)-1] != net[1].ID {
				t.Fatalf("fetch chain broken: attempt %+v, fetches %+v %+v", att, net[0], net[1])
			}
		})
	}
}

// bufferBalance pushes fetch sizes through a Buffer the way a reduce task
// does and checks its conservation laws: every byte added is in memory or
// spilled, memory is charged for exactly the buffered bytes, the spill
// threshold is honoured, and Release returns the account to where it
// started.
func bufferBalance(t *testing.T, capBytes float64, fetches []float64, charge bool) {
	t.Helper()
	c, b := testBase()
	b.Prof = metrics.NewProfiler(c, 1)
	mem := c.Node(3).Mem
	mem.MustAlloc(1 * cluster.MB) // the task's own heap: the buffer must not free it
	base := mem.Used()
	runAttempt(t, c, nil, 3, func(p *sim.Proc, att *sched.Attempt) {
		var bufMem *sim.Memory
		if charge {
			bufMem = mem
		}
		buf := b.Buffer(p, 3, capBytes, bufMem)
		fetched, spilled := 0.0, 0.0
		for i, n := range fetches {
			fetched += n
			s := buf.Add(n)
			spilled += s
			if (s > 0) != (buf.buffered == 0 && n > 0 && s > capBytes) {
				t.Fatalf("fetch %d of %.0f: spilled %.0f, buffered %.0f, cap %.0f", i, n, s, buf.buffered, capBytes)
			}
			if buf.buffered > capBytes {
				t.Fatalf("fetch %d: %.0f bytes buffered past the %.0f cap", i, buf.buffered, capBytes)
			}
			if math.Abs(buf.buffered+buf.spilled-fetched) > 1e-6*fetched || buf.spilled != spilled {
				t.Fatalf("fetch %d: buffered %.0f + spilled %.0f != fetched %.0f", i, buf.buffered, buf.spilled, fetched)
			}
			want := base
			if charge {
				want += buf.buffered
			}
			if math.Abs(mem.Used()-want) > 1 {
				t.Fatalf("fetch %d: %.0f bytes charged, want %.0f", i, mem.Used(), want)
			}
		}
		start := c.Eng.Now()
		buf.Charge(&job.Spec{}, nil)
		if read := c.Eng.Now() > start; read != (spilled > 0) {
			t.Fatalf("read-back ran=%v with %.0f bytes spilled", read, spilled)
		}
		buf.Release()
		buf.Release() // idempotent: tasks defer it and also call it on restart
	})
	if math.Abs(mem.Used()-base) > 1 {
		t.Fatalf("memory at %.0f after Release, started at %.0f", mem.Used(), base)
	}
}

func TestBufferBalance(t *testing.T) {
	const kb = cluster.KB
	for name, tc := range map[string]struct {
		cap     float64
		fetches []float64
	}{
		"never fills":       {64 * kb, []float64{kb, 2 * kb, 3 * kb}},
		"exactly at cap":    {6 * kb, []float64{kb, 2 * kb, 3 * kb}},
		"one byte past":     {6*kb - 1, []float64{kb, 2 * kb, 3 * kb, kb}},
		"every fetch":       {kb, []float64{2 * kb, 2 * kb, 2 * kb}},
		"spill then refill": {4 * kb, []float64{3 * kb, 3 * kb, kb, kb, 3 * kb, 0, kb}},
		"empty fetches":     {4 * kb, []float64{0, 0, 0}},
		"no fetches":        {4 * kb, nil},
		"unlimited":         {math.Inf(1), []float64{1e9, 1e9}},
	} {
		for _, charge := range []bool{true, false} {
			t.Run(name, func(t *testing.T) { bufferBalance(t, tc.cap, tc.fetches, charge) })
		}
	}
}

// FuzzBufferBalance derives a threshold and a fetch sequence hovering
// around it from the fuzz input.
func FuzzBufferBalance(f *testing.F) {
	f.Add(uint16(4096), []byte{1, 2, 3})
	f.Add(uint16(1), []byte{0, 255, 0, 255})
	f.Add(uint16(1000), []byte{250, 250, 250, 250, 1})
	f.Add(uint16(65535), []byte{})
	f.Add(uint16(300), []byte{128, 127, 129, 64, 200, 7, 7, 7})
	f.Fuzz(func(t *testing.T, capBytes uint16, sizes []byte) {
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		fetches := make([]float64, len(sizes))
		for i, s := range sizes {
			// 0 .. 2x the cap in 1/128 steps, so sums land on, just under
			// and just over the threshold.
			fetches[i] = float64(s) / 128 * float64(capBytes)
		}
		bufferBalance(t, float64(capBytes), fetches, len(sizes)%2 == 0)
	})
}

// framedPerRecord is the second framing form the engines used to carry —
// scaled record by record into a running sum — kept as the oracle for the
// one form that is left.
func framedPerRecord(acc float64, part []kv.Pair, scale float64) float64 {
	for _, pr := range part {
		acc += float64(pr.Size()+recordFraming) * scale
	}
	return acc
}

func wordsMap(key, value []byte, emit job.Emit) {
	for _, w := range bytes.Fields(value) {
		emit(w, []byte("1"))
	}
}

// TestMapSide holds MapBlock and Collect to what each engine computed
// inline before they existed: the collector configured the engine's way,
// every partition framed and counted at the emit scale, the input at the
// filesystem's.
func TestMapSide(t *testing.T) {
	text := bytes.Repeat([]byte("mpi data key value pair comm rank task data key\n"), 200)
	for _, tc := range []struct {
		name    string
		scale   float64
		nParts  int
		sortBuf float64 // nominal bytes
		combine kv.Combiner
	}{
		{"mr: the sort buffer spills", 8192, 4, 2048 * 8192, nil},
		{"mr: combined, charged unscaled", 8192, 4, 2048 * 8192, kv.SumCombiner},
		{"core: one send buffer per A rank, never spills", 8192, 8, 0, nil},
		{"core: combined", 131072, 8, 0, kv.SumCombiner},
		{"one partition, unscaled", 1, 1, 0, nil},
		{"a scale that is not a power of two", 1000, 4, 0, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.New(cluster.DefaultHardware())
			fs := dfs.New(c, dfs.Config{BlockSize: float64(len(text)) * tc.scale, Replication: 1, Scale: tc.scale, Seed: 1})
			b := NewBase("test", fs, &Profile{}, transport.HadoopProfile())
			spec := job.Spec{FS: fs, Input: fs.Preload("/in", text), Map: wordsMap, Combine: tc.combine, Reducers: tc.nParts}
			spec.Normalize()
			blk := spec.Input.Blocks[0]

			coll := kv.NewPartitionCollector(tc.nParts, int(tc.sortBuf/tc.scale), spec.Combine, spec.Part)
			records, inflated, err := spec.MapBlock(blk.Data, coll.Emit)
			if err != nil {
				t.Fatal(err)
			}
			parts, spilled, merged := coll.Finish()
			emitScale := tc.scale
			if tc.combine != nil {
				emitScale = 1
			}

			m := MapBlock(&spec, blk, tc.nParts, tc.sortBuf, b.Scale())
			inNominal, inRecords, out := m.InNominal, m.InRecords, m.Out
			if m.Err != nil {
				t.Fatal(m.Err)
			}
			if inNominal != float64(inflated)*tc.scale || inRecords != float64(records)*tc.scale {
				t.Fatalf("input %v bytes, %v records; want %v, %v", inNominal, inRecords, float64(inflated)*tc.scale, float64(records)*tc.scale)
			}
			if out.Spilled != float64(spilled)*emitScale || out.Merged != float64(merged)*emitScale {
				t.Fatalf("spilled %v, merged %v; the collector says %d, %d actual bytes", out.Spilled, out.Merged, spilled, merged)
			}
			if len(out.Parts) != tc.nParts || len(out.Parts) != len(parts) {
				t.Fatalf("%d partitions, want %d", len(out.Parts), len(parts))
			}
			sumNominal, sumRecords, running := 0.0, 0.0, 0.0
			for pi, part := range parts {
				if !slices.EqualFunc(out.Parts[pi], part, func(a, b kv.Pair) bool { return a.String() == b.String() }) {
					t.Fatalf("partition %d differs from the collector's", pi)
				}
				if want := framedPerRecord(0, part, emitScale); out.Nominal[pi] != want || out.Nominal[pi] != Framed(part, emitScale) {
					t.Fatalf("partition %d: %v nominal bytes, want %v", pi, out.Nominal[pi], want)
				}
				if want := float64(len(part)) * emitScale; out.Records[pi] != want {
					t.Fatalf("partition %d: %v nominal records, want %v", pi, out.Records[pi], want)
				}
				sumNominal += out.Nominal[pi]
				sumRecords += out.Records[pi]
				running = framedPerRecord(running, part, emitScale)
			}
			// The sum mr kept per partition and the one core ran across them.
			if out.OutNominal != sumNominal || out.OutNominal != running || out.OutRecords != sumRecords || sumRecords == 0 {
				t.Fatalf("totals %v bytes, %v records; want %v (%v record by record), %v", out.OutNominal, out.OutRecords, sumNominal, running, sumRecords)
			}
		})
	}

	t.Run("errors name their side", func(t *testing.T) {
		_, b := testBase()
		spec := job.Spec{Input: b.FS.Preload("/in", text), Map: wordsMap, Part: outOfRange{}}
		spec.Normalize()
		if err := MapBlock(&spec, spec.Input.Blocks[0], 4, 0, b.Scale()).Err; err == nil || !strings.HasPrefix(err.Error(), "output: ") {
			t.Fatalf("partitioner error: %v", err)
		}
		spec.Part, spec.InputFormat = kv.HashPartitioner{}, job.SeqGzip
		if err := MapBlock(&spec, spec.Input.Blocks[0], 4, 0, b.Scale()).Err; err == nil || !strings.HasPrefix(err.Error(), "input: ") {
			t.Fatalf("undecodable block: %v", err)
		}
	})
}

type outOfRange struct{}

func (outOfRange) Partition(key []byte, n int) int { return n }

// TestReduceSide holds Buffer.Charge, the cost half of the reduce tail,
// to the charge it reads off the engine's profile: the three-term CPU
// charge in its order of evaluation (times the ported factor of a ported
// spec), the runtime's overhead beside it, the spilled bytes read back.
// It merges nothing: that is ReduceTail's. Each case's rates make any
// other order of the three terms round differently.
func TestReduceSide(t *testing.T) {
	runs := [][]kv.Pair{
		{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("c"), Value: []byte("2")}},
		{{Key: []byte("a"), Value: []byte("3")}, {Key: []byte("b"), Value: []byte("4")}},
	}
	const fetched = 96 * cluster.MB
	for _, tc := range []struct {
		name   string
		cost   Profile
		cap    float64
		ported float64 // the factor the ported spec pays
	}{
		{"mr: JVM per-byte costs, GC overhead, buffer spills",
			Profile{ReduceCPUPerByte: 0.5e-7, SortCPUPerByte: 0.22e-7, RecordCPU: 0.41e-6, Overhead: 0.55, MemPressureGC: 2.5},
			64 * cluster.MB, 1},
		{"core: native costs, flat overhead, all in memory",
			Profile{ReduceCPUPerByte: 0.5e-7, SortCPUPerByte: 0.22e-7, RecordCPU: 0.47e-6, Overhead: 0.08, PortedCPUFactor: 1.3},
			512 * cluster.MB, 1.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, b := testBase()
			b.cost = &tc.cost
			b.Prof = metrics.NewProfiler(c, 1)
			spec := job.Spec{FS: b.FS, Ported: true}
			spec.Normalize()
			var secs float64
			var seen atomic.Int32
			defer func(prev func([][]kv.Pair)) { mergeSeam = prev }(mergeSeam)
			mergeSeam = func([][]kv.Pair) { seen.Add(1) }
			cpu := c.Node(3).CPU
			runAttempt(t, c, nil, 3, func(p *sim.Proc, att *sched.Attempt) {
				buf := b.Buffer(p, 3, tc.cap, nil)
				buf.Add(fetched / 2)
				buf.Add(fetched / 2)
				start := c.Eng.Now()
				buf.Charge(&spec, runs)
				secs = c.Eng.Now() - start
			})
			totalNominal, nominalRecords := float64(fetched), 4*spec.EmitScale()
			wantCPU := tc.ported * (tc.cost.ReduceCPUPerByte*totalNominal +
				tc.cost.SortCPUPerByte*totalNominal +
				tc.cost.RecordCPU*nominalRecords)
			if got := tc.cost.reduceCPU(&spec, totalNominal, nominalRecords); got != wantCPU {
				t.Fatalf("reduceCPU = %v core-s, want %v bit for bit", got, wantCPU)
			}
			wantOverhead := tc.cost.Overhead * wantCPU // an idle node: no memory pressure
			if got := cpu.BusyIntegral(); math.Abs(got-(wantCPU+wantOverhead)) > 1e-9*got {
				t.Fatalf("%v core-s charged, want %v cpu + %v overhead", got, wantCPU, wantOverhead)
			}
			readBack := 0.0
			if fetched > tc.cap {
				readBack = fetched / c.Node(3).Disk.Capacity()
			}
			// Task CPU, its overhead and the read-back run side by side.
			if want := max(wantCPU, wantOverhead, readBack); math.Abs(secs-want) > 1e-9*want {
				t.Fatalf("took %v s, want %v (cpu %v, overhead %v, read-back %v)", secs, want, wantCPU, wantOverhead, readBack)
			}
			if n := seen.Load(); n != 0 {
				t.Fatalf("the cost half merged %d sets of runs", n)
			}
		})
	}
}

// tailKeys is the key alphabet of tailRuns: the empty key, keys that tie
// on their padded 8-byte prefix ("a" and "a\x00"), and keys past it.
var tailKeys = []string{"", "a", "a\x00", "ab", "b", "abababab", "abababab\x00", "ababababb"}

// tailRec is one record of a tailRuns input: its run, its key (an index
// into tailKeys) and its value byte.
type tailRec struct{ run, key, val byte }

func encodeTailRuns(nRuns byte, recs ...tailRec) []byte {
	out := []byte{nRuns}
	for _, r := range recs {
		out = append(out, r.run, r.key, r.val)
	}
	return out
}

// tailRuns decodes fuzz input into 0-4 runs, each sorted under
// kv.Compare. The first byte is the run count; each record is three
// bytes: run, key and value. A value byte divisible by 4 is the empty
// value; any other renders as a decimal 0-7, so values recur across runs.
func tailRuns(data []byte) [][]kv.Pair {
	if len(data) == 0 {
		return nil
	}
	runs := make([][]kv.Pair, int(data[0])%5)
	for data = data[1:]; len(runs) > 0 && len(data) >= 3 && len(data) < 3*512; data = data[3:] {
		val := []byte{}
		if data[2]%4 != 0 {
			val = kv.AppendInt(nil, int64(data[2]>>2)%8)
		}
		r := int(data[0]) % len(runs)
		runs[r] = append(runs[r], kv.Pair{Key: []byte(tailKeys[int(data[1])%len(tailKeys)]), Value: val})
	}
	for _, r := range runs {
		kv.SortPairs(r)
	}
	return runs
}

// tailReducers are the reduce functions FuzzReduceTailMatchesOracle picks
// from: the defaulted identity, the WordCount sum, and one that emits
// nothing for some keys and several pairs, one with an empty value, for
// the others.
var tailReducers = []kv.Reducer{
	nil,
	kv.SumReducer,
	func(key []byte, values [][]byte) []kv.Pair {
		if len(key)%2 == 0 {
			return nil
		}
		return []kv.Pair{{Key: key, Value: bytes.Join(values, []byte(","))}, {Key: key}}
	},
}

// FuzzReduceTailMatchesOracle holds ReduceTail, the record half of
// every engine's reduce tail, to the pair tail it replaced:
// job.EncodeTextOutput over kv.GroupReduce over kv.MergeRuns (MergeRuns
// alone for the identity reducer), byte for byte, with that tail's record
// count; nil text and the same count for a spec with no Output. A second
// call, rendering other lines, must leave the first call's text as it
// was: the lines are copied out of the pooled buffer. No simulation runs.
func FuzzReduceTailMatchesOracle(f *testing.F) {
	f.Add([]byte{}, uint8(0), true)
	f.Add(encodeTailRuns(3), uint8(1), true) // runs, all empty
	// Empty values render as key-only lines; the empty key, as lines that
	// start with their tab or are empty.
	f.Add(encodeTailRuns(2, tailRec{0, 1, 0}, tailRec{1, 1, 5}, tailRec{1, 0, 0}, tailRec{0, 0, 9}), uint8(0), true)
	// Equal keys across runs, "a" and "a\x00" tying on their prefix,
	// later runs holding smaller values; one run left empty.
	equal := encodeTailRuns(4, tailRec{0, 1, 29}, tailRec{1, 1, 5}, tailRec{2, 2, 9}, tailRec{1, 2, 13},
		tailRec{0, 5, 6}, tailRec{2, 6, 6}, tailRec{1, 5, 1}, tailRec{2, 7, 0}, tailRec{0, 7, 2})
	for r := range uint8(len(tailReducers)) {
		f.Add(equal, r, true)
		f.Add(equal, r, false) // no Output: nil text, same count
	}
	f.Fuzz(func(t *testing.T, data []byte, reducer uint8, output bool) {
		runs := tailRuns(data)
		spec := job.Spec{Reduce: tailReducers[int(reducer)%len(tailReducers)]}
		if output {
			spec.Output = "/out"
		}
		spec.Normalize()
		var clones [][]kv.Pair
		for _, r := range runs {
			c := make([]kv.Pair, len(r))
			for i, pr := range r {
				c[i] = pr.Clone()
			}
			clones = append(clones, c)
		}
		want := kv.MergeRuns(clones)
		if !spec.HasIdentityReduce() {
			want = kv.GroupReduce(want, spec.Reduce)
		}
		var wantText []byte
		if output {
			wantText = job.EncodeTextOutput(want)
		}

		var seen atomic.Int32
		defer func(prev func([][]kv.Pair)) { mergeSeam = prev }(mergeSeam)
		mergeSeam = func([][]kv.Pair) { seen.Add(1) }
		text, records := ReduceTail(&spec, runs)
		sort := job.Spec{Output: "/out"}
		sort.Normalize()
		other, _ := ReduceTail(&sort, [][]kv.Pair{{{Key: []byte("~~~~"), Value: []byte("~")}}})
		if n := seen.Load(); n != 2 {
			t.Fatalf("merge seam saw %d sets of runs, want 2", n)
		}
		if !bytes.Equal(text, wantText) || (text == nil) != (len(wantText) == 0) || cap(text) != len(text) {
			t.Fatalf("text %q (cap %d), want %q", text, cap(text), wantText)
		}
		if records != len(want) {
			t.Fatalf("%d records, want %d", records, len(want))
		}
		if string(other) != "~~~~\t~\n" {
			t.Fatalf("second call's text %q", other)
		}
	})
}
