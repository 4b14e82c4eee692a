package job_test

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/core"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/enginetest"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/mr"
)

// oracleRecords is job.Records as it was before the Reader: split or
// decode the whole block into slices, inflate with a fresh gzip.Reader
// and io.ReadAll. The Reader and the Records wrapper are pinned to it.
func oracleRecords(format job.Format, data []byte) (pairs []kv.Pair, inflated int, err error) {
	switch format {
	case job.Text:
		lines := splitLines(data)
		pairs = make([]kv.Pair, 0, len(lines))
		for _, ln := range lines {
			pairs = append(pairs, kv.Pair{Key: nil, Value: ln})
		}
		return pairs, len(data), nil
	case job.Seq:
		ps, err := kv.DecodeAll(data)
		return ps, len(data), err
	case job.SeqGzip:
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, 0, fmt.Errorf("job: gunzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, 0, fmt.Errorf("job: gunzip: %w", err)
		}
		if err := zr.Close(); err != nil {
			return nil, 0, err
		}
		ps, err := kv.DecodeAll(raw)
		return ps, len(raw), err
	default:
		return nil, 0, fmt.Errorf("job: unknown format %v", format)
	}
}

// splitLines splits on '\n', dropping a trailing empty line.
func splitLines(data []byte) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			out = append(out, data)
			break
		}
		out = append(out, data[:i])
		data = data[i+1:]
	}
	return out
}

func freshFS(blockSize float64) *dfs.FS {
	c := cluster.New(cluster.DefaultHardware())
	return dfs.New(c, dfs.Config{BlockSize: blockSize, Replication: 3, Scale: 1, Seed: 1, PerBlockOverhead: 0.05})
}

// testBlocks returns one generated text block, the sequence-file bytes
// ToSeqFile makes of it, and those bytes as ToSeqFile compressed them.
func testBlocks(t testing.TB, seed int64, size int) (text, seq, seqGzip []byte) {
	t.Helper()
	fsys := freshFS(float64(2 * size))
	in := bdb.GenerateTextFile(fsys, "/text", bdb.LDAWiki1W(), seed, float64(size))
	f, err := bdb.ToSeqFile(fsys, "/text", "/seq")
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Blocks) != 1 || len(f.Blocks) != 1 {
		t.Fatalf("%d text blocks, %d seq blocks, want one of each", len(in.Blocks), len(f.Blocks))
	}
	seqGzip = f.Blocks[0].Data
	zr, err := gzip.NewReader(bytes.NewReader(seqGzip))
	if err != nil {
		t.Fatal(err)
	}
	if seq, err = io.ReadAll(zr); err != nil {
		t.Fatal(err)
	}
	return in.Blocks[0].Data, seq, seqGzip
}

func drain(rd *job.Reader) []kv.Pair {
	var out []kv.Pair
	for k, v, ok := rd.Next(); ok; k, v, ok = rd.Next() {
		out = append(out, kv.Pair{Key: k, Value: v})
	}
	return out
}

// sameRecords compares record for record; a nil key (Text) must stay nil.
func sameRecords(got, want []kv.Pair) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, oracle has %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) ||
			(got[i].Key == nil) != (want[i].Key == nil) {
			return fmt.Errorf("record %d is %v, oracle has %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkAgainstOracle pins the Reader (drained twice, the second time
// through a recycled inflate buffer) and the Records wrapper to the old
// decoder: same records, same inflated size, an error exactly when the
// oracle has one.
func checkAgainstOracle(t *testing.T, format job.Format, data []byte) {
	t.Helper()
	want, wantInflated, wantErr := oracleRecords(format, data)
	var rd job.Reader
	for pass := 0; pass < 2; pass++ {
		err := rd.Open(format, data)
		var got []kv.Pair
		if err == nil {
			if rd.Inflated() != wantInflated {
				t.Fatalf("pass %d: inflated %d right after Open, oracle has %d", pass, rd.Inflated(), wantInflated)
			}
			got = drain(&rd)
			err = rd.Err()
		}
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("pass %d: error %v, oracle has %v", pass, err, wantErr)
		}
		if err == nil {
			if err := sameRecords(got, want); err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
			if rd.Records() != len(want) {
				t.Fatalf("pass %d: Records() = %d after the drain, oracle has %d", pass, rd.Records(), len(want))
			}
		}
		if _, _, ok := rd.Next(); ok {
			t.Fatalf("pass %d: Next returned a record after the drain ended", pass)
		}
		rd.Close()
	}
	got, inflated, err := job.Records(format, data)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("Records: error %v, oracle has %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if inflated != wantInflated {
		t.Fatalf("Records: inflated %d, oracle has %d", inflated, wantInflated)
	}
	if err := sameRecords(got, want); err != nil {
		t.Fatalf("Records: %v", err)
	}
	if cap(got) != len(got) {
		t.Fatalf("Records: %d records in a slice of capacity %d, want it sized once", len(got), cap(got))
	}
}

func FuzzReaderMatchesRecords(f *testing.F) {
	text, seq, seqGzip := testBlocks(f, 5, 4<<10)
	for _, s := range []string{"", "no trailing newline", "\n\n", "a\n\nb\n", "\n", "a\n", "\na"} {
		f.Add(uint8(job.Text), []byte(s))
	}
	f.Add(uint8(job.Text), text)
	f.Add(uint8(job.Seq), seq)
	f.Add(uint8(job.Seq), []byte{})
	f.Add(uint8(job.Seq), seq[:len(seq)-3])                                                  // truncated value
	f.Add(uint8(job.Seq), []byte{0x80})                                                      // truncated varint
	f.Add(uint8(job.Seq), append(bytes.Repeat([]byte{0xff}, 10), 0x01))                      // varint overflowing 64 bits
	f.Add(uint8(job.Seq), []byte{0x05, 'a'})                                                 // key longer than the block
	f.Add(uint8(job.Seq), []byte{0x01, 'k'})                                                 // no value
	f.Add(uint8(job.Seq), []byte{0x01, 'k', 0x09, 'v'})                                      // value longer than the block
	f.Add(uint8(job.Seq), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 'k'}) // length near 2^63
	f.Add(uint8(job.Seq), []byte{0x00, 0x00, 0x00, 0x00})                                    // empty keys and values
	f.Add(uint8(job.SeqGzip), seqGzip)
	f.Add(uint8(job.SeqGzip), []byte("not gzip"))
	f.Add(uint8(job.SeqGzip), seqGzip[:len(seqGzip)/2])                          // truncated stream
	f.Add(uint8(job.SeqGzip), seqGzip[:len(seqGzip)-2])                          // truncated trailer
	f.Add(uint8(job.SeqGzip), append(slices.Clone(seqGzip), seqGzip...))         // two members
	f.Add(uint8(job.SeqGzip), append(slices.Clone(seqGzip), "trailing junk"...)) // junk after the member
	corrupt := slices.Clone(seqGzip)
	corrupt[len(corrupt)/2] ^= 0x55
	f.Add(uint8(job.SeqGzip), corrupt)
	lying := slices.Clone(seqGzip) // a size trailer claiming 4 GB
	copy(lying[len(lying)-4:], []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(job.SeqGzip), lying)
	var notSeq bytes.Buffer // a valid gzip stream that does not hold records
	zw := gzip.NewWriter(&notSeq)
	zw.Write([]byte("\x7fplain text, not uvarint-framed records"))
	zw.Close()
	f.Add(uint8(job.SeqGzip), notSeq.Bytes())

	f.Fuzz(func(t *testing.T, format uint8, data []byte) {
		checkAgainstOracle(t, job.Format(format%3), data)
	})
}

func TestOpenUnknownFormat(t *testing.T) {
	var rd job.Reader
	if err := rd.Open(job.Format(7), []byte("x")); err == nil {
		t.Fatal("Open accepted a format that does not exist")
	}
	if _, _, ok := rd.Next(); ok || rd.Inflated() != 0 {
		t.Fatal("a Reader that failed to open still yields records")
	}
}

// quartileAllocs runs f n times and returns the lower quartile of one
// call's heap allocations and bytes. Not a mean and not even a median:
// under the race detector sync.Pool drops a quarter of what is Put, an
// Open draws from two pools, and so 44 % of calls find one of them empty
// and build a new flate decompressor or inflate buffer. The lower
// quartile is the warm-pool steady state either way.
func quartileAllocs(n int, f func()) (mallocs, size uint64) {
	ms, bs := make([]uint64, n), make([]uint64, n)
	var before, after runtime.MemStats
	for i := range ms {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		ms[i], bs[i] = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	}
	slices.Sort(ms)
	slices.Sort(bs)
	return ms[n/4], bs[n/4]
}

// TestReaderAllocs: opening and draining a Text or Seq block allocates
// nothing at all; a SeqGzip block, once the pools are warm, builds
// neither a flate decompressor (~40 KB) nor an inflate buffer (the
// block's inflated size, 128 KB here) — what is left, ~4 KB, is the
// huffman link tables compress/flate allocates per deflate block.
func TestReaderAllocs(t *testing.T) {
	text, seq, seqGzip := testBlocks(t, 6, 64<<10)
	var rd job.Reader
	records := 0
	readAll := func(format job.Format, data []byte) func() {
		return func() {
			if err := rd.Open(format, data); err != nil {
				t.Fatal(err)
			}
			for _, _, ok := rd.Next(); ok; _, _, ok = rd.Next() {
			}
			if rd.Err() != nil {
				t.Fatal(rd.Err())
			}
			records = rd.Records()
			rd.Close()
		}
	}
	for _, c := range []struct {
		format job.Format
		data   []byte
	}{{job.Text, text}, {job.Seq, seq}} {
		mallocs, size := quartileAllocs(21, readAll(c.format, c.data))
		t.Logf("%v: %d allocs, %d B per block of %d records", c.format, mallocs, size, records)
		if mallocs != 0 {
			t.Errorf("%v: %d allocs (%d B) per block of %d records, want 0", c.format, mallocs, size, records)
		}
	}
	mallocs, size := quartileAllocs(101, readAll(job.SeqGzip, seqGzip))
	t.Logf("%v: %d allocs, %d B per block of %d records inflating to %d B", job.SeqGzip, mallocs, size, records, len(seq))
	if size > 16<<10 {
		t.Errorf("%v: %d allocs, %d B per block inflating to %d B, want no decompressor and no inflate buffer (<= 16 KB)",
			job.SeqGzip, mallocs, size, len(seq))
	}
}

// TestReadersConcurrently runs Normal Sort — the one workload whose every
// map-side record lives in a pooled inflate buffer — on Hadoop and on
// DataMPI, each on its own cluster and DFS, alone and then in parallel
// goroutines. The gunzip and inflate-buffer pools are the first state in
// internal/job that simulations share: a buffer recycled while a record
// still pointed into it would show up as a corrupted line in one of the
// outputs (and, under -race, as a race).
func TestReadersConcurrently(t *testing.T) {
	type outcome struct {
		out     []kv.Pair
		elapsed float64
		err     error
	}
	sorts := make([]func(check bool) outcome, 0, 4)
	for i, mk := range []func(*dfs.FS) job.Engine{
		func(fsys *dfs.FS) job.Engine { return mr.New(fsys, mr.DefaultConfig()) },
		func(fsys *dfs.FS) job.Engine { return core.New(fsys, core.DefaultConfig()) },
		func(fsys *dfs.FS) job.Engine { return mr.New(fsys, mr.DefaultConfig()) },
		func(fsys *dfs.FS) job.Engine { return core.New(fsys, core.DefaultConfig()) },
	} {
		seed := int64(50 + i) // different lines in every simulation's buffers
		sorts = append(sorts, func(check bool) outcome {
			fsys := freshFS(16 * cluster.KB)
			bdb.GenerateTextFile(fsys, "/text", bdb.LDAWiki1W(), seed, 96*1024)
			seq, err := bdb.ToSeqFile(fsys, "/text", "/seq")
			if err != nil {
				return outcome{err: err}
			}
			spec := bdb.NormalSortSpec(fsys, seq, "/out", 4)
			res := mk(fsys).Run(spec)
			if check && res.Err == nil {
				enginetest.AssertMatchesSequential(t, fsys, "/out", spec)
			}
			return outcome{out: job.ReadTextOutput(fsys, "/out"), elapsed: res.Elapsed, err: res.Err}
		})
	}
	want := make([]outcome, len(sorts))
	for i, sort := range sorts {
		if want[i] = sort(true); want[i].err != nil {
			t.Fatal(want[i].err)
		}
		if len(want[i].out) == 0 {
			t.Fatalf("sort %d wrote no output", i)
		}
	}
	got := make([]outcome, len(sorts))
	var wg sync.WaitGroup
	for i, sort := range sorts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = sort(false)
		}()
	}
	wg.Wait()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("sort %d in parallel differs from the same sort run alone (err %v)", i, got[i].err)
		}
	}
}

// TestEncodeTextOutputExact pins the one-pass sizing to the bytes.Buffer
// rendering it replaced.
func TestEncodeTextOutputExact(t *testing.T) {
	pairs := []kv.Pair{{Key: []byte("k1"), Value: []byte("v1")}, {Key: []byte("justkey")}, {Key: nil, Value: []byte("v")},
		{Key: []byte("tab\tin key"), Value: []byte("nl\nin value")}, {}}
	var want bytes.Buffer
	for _, p := range pairs {
		want.Write(p.Key)
		if len(p.Value) > 0 {
			want.WriteByte('\t')
			want.Write(p.Value)
		}
		want.WriteByte('\n')
	}
	got := job.EncodeTextOutput(pairs)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("encoded %q, want %q", got, want.Bytes())
	}
	if cap(got) != len(got) {
		t.Fatalf("%d bytes in a buffer of capacity %d, want it sized exactly", len(got), cap(got))
	}
	if out := job.EncodeTextOutput(nil); len(out) != 0 {
		t.Fatalf("no pairs encoded to %q", out)
	}
}

var sink int

func benchmarkReader(b *testing.B, format job.Format, data []byte, inflated int) {
	b.SetBytes(int64(inflated))
	b.ReportAllocs()
	var rd job.Reader
	for b.Loop() {
		if err := rd.Open(format, data); err != nil {
			b.Fatal(err)
		}
		for _, v, ok := rd.Next(); ok; _, v, ok = rd.Next() {
			sink += len(v)
		}
		rd.Close()
	}
}

func BenchmarkReaderText(b *testing.B) {
	text, _, _ := testBlocks(b, 7, 64<<10)
	benchmarkReader(b, job.Text, text, len(text))
}

func BenchmarkReaderSeqGzip(b *testing.B) {
	_, seq, seqGzip := testBlocks(b, 7, 64<<10)
	benchmarkReader(b, job.SeqGzip, seqGzip, len(seq))
}

// BenchmarkRecords* time the slice-building wrapper the same blocks go
// through where a caller keeps the records.
func BenchmarkRecordsText(b *testing.B) {
	text, _, _ := testBlocks(b, 7, 64<<10)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for b.Loop() {
		recs, _, _ := job.Records(job.Text, text)
		sink += len(recs)
	}
}

func BenchmarkRecordsSeqGzip(b *testing.B) {
	_, seq, seqGzip := testBlocks(b, 7, 64<<10)
	b.SetBytes(int64(len(seq)))
	b.ReportAllocs()
	for b.Loop() {
		recs, _, _ := job.Records(job.SeqGzip, seqGzip)
		sink += len(recs)
	}
}
