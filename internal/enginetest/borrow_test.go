package enginetest_test

import (
	"bytes"
	"crypto/sha256"
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
	"github.com/datampi/datampi-go/internal/rdd"
)

// hashBlocks hashes the bytes of every block of files, in order.
func hashBlocks(files ...*dfs.File) [sha256.Size]byte {
	h := sha256.New()
	for _, f := range files {
		for _, b := range f.Blocks {
			h.Write(b.Data)
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestSortsLeaveTheirInputIntact: the map side of a job without a
// combiner keeps records that lie in a Text or Seq input block as they
// are, so its map output aliases the input. On every engine, Text Sort,
// Normal Sort (gzip and plain Seq input), a Text Sort whose map emits
// half its records from a buffer it overwrites, and a second Text Sort
// over the same input must each equal job.RunSequential, and no input
// block may change by a byte.
func TestSortsLeaveTheirInputIntact(t *testing.T) {
	engines := map[string]func(fs *dfs.FS) job.Engine{
		"mr":   func(fs *dfs.FS) job.Engine { return mr.New(fs, mr.DefaultConfig()) },
		"rdd":  func(fs *dfs.FS) job.Engine { return rdd.New(fs, rdd.DefaultConfig()) },
		"core": func(fs *dfs.FS) job.Engine { return core.New(fs, core.DefaultConfig()) },
	}
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			c := cluster.New(cluster.DefaultHardware())
			fs := dfs.New(c, dfs.Config{BlockSize: 8 * cluster.MB, Replication: 3, Scale: 256, Seed: 1})
			text := bdb.GenerateTextFile(fs, "/text", bdb.LDAWiki1W(), 3, 64*cluster.MB)
			seqGz, err := bdb.ToSeqFile(fs, "/text", "/seqgz")
			if err != nil {
				t.Fatal(err)
			}
			var parts [][]byte
			for _, b := range text.Blocks {
				var enc []byte
				for _, line := range bytes.Split(bytes.TrimSuffix(b.Data, []byte{'\n'}), []byte{'\n'}) {
					enc = kv.Encode(enc, kv.Pair{Key: line, Value: line})
				}
				parts = append(parts, enc)
			}
			seq := fs.PreloadParts("/seq", parts)
			before := hashBlocks(text, seqGz, seq)

			seqSort := bdb.NormalSortSpec(fs, seqGz, "/out/seq", 4)
			seqSort.Input, seqSort.InputFormat, seqSort.Fingerprint = seq, job.Seq, ""
			// Map functions of different blocks may run at once (see
			// job.Spec), so the overwritten buffer is per goroutine.
			var scratch sync.Pool
			fromBuffer := bdb.TextSortSpec(fs, text, "/out/buffer", 4)
			fromBuffer.Fingerprint = ""
			fromBuffer.Map = func(key, value []byte, emit job.Emit) {
				if len(value)%2 == 0 {
					emit(value, nil)
					return
				}
				buf, _ := scratch.Get().(*[]byte)
				if buf == nil {
					buf = new([]byte)
				}
				*buf = append((*buf)[:0], value...)
				emit(*buf, nil)
				for i := range *buf {
					(*buf)[i] = '#'
				}
				scratch.Put(buf)
			}
			eng := mk(fs)
			for _, spec := range []job.Spec{
				bdb.TextSortSpec(fs, text, "/out/text", 4),
				bdb.NormalSortSpec(fs, seqGz, "/out/seqgz", 4),
				seqSort,
				fromBuffer,
				bdb.TextSortSpec(fs, text, "/out/again", 4),
			} {
				if res := eng.Run(spec); res.Err != nil {
					t.Fatalf("%s: %v", spec.Output, res.Err)
				}
				enginetest.AssertMatchesSequential(t, fs, spec.Output+"/", spec)
			}
			if hashBlocks(text, seqGz, seq) != before {
				t.Fatal("an input block changed while the sorts ran")
			}
		})
	}
}
