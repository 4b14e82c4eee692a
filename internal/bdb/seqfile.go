package bdb

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/kv"
)

// ToSeqFile mirrors BigDataBench's ToSeqFile job: it converts a text file
// into a sequence file by copying each line to both the key and the value
// of a record, then compressing each output block with GzipCodec. The
// result is the Normal Sort input.
//
// The conversion happens outside the timed region (the paper runs
// ToSeqFile as a separate preparation job), so this charges no simulated
// time. Each input block becomes one gzip member so block-level
// decompression remains well-defined — and so blocks compress
// independently, on parallel workers, into the same bytes in the same
// places whatever the worker count. A member is a function of its text
// block's bytes, so the staging store deflates each block once for every
// FS that converts equal bytes.
//
// The members are real gzip, not a measured ratio applied to the text:
// Normal Sort's map tasks inflate and decode them (job.SeqGzip), so the
// records they sort, the bytes each engine reads, shuffles and writes,
// and the nominal size of each block, which every disk charge and the
// paper's size axis read, all come from the compressed bytes. A ratio
// would fix each block's size from a sample and leave the records to be
// read from somewhere else; with the store each member costs one deflate
// per process, a small price for keeping Normal Sort's input real.
func ToSeqFile(fsys *dfs.FS, textName, seqName string) (*dfs.File, error) {
	src, err := fsys.Open(textName)
	if err != nil {
		return nil, fmt.Errorf("bdb: ToSeqFile: %w", err)
	}
	parts := make([][]byte, len(src.Blocks))
	err = eachBlock(len(parts), func() func(int) error {
		// One compressor (a flate writer is over a megabyte of state), one
		// record buffer and one output buffer serve a worker's every block
		// that the staging store does not hold; a worker whose blocks it
		// all holds makes none.
		var enc []byte
		var zbuf bytes.Buffer
		var zw *gzip.Writer
		return func(i int) error {
			blk := src.Blocks[i]
			k := stageKey{kind: seqMember, size: len(blk.Data), hash: contentHash(blk)}
			parts[i] = staging(k, blk.Data, func() staged {
				if zw == nil {
					zw, _ = gzip.NewWriterLevel(&zbuf, gzip.DefaultCompression) // the level is valid
				}
				enc = enc[:0]
				for data := blk.Data; len(data) > 0; {
					line, rest, _ := bytes.Cut(data, newline)
					data = rest
					if len(line) == 0 {
						continue
					}
					enc = kv.Encode(enc, kv.Pair{Key: line, Value: line})
				}
				zbuf.Reset()
				zw.Reset(&zbuf)
				zw.Write(enc) // writes to a bytes.Buffer do not fail
				zw.Close()
				return staged{data: bytes.Clone(zbuf.Bytes())}
			}).data
			return nil
		}
	})
	if err != nil {
		return nil, fmt.Errorf("bdb: ToSeqFile: %w", err)
	}
	return fsys.PreloadParts(seqName, parts), nil
}

// eachBlock calls work(i) once for every i in [0, n) from min(GOMAXPROCS,
// n) goroutines and returns when all have exited. newWorker runs once on
// each goroutine, so what it allocates is that worker's own. After a
// failure no further block is started and the first error is returned.
func eachBlock(n int, newWorker func() (work func(i int) error)) error {
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work := newWorker()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if err := work(i); err != nil {
					once.Do(func() { first = err })
					next.Store(int64(n))
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
