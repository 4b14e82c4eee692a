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
// places whatever the worker count.
func ToSeqFile(fsys *dfs.FS, textName, seqName string) (*dfs.File, error) {
	src, err := fsys.Open(textName)
	if err != nil {
		return nil, fmt.Errorf("bdb: ToSeqFile: %w", err)
	}
	parts := make([][]byte, len(src.Blocks))
	err = eachBlock(len(parts), func() func(int) error {
		// One compressor (a flate writer is over a megabyte of state), one
		// record buffer and one output buffer serve a worker's every block.
		var enc []byte
		var zbuf bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&zbuf, gzip.DefaultCompression) // the level is valid
		return func(i int) error {
			enc = enc[:0]
			for data := src.Blocks[i].Data; len(data) > 0; {
				line, rest, _ := bytes.Cut(data, newline)
				data = rest
				if len(line) == 0 {
					continue
				}
				enc = kv.Encode(enc, kv.Pair{Key: line, Value: line})
			}
			zbuf.Reset()
			zw.Reset(&zbuf)
			if _, err := zw.Write(enc); err != nil {
				return err
			}
			if err := zw.Close(); err != nil {
				return err
			}
			parts[i] = bytes.Clone(zbuf.Bytes())
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
