package bdb

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"

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
// decompression remains well-defined.
func ToSeqFile(fsys *dfs.FS, textName, seqName string) (*dfs.File, error) {
	src, err := fsys.Open(textName)
	if err != nil {
		return nil, fmt.Errorf("bdb: ToSeqFile: %w", err)
	}
	// One compressor (a flate writer is over a megabyte of state), one
	// record buffer and one output buffer serve every block.
	parts := make([][]byte, 0, len(src.Blocks))
	var enc []byte
	var zbuf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&zbuf, gzip.DefaultCompression) // the level is valid
	for _, blk := range src.Blocks {
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
		if _, err := zw.Write(enc); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
		parts = append(parts, append([]byte(nil), zbuf.Bytes()...))
	}
	return fsys.PreloadParts(seqName, parts), nil
}

// CompressionRatio reports decoded/compressed size for a seq+gzip file —
// the paper's Normal Sort input inflates by roughly this factor when read.
func CompressionRatio(f *dfs.File) (float64, error) {
	var comp, raw float64
	for _, blk := range f.Blocks {
		zr, err := gzip.NewReader(bytes.NewReader(blk.Data))
		if err != nil {
			return 0, err
		}
		n, err := discardAll(zr)
		if err != nil {
			return 0, err
		}
		raw += float64(n)
		comp += float64(len(blk.Data))
	}
	if comp == 0 {
		return 0, fmt.Errorf("bdb: empty file")
	}
	return raw / comp, nil
}

func discardAll(r *gzip.Reader) (int, error) {
	total := 0
	buf := make([]byte, 64<<10)
	for {
		n, err := r.Read(buf)
		total += n
		if err != nil {
			if errors.Is(err, io.EOF) {
				return total, nil
			}
			return total, err
		}
	}
}
