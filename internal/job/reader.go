package job

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"github.com/datampi/datampi-go/internal/kv"
)

// Reader pulls one block's records one at a time, without building the
// []kv.Pair that Records returns. The zero value is ready for Open and a
// Reader may be opened again after its block is drained:
//
//	var rd job.Reader
//	if err := rd.Open(format, blk.Data); err != nil { ... }
//	for k, v, ok := rd.Next(); ok; k, v, ok = rd.Next() { ... }
//	if err := rd.Err(); err != nil { ... }
//
// Ownership. Text and Seq records alias the block, which is immutable.
// SeqGzip records alias an inflate buffer drawn from a pool shared by
// every simulation in the process: Close hands that buffer to the next
// Open, so call it only once nothing still refers to a record Next
// returned — that is, after a drain whose every sink copied (job.Emit's
// contract: the kv collector). A caller that keeps the records as they
// are (Records, and through it an rdd cache) never calls Close and the
// buffer is the garbage collector's.
type Reader struct {
	format   Format
	rest     []byte  // undecoded tail of the block (of the inflated bytes for SeqGzip)
	pooled   *[]byte // SeqGzip: the inflate buffer rest points into
	inflated int
	records  int
	err      error
}

// Open starts reading data as a block of the given format. A SeqGzip
// block is inflated here, so a corrupt gzip stream is Open's error and
// Inflated is valid as soon as Open returns; a malformed Seq record
// surfaces from Err once Next has reached it.
func (r *Reader) Open(format Format, data []byte) error {
	*r = Reader{format: format}
	switch format {
	case Text, Seq:
		r.rest = data
	case SeqGzip:
		buf, err := inflate(data)
		if err != nil {
			return fmt.Errorf("job: gunzip: %w", err)
		}
		r.pooled, r.rest = buf, *buf
	default:
		return fmt.Errorf("job: unknown format %v", format)
	}
	r.inflated = len(r.rest)
	return nil
}

// Next returns the next record; ok is false at the end of the block or at
// the first malformed record (see Err). Text records are the block's
// lines with a nil key: a trailing empty line is dropped, interior empty
// lines are records.
func (r *Reader) Next() (key, value []byte, ok bool) {
	if len(r.rest) == 0 {
		return nil, nil, false
	}
	if r.format == Text {
		if i := bytes.IndexByte(r.rest, '\n'); i >= 0 {
			value, r.rest = r.rest[:i], r.rest[i+1:]
		} else {
			value, r.rest = r.rest, nil
		}
		r.records++
		return nil, value, true
	}
	p, rest, err := kv.Decode(r.rest)
	if err != nil {
		r.err, r.rest = err, nil
		return nil, nil, false
	}
	r.rest = rest
	r.records++
	return p.Key, p.Value, true
}

// Err returns the error that ended the drain early, if one did.
func (r *Reader) Err() error { return r.err }

// Inflated returns the block's decoded byte count, which differs from
// len(data) for compressed formats.
func (r *Reader) Inflated() int { return r.inflated }

// Records returns how many records Next has returned: the block's record
// count once the drain is over.
func (r *Reader) Records() int { return r.records }

// Close recycles the inflate buffer of a SeqGzip block (see Reader for
// when that is allowed) and is a no-op for the other formats.
func (r *Reader) Close() {
	if r.pooled != nil {
		inflateBufs.Put(r.pooled)
		r.pooled, r.rest = nil, nil
	}
}

// count returns how many records the rest of the block holds (up to the
// first malformed one), without consuming them.
func (r *Reader) count() int {
	if r.format == Text {
		n := bytes.Count(r.rest, []byte{'\n'})
		if len(r.rest) > 0 && r.rest[len(r.rest)-1] != '\n' {
			n++
		}
		return n
	}
	n := 0
	for buf := r.rest; len(buf) > 0; n++ {
		for field := 0; field < 2; field++ {
			size, w := binary.Uvarint(buf)
			if w <= 0 || uint64(len(buf)-w) < size {
				return n
			}
			buf = buf[w+int(size):]
		}
	}
	return n
}

// gunzipper is a reusable gzip decoder together with the byte source it
// reads, so that inflating a block allocates neither.
type gunzipper struct {
	zr  gzip.Reader
	src bytes.Reader
}

// The pools are shared by every simulation in the process (the parallel
// sweep runner has many in flight); sync.Pool is what makes that safe.
var (
	gunzippers  = sync.Pool{New: func() any { return new(gunzipper) }}
	inflateBufs = sync.Pool{New: func() any { return new([]byte) }}
)

// trustedInflateRatio is how far beyond the compressed size the ISIZE
// trailer is believed when sizing the inflate buffer up front (text
// deflates 3-4:1). A corrupt or hostile trailer can claim 4 GB; a stream
// that really expands further just grows the buffer as it goes.
const trustedInflateRatio = 64

// inflate decompresses a gzip stream (every member of it, as
// gzip.Reader does) into a pooled buffer sized from the stream's ISIZE
// trailer — the uncompressed length of its last member, which for the
// one-member blocks ToSeqFile writes is the whole answer; the buffer
// still grows if the trailer understates.
func inflate(data []byte) (*[]byte, error) {
	gz := gunzippers.Get().(*gunzipper)
	defer func() {
		gz.src.Reset(nil) // do not pin the block from the pool
		gunzippers.Put(gz)
	}()
	gz.src.Reset(data)
	if err := gz.zr.Reset(&gz.src); err != nil {
		return nil, err
	}
	want := 0
	if len(data) >= 4 {
		want = min(int(binary.LittleEndian.Uint32(data[len(data)-4:])), trustedInflateRatio*len(data))
	}
	bp := inflateBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	// One spare byte lets the read that finds io.EOF happen in place.
	if cap(buf) < want+1 {
		buf = make([]byte, 0, want+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := gz.zr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*bp = buf
			inflateBufs.Put(bp)
			return nil, err
		}
	}
	*bp = buf
	return bp, nil
}
