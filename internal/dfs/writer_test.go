package dfs

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/datampi/datampi-go/internal/sim"
)

// copyingWrite is Write as it was before files kept their callers'
// buffers: every write appended to the writer's buffer and every full
// block was flushed as a copy of it. The pattern table holds Write to it.
func copyingWrite(w *Writer, p *sim.Proc, data []byte) error {
	w.buf = append(w.buf, data...)
	abs := w.fs.actualBlockSize()
	for len(w.buf) >= abs {
		if err := w.flushBlock(p, bytes.Clone(w.buf[:abs])); err != nil {
			return err
		}
		w.buf = w.buf[abs:]
	}
	return nil
}

// writeFile writes data to a fresh filesystem as writes of the given
// sizes (consecutive sub-slices of data) through write, then closes the
// file. It returns the file and the simulated time the writer finished.
func writeFile(t *testing.T, data []byte, sizes []int, write func(*Writer, *sim.Proc, []byte) error) (*File, float64) {
	t.Helper()
	c := testCluster()
	fs := New(c, Config{BlockSize: 64, Replication: 3, Scale: 1, Seed: 1, PerBlockOverhead: 0.1})
	var end float64
	c.Eng.Go("writer", func(p *sim.Proc) {
		w := fs.Create("/out", 2)
		off := 0
		for _, n := range sizes {
			if err := write(w, p, data[off:off+n]); err != nil {
				t.Error(err)
				return
			}
			off += n
		}
		if err := w.Close(p); err != nil {
			t.Error(err)
		}
		end = c.Eng.Now()
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/out")
	if err != nil {
		t.Fatal(err)
	}
	return f, end
}

// TestWriteMatchesCopyingWriter: keeping the caller's buffer instead of
// copying it moves no block boundary, no byte and no simulated second.
func TestWriteMatchesCopyingWriter(t *testing.T) {
	ones := make([]int, 150)
	for i := range ones {
		ones[i] = 1
	}
	for name, sizes := range map[string][]int{
		"3.5 blocks in one write":     {224},
		"1-byte writes":               ones,
		"straddling block boundaries": {40, 50, 40, 63, 2},
		"exact multiples":             {64, 128, 64},
		"empty writes":                {0, 10, 0, 0, 54, 0, 64, 0},
		"partial then large":          {10, 300},
		"nothing":                     nil,
	} {
		t.Run(name, func(t *testing.T) {
			total := 0
			for _, n := range sizes {
				total += n
			}
			data := make([]byte, total)
			for i := range data {
				data[i] = byte(i*7 + i/256)
			}
			got, gotEnd := writeFile(t, data, sizes, (*Writer).Write)
			want, wantEnd := writeFile(t, bytes.Clone(data), sizes, copyingWrite)
			if gotEnd != wantEnd {
				t.Fatalf("writer finished at %v s, the copying writer at %v s", gotEnd, wantEnd)
			}
			if len(got.Blocks) != len(want.Blocks) || got.Nominal != want.Nominal {
				t.Fatalf("%d blocks of %v nominal bytes, the copying writer %d of %v", len(got.Blocks), got.Nominal, len(want.Blocks), want.Nominal)
			}
			var all []byte
			for i, b := range got.Blocks {
				w := want.Blocks[i]
				if len(b.Data) != len(w.Data) || b.Nominal != w.Nominal || fmt.Sprint(b.Locations) != fmt.Sprint(w.Locations) {
					t.Fatalf("block %d: %d bytes on %v, the copying writer's %d bytes on %v", i, len(b.Data), b.Locations, len(w.Data), w.Locations)
				}
				all = append(all, b.Data...)
			}
			if !bytes.Equal(all, data) {
				t.Fatal("the file's blocks do not concatenate to what was written")
			}
		})
	}
}

// TestWriteKeepsCallerBuffer: full blocks and a trailing partial block
// are the caller's bytes, not copies; a later Write tops the partial
// block up in memory of its own and leaves the rest of the caller's array
// alone.
func TestWriteKeepsCallerBuffer(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789"), 10)
	more := bytes.Repeat([]byte("z"), 30)
	f, _ := writeFile(t, data, []int{100}, (*Writer).Write)
	for i, b := range f.Blocks {
		if &b.Data[0] != &data[64*i] {
			t.Fatalf("block %d is a copy of the written buffer", i)
		}
	}

	want := bytes.Clone(data)
	f, _ = writeFile(t, data, []int{10}, func(w *Writer, p *sim.Proc, d []byte) error {
		if err := w.Write(p, d); err != nil {
			return err
		}
		return w.Write(p, more)
	})
	if !bytes.Equal(data, want) {
		t.Fatalf("the second Write changed the first one's array past its end: %q", data)
	}
	if got := f.Blocks[0].Data; len(f.Blocks) != 1 || string(got) != string(want[:10])+string(more) {
		t.Fatalf("file holds %d blocks, first %q", len(f.Blocks), got)
	}
}
