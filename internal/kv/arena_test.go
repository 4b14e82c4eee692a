package kv

import (
	"bytes"
	"fmt"
	"testing"
)

// slabBytes is what the collector's slab has written since its last
// reset and the capacity of the blocks that hold it.
func slabBytes(c *PartitionCollector) (written, capacity int) {
	for _, b := range c.slab.blocks {
		written += len(b)
		capacity += cap(b)
	}
	return written, capacity
}

// TestSlabGrowsWithTheFill pins the block rule: an arena starts with a
// firstBlockBytes block and doubles up to DefaultBlockBytes, so a small
// task cuts little more than it writes; blocks are separate allocations,
// so a record that ends a block is as safe to grow in place as any other;
// and a record of DefaultBlockBytes/4 or more gets a block of its own.
func TestSlabGrowsWithTheFill(t *testing.T) {
	t.Run("capacity", func(t *testing.T) {
		for _, fill := range []int{100, 10 << 10, 1 << 20} {
			c := NewPartitionCollector(4, 0, nil, HashPartitioner{})
			written, capacity := 0, 0
			for i := 0; written < fill; i++ {
				c.Emit(fmt.Appendf(nil, "key-%08d", i), []byte("1"))
				written, capacity = slabBytes(c)
			}
			if capacity > 2*written+firstBlockBytes {
				t.Errorf("fill %d: slab capacity %d for %d bytes written, want <= %d", fill, capacity, written, 2*written+firstBlockBytes)
			}
			for bi, b := range c.slab.blocks {
				if cap(b) > DefaultBlockBytes {
					t.Errorf("fill %d: block %d has capacity %d, want <= %d", fill, bi, cap(b), DefaultBlockBytes)
				}
			}
			if got := cap(c.slab.blocks[0]); got != firstBlockBytes {
				t.Errorf("fill %d: first block has capacity %d, want %d", fill, got, firstBlockBytes)
			}
			// A spill keeps the block being filled, and with it the growth.
			filling := cap(c.slab.blocks[len(c.slab.blocks)-1])
			c.spill(nil)
			if len(c.slab.blocks) != 1 || cap(c.slab.blocks[0]) != filling {
				t.Errorf("fill %d: after a spill the slab has %d blocks, want the %d-byte one being filled", fill, len(c.slab.blocks), filling)
			}
			c.Finish()
		}
	})

	t.Run("block boundaries", func(t *testing.T) {
		// Fill the 4, 8, 16 and 32 KB blocks exactly, each ending in the
		// count "9", then start the 64 KB block.
		var a Arena
		var recs [][]byte
		for _, size := range []int{4 << 10, 8 << 10, 16 << 10, 32 << 10} {
			for left := size - 1; left > 0; left -= min(left, 1000) {
				recs = append(recs, a.Copy(bytes.Repeat([]byte{byte('a' + len(recs)%26)}, min(left, 1000))))
			}
			recs = append(recs, a.Copy([]byte("9")))
		}
		recs = append(recs, a.Copy([]byte("next")))
		for bi, want := range []int{4 << 10, 8 << 10, 16 << 10, 32 << 10} {
			if b := a.blocks[bi]; len(b) != want || cap(b) != want {
				t.Fatalf("block %d: len %d cap %d, want both %d", bi, len(b), cap(b), want)
			}
		}
		want := make([]string, len(recs))
		for i, r := range recs {
			want[i] = string(r)
		}
		// Grow every record past its end in place: each "9" through
		// SumCombiner, which makes it "10", the others by one byte.
		for i, r := range recs {
			var grown []byte
			wantGrown := want[i] + "+"
			if string(r) == "9" {
				grown, wantGrown = SumCombiner(nil, [][]byte{r, []byte("1")})[0], "10"
			} else {
				grown = append(r, '+')
			}
			if string(grown) != wantGrown {
				t.Fatalf("record %d grew to %.20q, want %.20q", i, grown, wantGrown)
			}
			for j, r := range recs {
				if string(r) != want[j] {
					t.Fatalf("growing record %d changed record %d to %.20q", i, j, r)
				}
			}
		}
	})

	t.Run("dedicated block", func(t *testing.T) {
		var a Arena
		a.Copy([]byte("small"))
		big := a.Copy(bytes.Repeat([]byte("x"), DefaultBlockBytes/4))
		after := a.Copy([]byte("after"))
		if len(a.blocks) != 2 || cap(a.blocks[0]) != firstBlockBytes || cap(a.blocks[1]) != DefaultBlockBytes/4 {
			t.Fatalf("blocks after a %d-byte record: %d, capacities %d and %d; want the %d-byte block and a dedicated one",
				len(big), len(a.blocks), cap(a.blocks[0]), cap(a.blocks[len(a.blocks)-1]), firstBlockBytes)
		}
		if &a.blocks[0][len("small")] != &after[0] {
			t.Fatalf("the record after the dedicated block did not go on filling block 0")
		}
	})
}
