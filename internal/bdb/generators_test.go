package bdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
)

// hashBlocks hashes a file's block data with each block's length, so a
// byte moved across a block boundary changes the hash.
func hashBlocks(f *dfs.File) string {
	h := sha256.New()
	for _, blk := range f.Blocks {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(blk.Data))))
		h.Write(blk.Data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

// TestGeneratorsByteIdentical pins "same seed, same bytes" for every
// generator. The hashes were recorded with math/rand.Zipf behind the
// sampler and a sequential ToSeqFile; every bench sim_digest sits
// downstream of these bytes. They run on an empty staging store, so they
// pin what the generators make, not what an earlier test left there.
func TestGeneratorsByteIdentical(t *testing.T) {
	t.Cleanup(EmptyStage())
	cases := []struct {
		name string
		gen  func() string
		want string
	}{
		{"lda_wiki1w text seed 1", func() string { return hashBytes(LDAWiki1W().GenerateText(1, 1<<20)) }, "2eb253f38530ec60"},
		{"lda_wiki1w text seed 29", func() string { return hashBytes(LDAWiki1W().GenerateText(29, 1<<20)) }, "e5b33ba0da62592c"},
		{"amazon3 text", func() string { return hashBytes(Amazon(3).GenerateText(7, 256<<10)) }, "28fbed255777d5af"},
		{"text file", func() string {
			return hashBlocks(GenerateTextFile(freshFS(16*cluster.KB, 4), "/text", LDAWiki1W(), 5, 512*1024))
		}, "af5a82b35d54be83"},
		{"vector file", func() string {
			f, truth := GenerateVectorFile(freshFS(16*cluster.KB, 1), "/vec", 13, 96*1024)
			labels := make([]byte, len(truth))
			for i, mi := range truth {
				labels[i] = byte(mi)
			}
			return hashBlocks(f) + "/" + hashBytes(labels)
		}, "fd6d349c21f96d67/cdf0dd574679697e"},
		{"labeled docs", func() string {
			return hashBlocks(GenerateLabeledDocs(freshFS(16*cluster.KB, 1), "/docs", 19, 128*1024))
		}, "d40f67952aa02637"},
		{"seq file", func() string {
			fsys := freshFS(8*cluster.KB, 1)
			GenerateTextFile(fsys, "/text", LDAWiki1W(), 23, 200*1024)
			seq, err := ToSeqFile(fsys, "/text", "/seq")
			if err != nil {
				t.Fatal(err)
			}
			return hashBlocks(seq)
		}, "130eb4a11dae1109"},
	}
	for _, c := range cases {
		if got := c.gen(); got != c.want {
			t.Errorf("%s: hash %s, recorded on the parent %s", c.name, got, c.want)
		}
	}
}

// TestGenerateTextFileIsPrefixStable: a larger text input of one seed
// begins with the smaller one's bytes. At 8 and 16 GB nominal (scale
// 8192, 256 MB blocks, as the figures stage them) the two files share
// every block but the smaller one's last, which is a byte prefix of the
// larger one's block there. The record store's hits across input sizes
// rest on it: equal blocks are one key.
func TestGenerateTextFileIsPrefixStable(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		gen := func(gb float64) *dfs.File {
			return GenerateTextFile(freshFS(256*cluster.MB, 8192), "/text", LDAWiki1W(), seed, gb*cluster.GB)
		}
		small, large := gen(8), gen(16)
		n := len(small.Blocks)
		if n < 2 || len(large.Blocks) <= n {
			t.Fatalf("seed %d: %d and %d blocks", seed, n, len(large.Blocks))
		}
		for i, blk := range small.Blocks[:n-1] {
			if !bytes.Equal(blk.Data, large.Blocks[i].Data) {
				t.Fatalf("seed %d: block %d differs between 8 and 16 GB", seed, i)
			}
		}
		if last := small.Blocks[n-1].Data; !bytes.HasPrefix(large.Blocks[n-1].Data, last) {
			t.Fatalf("seed %d: the 8 GB file's last block (%d bytes) is not a prefix of the 16 GB file's block %d", seed, len(last), n-1)
		}
	}
}
