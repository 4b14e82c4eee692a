package bdb

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/taskrt"
)

// TestFingerprintedSpecsArePure: a spec with a fingerprint has its record
// work shared between jobs and run on several goroutines at once, on
// every engine (taskrt.Ahead and the engine's record table, map side and
// reduce tail alike), so that work may depend on its arguments alone. For
// each fingerprinted constructor, concurrent taskrt.MapBlock calls on one
// block give the partitions a lone call gives, and Reduce over a cloned
// key group leaves the group's values byte-identical: a reducer never
// writes into the values it is handed.
func TestFingerprintedSpecsArePure(t *testing.T) {
	const nParts, concurrent, rounds = 4, 4, 3
	// Enough threads that the concurrent calls interleave on any box.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(concurrent, runtime.GOMAXPROCS(0))))
	fsys := freshFS(256*cluster.KB, 1)
	text := GenerateTextFile(fsys, "/text", LDAWiki1W(), 3, 256*cluster.KB)
	seq, err := ToSeqFile(fsys, "/text", "/seq")
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]job.Spec{
		"WordCount":  WordCountSpec(fsys, text, "/out", nParts),
		"Grep":       GrepSpec(fsys, text, "/out", "th[ae]", nParts),
		"TextSort":   TextSortSpec(fsys, text, "/out", nParts),
		"NormalSort": NormalSortSpec(fsys, seq, "/out", nParts),
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			if spec.Fingerprint == "" {
				t.Fatal("the spec has no fingerprint")
			}
			spec.Normalize()
			blk := spec.Input.Blocks[0]
			want := taskrt.MapBlock(&spec, blk, nParts, 0, 1)
			if want.Err != nil || want.Out.OutRecords == 0 {
				t.Fatalf("a lone call: %v, %v records", want.Err, want.Out.OutRecords)
			}
			for round := range rounds {
				got := make([]taskrt.Mapped, concurrent)
				var wg sync.WaitGroup
				for i := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[i] = taskrt.MapBlock(&spec, blk, nParts, 0, 1)
					}()
				}
				wg.Wait()
				for i, m := range got {
					if m.Err != nil {
						t.Fatalf("round %d, call %d: %v", round, i, m.Err)
					}
					for pi, part := range m.Out.Parts {
						if at, ok := samePairs(part, want.Out.Parts[pi]); !ok {
							t.Fatalf("round %d, call %d: partition %d differs from a lone call's at pair %d", round, i, pi, at)
						}
					}
				}
			}
			kv.MergeGroups(want.Out.Parts, func(key []byte, values [][]byte) {
				clones := make([][]byte, len(values))
				for i, v := range values {
					clones[i] = bytes.Clone(v)
				}
				spec.Reduce(key, clones)
				for i, v := range values {
					if !bytes.Equal(clones[i], v) {
						t.Fatalf("Reduce(%q) wrote value %d: %q, was %q", key, i, clones[i], v)
					}
				}
			})
		})
	}
}

// samePairs reports whether a and b hold equal pairs in order, and
// otherwise the index of the first that differs.
func samePairs(a, b []kv.Pair) (int, bool) {
	for i := range min(len(a), len(b)) {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return i, false
		}
	}
	return min(len(a), len(b)), len(a) == len(b)
}
