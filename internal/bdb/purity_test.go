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
// every engine (taskrt.Ahead and the process's record store, map side
// and reduce tail alike), so that work may depend on its arguments alone.
// Every engine runs the reduce tails of unfingerprinted specs ahead too,
// several partitions and jobs at once, so those are checked as well: a
// K-means iteration. For each
// spec, concurrent taskrt.MapBlock calls on one block give the partitions
// a lone call gives; concurrent taskrt.ReduceTail calls over each
// partition of every block's map output give the text and record count a
// lone call gives; and Reduce over a cloned key group leaves the group's
// values byte-identical: a reducer never writes into the values it is
// handed.
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
	vec, _ := GenerateVectorFile(fsys, "/vec", 3, 256*cluster.KB)
	cents, err := InitialCentroids(vec, 5)
	if err != nil {
		t.Fatal(err)
	}
	docs := GenerateLabeledDocs(fsys, "/docs", 3, 256*cluster.KB)
	specs := map[string]job.Spec{
		"WordCount":    WordCountSpec(fsys, text, "/out", nParts),
		"Grep":         GrepSpec(fsys, text, "/out", "th[ae]", nParts),
		"TextSort":     TextSortSpec(fsys, text, "/out", nParts),
		"NormalSort":   NormalSortSpec(fsys, seq, "/out", nParts),
		"KMeansIter":   kmeansIterSpec(fsys, vec, "/out", nParts, cents),
		"NBTermFreq":   NBTermFreqSpec(fsys, docs, "/out", nParts),
		"NBLabelTerm":  NBLabelTermSpec(fsys, docs, "/out", nParts),
		"NBLabelCount": NBLabelCountSpec(fsys, docs, "/out", nParts),
	}
	unshared := map[string]bool{"KMeansIter": true}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			if spec.Fingerprint == "" != unshared[name] {
				t.Fatalf("fingerprint %q", spec.Fingerprint)
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
			checkReduceTails(t, &spec, nParts, concurrent, rounds)
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

// checkReduceTails runs taskrt.ReduceTail over each of the nParts
// partitions of every block's map output (a lone taskrt.MapBlock each)
// from concurrent goroutines at once, rounds times, and requires the
// text and record count of a lone call.
func checkReduceTails(t *testing.T, spec *job.Spec, nParts, concurrent, rounds int) {
	t.Helper()
	var maps []taskrt.Mapped
	for _, blk := range spec.Input.Blocks {
		maps = append(maps, taskrt.MapBlock(spec, blk, nParts, 0, 1))
	}
	type tail struct {
		text    []byte
		records int
	}
	total := 0
	for pi := range nParts {
		runs := make([][]kv.Pair, len(maps))
		for i, m := range maps {
			runs[i] = m.Out.Parts[pi]
		}
		var want tail
		want.text, want.records = taskrt.ReduceTail(spec, runs)
		total += want.records
		for round := range rounds {
			got := make([]tail, concurrent)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i].text, got[i].records = taskrt.ReduceTail(spec, runs)
				}()
			}
			wg.Wait()
			for i, g := range got {
				if g.records != want.records || !bytes.Equal(g.text, want.text) {
					t.Fatalf("round %d, call %d: partition %d's tail has %d records in %d bytes, a lone call's %d in %d",
						round, i, pi, g.records, len(g.text), want.records, len(want.text))
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no reduce tail had a record")
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
