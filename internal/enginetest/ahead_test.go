package enginetest_test

import (
	"bytes"
	"reflect"
	"runtime"
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
	"github.com/datampi/datampi-go/internal/sched"
)

// timing is what must not move with the number of workers a job's map
// side runs ahead on: every simulated number of the result.
type timing struct {
	Start, End, Elapsed float64
	Phases              map[string]float64
	Counters            map[string]int64
}

func timingOf(res job.Result) timing {
	return timing{res.Start, res.End, res.Elapsed, res.Phases, res.Counters}
}

var aheadEngines = map[string]func(fs *dfs.FS) enginetest.Engine{
	"mr":   func(fs *dfs.FS) enginetest.Engine { return mr.New(fs, mr.DefaultConfig()) },
	"rdd":  func(fs *dfs.FS) enginetest.Engine { return rdd.New(fs, rdd.DefaultConfig()) },
	"core": func(fs *dfs.FS) enginetest.Engine { return core.New(fs, core.DefaultConfig()) },
}

// aheadSpecs builds Text Sort, WordCount and Normal Sort over a generated
// text file of nominal bytes (and its gzip sequence file).
func aheadSpecs(t *testing.T, fs *dfs.FS, nominal float64) map[string]job.Spec {
	text := bdb.GenerateTextFile(fs, "/text", bdb.LDAWiki1W(), 5, nominal)
	seq, err := bdb.ToSeqFile(fs, "/text", "/seq")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]job.Spec{
		"TextSort":   bdb.TextSortSpec(fs, text, "/out", 4),
		"WordCount":  bdb.WordCountSpec(fs, text, "/out", 4),
		"NormalSort": bdb.NormalSortSpec(fs, seq, "/out", 4),
	}
}

// atProcs runs f at GOMAXPROCS n.
func atProcs(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// TestMapSideAheadIsInvisible: each engine starts its jobs' map-side
// record work on min(GOMAXPROCS, blocks) worker goroutines. One worker or
// four, every simulated number of the result is bit-identical and the
// output equals the sequential reference's.
func TestMapSideAheadIsInvisible(t *testing.T) {
	for engName, mk := range aheadEngines {
		for _, specName := range []string{"TextSort", "WordCount", "NormalSort"} {
			t.Run(engName+"/"+specName, func(t *testing.T) {
				var got []timing
				for _, procs := range []int{1, 4} {
					atProcs(procs, func() {
						c := cluster.New(cluster.DefaultHardware())
						fs := dfs.New(c, dfs.Config{BlockSize: 8 * cluster.MB, Replication: 3, Scale: 256, Seed: 1})
						spec := aheadSpecs(t, fs, 64*cluster.MB)[specName]
						res := mk(fs).Run(spec)
						if res.Err != nil {
							t.Fatalf("GOMAXPROCS %d: %v", procs, res.Err)
						}
						enginetest.AssertMatchesSequential(t, fs, "/out/", spec)
						got = append(got, timingOf(res))
					})
				}
				if !reflect.DeepEqual(got[0], got[1]) {
					t.Fatalf("one worker:\n%+v\nfour:\n%+v", got[0], got[1])
				}
			})
		}
	}
	for name, build := range aheadLineages {
		t.Run("rdd/"+name, func(t *testing.T) {
			type actions struct {
				timing []timing
				pairs  [][]kv.Pair
			}
			var got []actions
			for _, procs := range []int{1, 4} {
				atProcs(procs, func() {
					c := cluster.New(cluster.DefaultHardware())
					fs := dfs.New(c, dfs.Config{BlockSize: 8 * cluster.MB, Replication: 3, Scale: 256, Seed: 1})
					aheadSpecs(t, fs, 64*cluster.MB)
					eng := rdd.New(fs, rdd.DefaultConfig())
					r := build(t, fs, eng)
					var a actions
					// The second action reads the cache the first filled.
					for range 2 {
						pairs, res := r.Collect()
						if res.Err != nil {
							t.Fatalf("GOMAXPROCS %d: %v", procs, res.Err)
						}
						if len(pairs) == 0 {
							t.Fatalf("GOMAXPROCS %d: collected nothing", procs)
						}
						a.timing, a.pairs = append(a.timing, timingOf(res)), append(a.pairs, pairs)
					}
					got = append(got, a)
				})
			}
			if !reflect.DeepEqual(got[0].timing, got[1].timing) {
				t.Fatalf("one worker:\n%+v\nfour:\n%+v", got[0].timing, got[1].timing)
			}
			if !reflect.DeepEqual(got[0].pairs, got[1].pairs) {
				t.Fatal("one worker and four collected different pairs")
			}
		})
	}
}

// aheadLineages are rdd lineages no job.Spec builds, over aheadSpecs'
// files: stages rooted at a block that feed no shuffle, each materialising
// a cache.
var aheadLineages = map[string]func(t *testing.T, fs *dfs.FS, eng *rdd.Engine) *rdd.RDD{
	// K-means' shape: a cached text source, then a flat-map into a
	// combining shuffle over the cached partitions.
	"CachedTextIntoReduceByKey": func(t *testing.T, fs *dfs.FS, eng *rdd.Engine) *rdd.RDD {
		words := func(k, v []byte, emit job.Emit) {
			for _, w := range bytes.Fields(v) {
				emit(w, []byte("1"))
			}
		}
		return eng.TextFile(open(t, fs, "/text")).Cache().FlatMapKV(words, 1).ReduceByKey(kv.SumCombiner, kv.SumReducer, 4)
	},
	// A Filter alone keeps the records in the inflate buffers the cache
	// then holds.
	"CachedSeqGzipFilter": func(t *testing.T, fs *dfs.FS, eng *rdd.Engine) *rdd.RDD {
		even := func(p kv.Pair) bool { return len(p.Value)%2 == 0 }
		return eng.SequenceFile(open(t, fs, "/seq"), job.SeqGzip).Filter(even).Cache()
	},
}

func open(t *testing.T, fs *dfs.FS, name string) *dfs.File {
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMapSideAheadUnderBackups: with a straggling node and speculation on,
// backup attempts take their map's record work a second time, which
// recomputes it on the simulation goroutine. The results still do not
// move with the worker count.
func TestMapSideAheadUnderBackups(t *testing.T) {
	for _, engName := range []string{"mr", "rdd", "core"} {
		t.Run(engName, func(t *testing.T) {
			var got []timing
			for _, procs := range []int{1, 4} {
				atProcs(procs, func() {
					c := cluster.New(cluster.DefaultHardware())
					fs := dfs.New(c, dfs.Config{BlockSize: 64 * cluster.MB, Replication: 3, Scale: 8192, Seed: 1})
					spec := aheadSpecs(t, fs, 8*cluster.GB)["WordCount"]
					res, st := enginetest.RunQueued(t, fs, aheadEngines[engName](fs), spec, "/out/", func(q *sched.Queue) {
						q.SetSpeculation(sched.SpeculationConfig{Enabled: true})
						c.SlowNode(c.N()-1, 4)
					})
					if st.Backups == 0 {
						t.Fatalf("GOMAXPROCS %d: no speculative backup ran", procs)
					}
					got = append(got, timingOf(res))
				})
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("one worker:\n%+v\nfour:\n%+v", got[0], got[1])
			}
		})
	}
}
