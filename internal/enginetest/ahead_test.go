package enginetest_test

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
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
	"github.com/datampi/datampi-go/internal/taskrt"
	"github.com/datampi/datampi-go/internal/trace"
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
						defer taskrt.EmptyStore()()
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
	for name, build := range aheadCached {
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
					spec := build(t, fs)
					eng.Cache(spec.Input)
					var a actions
					// The second action reads the cache the first filled.
					for range 2 {
						pairs, res := eng.Collect(spec)
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

// aheadCached are specs over aheadSpecs' files that an rdd engine
// collects over a cached input: a fill stage rooted at each block, whose
// partitions the next action maps from memory.
var aheadCached = map[string]func(t *testing.T, fs *dfs.FS) job.Spec{
	// K-means' shape: a cached text input mapped into a combining
	// shuffle.
	"CachedTextIntoReduceByKey": func(t *testing.T, fs *dfs.FS) job.Spec {
		words := func(k, v []byte, emit job.Emit) {
			for _, w := range bytes.Fields(v) {
				emit(w, []byte("1"))
			}
		}
		return job.Spec{Name: "words", FS: fs, Input: open(t, fs, "/text"), InputFormat: job.Text, Reducers: 4,
			Map: words, Combine: kv.SumCombiner, Reduce: kv.SumReducer}
	},
	// The cache keeps a seq+gzip input's records in their inflate
	// buffers; a filtering map passes them on as they are.
	"CachedSeqGzipFilter": func(t *testing.T, fs *dfs.FS) job.Spec {
		even := func(k, v []byte, emit job.Emit) {
			if len(v)%2 == 0 {
				emit(k, v)
			}
		}
		return job.Spec{Name: "even", FS: fs, Input: open(t, fs, "/seq"), InputFormat: job.SeqGzip, Reducers: 4, Map: even}
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
// move with the worker count. The reduce arm slows a reducer's node and
// fails another's mid-job: mr speculates a reducer, and every engine
// runs a reduce-side task again on the node failure — a retried reducer,
// reducers regenerating lost map outputs, a restarted A rank fed by an
// O-side replay — so reducers take their tails, computed ahead, from
// attempts other than the first.
func TestMapSideAheadUnderBackups(t *testing.T) {
	// failAt is when the reduce arm fails node 3, which hosts reducer 3:
	// on each engine, while its reduce side runs.
	failAt := map[string]float64{"mr": 80, "rdd": 60, "core": 60}
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

			t.Run("reduce", func(t *testing.T) {
				var got []timing
				for _, procs := range []int{1, 4} {
					atProcs(procs, func() {
						defer taskrt.EmptyStore()()
						c := cluster.New(cluster.DefaultHardware())
						fs := dfs.New(c, dfs.Config{BlockSize: 64 * cluster.MB, Replication: 3, Scale: 8192, Seed: 1})
						spec := aheadSpecs(t, fs, 8*cluster.GB)["WordCount"]
						eng := aheadEngines[engName](fs)
						tr := trace.New(trace.Config{})
						res, st := enginetest.RunQueued(t, fs, eng, spec, "/out/", func(q *sched.Queue) {
							q.SetTracer(tr)
							q.SetSpeculation(sched.SpeculationConfig{Enabled: true})
							c.SlowNode(0, 4)
							enginetest.FailNodeAt(q, fs, eng, failAt[engName], 3)
						})
						again := map[string]int{"mr": st.Retries, "rdd": st.Recomputes, "core": int(res.Counters["a_restarts"])}
						if again[engName] == 0 {
							t.Fatalf("GOMAXPROCS %d: the node failure ran no reduce-side task again (%+v)", procs, st)
						}
						if engName == "mr" && !slices.ContainsFunc(tr.Instants(), func(in trace.Instant) bool {
							return strings.HasPrefix(in.Name, "speculate:reduce-")
						}) {
							t.Fatalf("GOMAXPROCS %d: no reducer was speculated", procs)
						}
						got = append(got, timingOf(res))
					})
				}
				if !reflect.DeepEqual(got[0], got[1]) {
					t.Fatalf("one worker:\n%+v\nfour:\n%+v", got[0], got[1])
				}
			})
		})
	}
}

// recorder is a job.Engine that keeps the spec and the result of the
// last job it ran.
type recorder struct {
	job.Engine
	spec job.Spec
	res  job.Result
}

func (r *recorder) Run(spec job.Spec) job.Result {
	r.spec, r.res = spec, r.Engine.Run(spec)
	return r.res
}

// TestReduceAheadIsInvisible: each engine starts every reducer's record
// half on the Ahead workers once its job's map side is computed. One
// worker or four, each on an empty record store, every simulated number
// of the result and every output byte is the same, at eight reducers over
// 4 MB blocks: for the fingerprinted specs, whose tails go through the
// store — nobody writes into what it holds (enginetest.CheckFrozen) —
// and whose output equals the sequential reference's, and for a K-means
// iteration, which has no fingerprint. Its combiner sums floats per map
// task, so its centroids are checked against KMeansReference to 1e-6
// instead, as bdb's own K-means test does.
func TestReduceAheadIsInvisible(t *testing.T) {
	type run struct {
		timing timing
		out    []kv.Pair
	}
	for engName, mk := range aheadEngines {
		for _, specName := range []string{"TextSort", "WordCount", "NormalSort", "KMeans"} {
			t.Run(engName+"/"+specName, func(t *testing.T) {
				frozen := enginetest.CheckFrozen(t, bdb.FrozenSeam)
				var got []run
				for _, procs := range []int{1, 4} {
					atProcs(procs, func() {
						defer taskrt.EmptyStore()()
						c := cluster.New(cluster.DefaultHardware())
						fs := dfs.New(c, dfs.Config{BlockSize: 4 * cluster.MB, Replication: 3, Scale: 256, Seed: 1})
						eng := &recorder{Engine: mk(fs)}
						out := "/out/"
						if specName == "KMeans" {
							out = "/km/clusters-1/"
							checkKMeansIteration(t, fs, eng)
						} else {
							spec := aheadSpecs(t, fs, 64*cluster.MB)[specName]
							spec.Reducers = 8
							if eng.Run(spec).Err == nil {
								enginetest.AssertMatchesSequential(t, fs, out, eng.spec)
							}
						}
						if eng.res.Err != nil {
							t.Fatalf("GOMAXPROCS %d: %v", procs, eng.res.Err)
						}
						if eng.spec.Fingerprint == "" != (specName == "KMeans") {
							t.Fatalf("fingerprint %q", eng.spec.Fingerprint)
						}
						got = append(got, run{timingOf(eng.res), job.ReadTextOutput(fs, out)})
					})
				}
				if frozen.Load() == 0 != (specName == "KMeans") {
					t.Fatalf("the freeze check saw %d shared cells", frozen.Load())
				}
				if !reflect.DeepEqual(got[0].timing, got[1].timing) {
					t.Fatalf("one worker:\n%+v\nfour:\n%+v", got[0].timing, got[1].timing)
				}
				if !reflect.DeepEqual(got[0].out, got[1].out) {
					t.Fatal("one worker and four wrote different output")
				}
			})
		}
	}
}

// checkKMeansIteration runs one K-means iteration of eight clusters over
// a generated vector file on eng, and checks its centroids against
// KMeansReference's.
func checkKMeansIteration(t *testing.T, fs *dfs.FS, eng job.Engine) {
	t.Helper()
	vec, _ := bdb.GenerateVectorFile(fs, "/vec", 5, 64*cluster.MB)
	km := bdb.KMeansMR(eng, fs, vec, "/km", 8, 8, 1, 0)
	if km.Err != nil {
		return // the caller reports the job's error
	}
	init, err := bdb.InitialCentroids(vec, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bdb.KMeansReference(vec, init, 1)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range want {
		for d := range want[ci] {
			if math.Abs(km.Centroids[ci][d]-want[ci][d]) > 1e-6 {
				t.Fatalf("centroid %d component %d: %v, reference %v", ci, d, km.Centroids[ci][d], want[ci][d])
			}
		}
	}
}
