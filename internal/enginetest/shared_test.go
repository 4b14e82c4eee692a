package enginetest_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/enginetest"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/taskrt"
)

// sharedSpecs are the fingerprinted specs the shared-record-work tests
// repeat, over one text file of the rig.
var sharedSpecs = map[string]func(fs *dfs.FS, in *dfs.File, out string) job.Spec{
	"WordCount": func(fs *dfs.FS, in *dfs.File, out string) job.Spec { return bdb.WordCountSpec(fs, in, out, 4) },
	"Grep":      func(fs *dfs.FS, in *dfs.File, out string) job.Spec { return bdb.GrepSpec(fs, in, out, "th[ae]", 4) },
	"TextSort":  func(fs *dfs.FS, in *dfs.File, out string) job.Spec { return bdb.TextSortSpec(fs, in, out, 4) },
}

// sharedRig is a cluster and a filesystem of 16 blocks of generated text
// at replication repl.
func sharedRig(repl int) (*cluster.Cluster, *dfs.FS, *dfs.File) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: 64 * cluster.MB, Replication: repl, Scale: 8192, Seed: 1})
	return c, fs, bdb.GenerateTextFile(fs, "/text", bdb.LDAWiki1W(), 5, cluster.GB)
}

// failAt is when the node-failure arm fails node 3: while the copies
// admitted at 10 and 15 s run, on every engine.
const failAt = 17

// sharedArm is a perturbation of a rig at replication repl, which arm
// applies to the rig's queue.
type sharedArm struct {
	repl int
	arm  func(c *cluster.Cluster, fs *dfs.FS, eng enginetest.Engine, q *sched.Queue)
}

// sharedArms are the perturbations the shared-record-work tests run
// under, so that backups, retries and regenerations take shared map
// outputs and reduce tails: a straggling node, or a node failing
// mid-job at replication 2.
var sharedArms = map[string]sharedArm{
	"straggler": {3, func(c *cluster.Cluster, fs *dfs.FS, eng enginetest.Engine, q *sched.Queue) {
		c.SlowNode(c.N()-1, 4)
	}},
	"node failure": {2, func(c *cluster.Cluster, fs *dfs.FS, eng enginetest.Engine, q *sched.Queue) {
		enginetest.FailNodeAt(q, fs, eng, failAt, 3)
	}},
}

// TestSharedRecordWorkIsInvisible: six copies of one fingerprinted spec
// go through one queue with speculation on, under each of sharedArms.
// With the fingerprint set the copies share their record work; with it
// cleared, on a fresh identical rig, each computes its own (Map runs over
// the input once between the six copies, on an empty record store, or at
// least six times), and so does Reduce for WordCount and Grep: every
// engine computes each reduce tail once, whatever order the map outputs
// reach its reducers in, and shares it. Nobody writes into what the
// store shares (enginetest.CheckFrozen). Every simulated number of every
// job and of the tracker is bit-identical between the two, every output
// matches the sequential reference and the engine ends quiesced.
func TestSharedRecordWorkIsInvisible(t *testing.T) {
	type run struct {
		jobs    []timing
		tracker sched.TrackerStats
	}
	for engName, mk := range aheadEngines {
		for specName, mkSpec := range sharedSpecs {
			for armName, a := range sharedArms {
				t.Run(engName+"/"+specName+"/"+armName, func(t *testing.T) {
					t.Cleanup(taskrt.EmptyStore())
					frozen := enginetest.CheckFrozen(t, bdb.FrozenSeam)
					var got []run
					var reduces [2]int64 // shared, own
					var keys int64       // output records of one job
					for arm, shared := range []bool{true, false} {
						c, fs, in := sharedRig(a.repl)
						eng := mk(fs)
						q := sched.NewQueue(c.Eng, c.N(), sched.FIFO)
						q.SetSpeculation(sched.SpeculationConfig{Enabled: true})
						a.arm(c, fs, eng, q)
						var specs []job.Spec
						var maps, reduced atomic.Int64
						for i := range 6 {
							spec := mkSpec(fs, in, fmt.Sprintf("/out/%d", i))
							if !shared {
								spec.Fingerprint = ""
							} else if spec.Fingerprint == "" {
								t.Fatal("the spec has no fingerprint")
							}
							specs = append(specs, spec)
							// Counting leaves what Map computes, and so the
							// fingerprint, as it is.
							inner := spec.Map
							spec.Map = func(k, v []byte, emit job.Emit) {
								maps.Add(1)
								inner(k, v, emit)
							}
							if reduce := spec.Reduce; reduce != nil {
								spec.Reduce = func(key []byte, values [][]byte) []kv.Pair {
									reduced.Add(1)
									return reduce(key, values)
								}
							}
							q.Admit("", float64(5*i), 1, eng, spec)
						}
						var r run
						for i, res := range q.Run() {
							if res.Err != nil {
								t.Fatalf("shared %v: job %d: %v", shared, i, res.Err)
							}
							enginetest.AssertMatchesSequential(t, fs, fmt.Sprintf("/out/%d/", i), specs[i])
							r.jobs = append(r.jobs, timingOf(res))
						}
						enginetest.AssertQuiesced(t, eng)
						r.tracker = q.TrackerStats()
						got = append(got, r)
						if n, rec := maps.Load(), records(t, in); shared && n != rec || !shared && n < 6*rec {
							t.Fatalf("shared %v: Map ran %d times over %d records", shared, n, rec)
						}
						reduces[arm] = reduced.Load()
						keys = int64(len(job.ReadTextOutput(fs, "/out/0/")))
					}
					// Shared, Reduce runs once per key of a job's output —
					// each tail once between the six copies; own, at least
					// six times that.
					if specName != "TextSort" && (reduces[0] != keys || reduces[1] < 6*keys) {
						t.Fatalf("Reduce ran %d times shared, %d times not, over %d keys a job", reduces[0], reduces[1], keys)
					}
					if frozen.Load() == 0 {
						t.Fatal("the freeze check saw no shared cell")
					}
					st := got[0].tracker
					if armName == "straggler" && st.Backups == 0 {
						t.Fatal("no speculative backup ran")
					}
					if armName == "node failure" && st.Retries+st.Recomputes+st.Kills == 0 {
						t.Fatal("the node failure touched no task")
					}
					if !reflect.DeepEqual(got[0], got[1]) {
						t.Fatalf("shared:\n%+v\nown:\n%+v", got[0], got[1])
					}
				})
			}
		}
	}
}

// TestSharedRecordWorkNeverCrossesSpecs: on one rig and engine, jobs
// running at once whose specs differ in what their record work computes
// never take each other's results — Grep at three patterns over the same
// blocks (fig3-scan's shape), then Text Sort and WordCount, each at 4
// and 8 reducers over one input (WordCount's fingerprint is the same at
// both). A copy of each job beside it takes every entry from the store.
func TestSharedRecordWorkNeverCrossesSpecs(t *testing.T) {
	for engName, mk := range aheadEngines {
		t.Run(engName, func(t *testing.T) {
			c, fs, in := sharedRig(3)
			eng := mk(fs)
			q := sched.NewQueue(c.Eng, c.N(), sched.FIFO)
			var specs []job.Spec
			for i := range 2 {
				out := func(name string) string { return fmt.Sprintf("/out/%s-%d", name, i) }
				specs = append(specs,
					bdb.GrepSpec(fs, in, out("the"), "th[ae]", 4),
					bdb.GrepSpec(fs, in, out("none"), "qzqzq", 4),
					bdb.GrepSpec(fs, in, out("dense"), "[a-z]+", 4),
					bdb.TextSortSpec(fs, in, out("sort4"), 4),
					bdb.TextSortSpec(fs, in, out("sort8"), 8),
					bdb.WordCountSpec(fs, in, out("wc4"), 4),
					bdb.WordCountSpec(fs, in, out("wc8"), 8),
				)
			}
			for _, spec := range specs {
				q.Admit("", 0, 1, eng, spec)
			}
			for i, res := range q.Run() {
				if res.Err != nil {
					t.Fatalf("%s: %v", specs[i].Output, res.Err)
				}
				enginetest.AssertMatchesSequential(t, fs, specs[i].Output+"/", specs[i])
			}
			enginetest.AssertQuiesced(t, eng)
		})
	}
}

// TestOneSpecSameBytesOnEveryEngine: WordCount, Grep and Text Sort at 4
// reducers write byte-identical part files, matched by part index, on
// mr, rdd and core — the engines differ in how they run a job, never in
// what it writes. Each engine runs two copies at once, so the second
// copy's parts come from the record store, as may the first's from the
// engine before.
func TestOneSpecSameBytesOnEveryEngine(t *testing.T) {
	for specName, mkSpec := range sharedSpecs {
		t.Run(specName, func(t *testing.T) {
			var want [][]byte
			for _, engName := range []string{"mr", "rdd", "core"} {
				c, fs, in := sharedRig(3)
				eng := aheadEngines[engName](fs)
				q := sched.NewQueue(c.Eng, c.N(), sched.FIFO)
				outs := []string{"/out/first", "/out/second"}
				for i, out := range outs {
					q.Admit("", float64(i), 1, eng, mkSpec(fs, in, out))
				}
				for i, res := range q.Run() {
					if res.Err != nil {
						t.Fatalf("%s %s: %v", engName, outs[i], res.Err)
					}
					got := partBytes(fs, outs[i]+"/")
					if len(got) != 4 {
						t.Fatalf("%s %s: %d part files, want 4", engName, outs[i], len(got))
					}
					if want == nil {
						want = got
						continue
					}
					for pi := range got {
						if !bytes.Equal(got[pi], want[pi]) {
							t.Fatalf("%s %s: part %d differs from mr's first copy (%d bytes, want %d)", engName, outs[i], pi, len(got[pi]), len(want[pi]))
						}
					}
				}
			}
		})
	}
}

// TestOneStoreServesEveryEngine: Spark runs a fingerprinted spec, then
// DataMPI runs it on a second rig over equal bytes, each under one of
// sharedArms. The two engines ask for one shape, so DataMPI's map outputs
// all come from the record store, where Spark's job left them idle: its
// Map never runs. Its result and part files equal those of a DataMPI run
// on an empty store, and nobody writes into what the store shares
// (enginetest.CheckFrozen).
func TestOneStoreServesEveryEngine(t *testing.T) {
	type run struct {
		res   job.Result
		parts [][]byte
	}
	for specName, mkSpec := range sharedSpecs {
		for armName, a := range sharedArms {
			t.Run(specName+"/"+armName, func(t *testing.T) {
				frozen := enginetest.CheckFrozen(t, bdb.FrozenSeam)
				// runOn runs the spec on engName on a fresh rig and counts
				// its Map calls.
				runOn := func(engName string) (run, int64) {
					c, fs, in := sharedRig(a.repl)
					eng := aheadEngines[engName](fs)
					q := sched.NewQueue(c.Eng, c.N(), sched.FIFO)
					q.SetSpeculation(sched.SpeculationConfig{Enabled: true})
					a.arm(c, fs, eng, q)
					spec := mkSpec(fs, in, "/out")
					var maps atomic.Int64
					counted := spec
					counted.Map = func(k, v []byte, emit job.Emit) {
						maps.Add(1)
						spec.Map(k, v, emit)
					}
					q.Admit("", 0, 1, eng, counted)
					res := q.Run()[0]
					if res.Err != nil {
						t.Fatalf("%s: %v", engName, res.Err)
					}
					enginetest.AssertMatchesSequential(t, fs, "/out/", spec)
					enginetest.AssertQuiesced(t, eng)
					res.OutputFile = nil // of its own rig
					return run{res, partBytes(fs, "/out/")}, maps.Load()
				}
				t.Cleanup(taskrt.EmptyStore())
				if _, n := runOn("rdd"); n == 0 {
					t.Fatal("Spark's Map never ran on an empty store")
				}
				got, n := runOn("core")
				if n != 0 {
					t.Fatalf("DataMPI's Map ran %d times after Spark's job over equal bytes", n)
				}
				t.Cleanup(taskrt.EmptyStore())
				want, _ := runOn("core")
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("after Spark:\n%+v\non an empty store:\n%+v", got.res, want.res)
				}
				if frozen.Load() == 0 {
					t.Fatal("the freeze check saw no shared cell")
				}
			})
		}
	}
}

// records counts the records of text file f.
func records(t *testing.T, f *dfs.File) int64 {
	n := 0
	for _, blk := range f.Blocks {
		recs, _, err := job.Records(job.Text, blk.Data)
		if err != nil {
			t.Fatal(err)
		}
		n += len(recs)
	}
	return int64(n)
}

// partBytes returns the contents of the files under prefix, in name
// order.
func partBytes(fs *dfs.FS, prefix string) [][]byte {
	var parts [][]byte
	for _, f := range fs.ListPrefix(prefix) {
		var data []byte
		for _, blk := range f.Blocks {
			data = append(data, blk.Data...)
		}
		parts = append(parts, data)
	}
	return parts
}
