package enginetest_test

import (
	"reflect"
	"testing"

	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/core"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/enginetest"
	"github.com/datampi/datampi-go/internal/mr"
	"github.com/datampi/datampi-go/internal/rdd"
	"github.com/datampi/datampi-go/internal/taskrt"
)

// TestZeroProfileFieldSwitchesMechanismOff: on every engine, zeroing one
// field of its cost profile (taskrt.Profile) switches that mechanism off
// and nothing else, so a WordCount alone on the testbed gets strictly
// faster and writes the same output. The job goes through a queue, whose
// result ends when the job does: a solo Run's result ends when the
// simulation drains, and the heap that Hadoop and Spark free lazily after
// their last task outlasts JobTeardown. Nodes get 4 cores and 4 input
// blocks each, so the runtime overhead contends with the tasks' CPU rather
// than running on idle cores.
func TestZeroProfileFieldSwitchesMechanismOff(t *testing.T) {
	engines := []struct {
		name string
		make func(fs *dfs.FS, zero func(*taskrt.Profile)) enginetest.Engine
	}{
		{"Hadoop", func(fs *dfs.FS, zero func(*taskrt.Profile)) enginetest.Engine {
			cfg := mr.DefaultConfig()
			zero(&cfg.Profile)
			return mr.New(fs, cfg)
		}},
		{"Spark", func(fs *dfs.FS, zero func(*taskrt.Profile)) enginetest.Engine {
			cfg := rdd.DefaultConfig()
			zero(&cfg.Profile)
			return rdd.New(fs, cfg)
		}},
		{"DataMPI", func(fs *dfs.FS, zero func(*taskrt.Profile)) enginetest.Engine {
			cfg := core.DefaultConfig()
			zero(&cfg.Profile)
			return core.New(fs, cfg)
		}},
	}
	fields := []struct {
		name string
		zero func(*taskrt.Profile)
	}{
		{"JobLaunch", func(p *taskrt.Profile) { p.JobLaunch = 0 }},
		{"TaskStart", func(p *taskrt.Profile) { p.TaskStart = 0 }},
		{"JobTeardown", func(p *taskrt.Profile) { p.JobTeardown = 0 }},
		{"MapCPUPerByte", func(p *taskrt.Profile) { p.MapCPUPerByte = 0 }},
		{"Overhead", func(p *taskrt.Profile) { p.Overhead = 0 }},
	}
	// wordCount runs WordCount alone on a fresh testbed whose engine has
	// the profile zero leaves, and returns its time and its output.
	wordCount := func(t *testing.T, mk func(*dfs.FS, func(*taskrt.Profile)) enginetest.Engine, zero func(*taskrt.Profile)) (float64, []byte) {
		t.Helper()
		hw := cluster.DefaultHardware()
		hw.Cores = 4
		c := cluster.New(hw)
		fs := dfs.New(c, dfs.Config{BlockSize: 64 * cluster.MB, Replication: 3, Scale: 8192, Seed: 1})
		in := bdb.GenerateTextFile(fs, "/text", bdb.LDAWiki1W(), 5, 2*cluster.GB)
		res, _ := enginetest.RunQueued(t, fs, mk(fs, zero), bdb.WordCountSpec(fs, in, "/wc", 4), "/wc", nil)
		var out []byte
		for _, f := range fs.ListPrefix("/wc") {
			for _, blk := range f.Blocks {
				out = append(out, blk.Data...)
			}
		}
		if len(out) == 0 {
			t.Fatal("WordCount wrote no output")
		}
		return res.Elapsed, out
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			base, want := wordCount(t, eng.make, func(*taskrt.Profile) {})
			for _, f := range fields {
				secs, out := wordCount(t, eng.make, f.zero)
				if secs >= base {
					t.Errorf("%s = 0: %.3f s, not faster than %.3f s", f.name, secs, base)
				}
				if !reflect.DeepEqual(out, want) {
					t.Errorf("%s = 0: the output changed", f.name)
				}
			}
		})
	}
}
