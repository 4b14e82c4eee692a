package enginetest_test

import (
	"testing"

	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/core"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/enginetest"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/mr"
	"github.com/datampi/datampi-go/internal/rdd"
)

// TestSaturatingWithoutCombinerIsUnscaled: a spec that declares its
// intermediate and output data cardinality-bound
// (job.Spec.SaturatingIntermediate) but has no combiner is charged at
// its true size on every engine (job.Spec.EmitScale), not at the
// filesystem's scale: each part file's nominal size is its actual size.
func TestSaturatingWithoutCombinerIsUnscaled(t *testing.T) {
	engines := map[string]func(fs *dfs.FS) job.Engine{
		"mr":   func(fs *dfs.FS) job.Engine { return mr.New(fs, mr.DefaultConfig()) },
		"rdd":  func(fs *dfs.FS) job.Engine { return rdd.New(fs, rdd.DefaultConfig()) },
		"core": func(fs *dfs.FS) job.Engine { return core.New(fs, core.DefaultConfig()) },
	}
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			c := cluster.New(cluster.DefaultHardware())
			fs := dfs.New(c, dfs.Config{BlockSize: 8 * cluster.MB, Replication: 3, Scale: 256, Seed: 1})
			in := bdb.GenerateTextFile(fs, "/in", bdb.LDAWiki1W(), 3, 64*cluster.MB)
			spec := bdb.WordCountSpec(fs, in, "/out", 4)
			spec.Combine, spec.Fingerprint, spec.SaturatingIntermediate = nil, "", true
			if res := mk(fs).Run(spec); res.Err != nil {
				t.Fatal(res.Err)
			}
			enginetest.AssertMatchesSequential(t, fs, "/out/", spec)
			files := fs.ListPrefix("/out/")
			if len(files) == 0 {
				t.Fatal("no part files")
			}
			for _, f := range files {
				actual := 0
				for _, blk := range f.Blocks {
					actual += len(blk.Data)
				}
				if f.Nominal != float64(actual) {
					t.Errorf("%s: %.0f nominal bytes for %d actual", f.Name, f.Nominal, actual)
				}
			}
		})
	}
}
