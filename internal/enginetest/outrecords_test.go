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
)

// TestOutRecordsCountTheLinesWritten: on the two engines that count
// reduce output (mr and core), Result.OutRecords is the number of lines
// the job's part files hold, for Text Sort (the defaulted identity
// reducer) and WordCount (a reducer of its own).
func TestOutRecordsCountTheLinesWritten(t *testing.T) {
	engines := map[string]func(fs *dfs.FS) job.Engine{
		"mr":   func(fs *dfs.FS) job.Engine { return mr.New(fs, mr.DefaultConfig()) },
		"core": func(fs *dfs.FS) job.Engine { return core.New(fs, core.DefaultConfig()) },
	}
	specs := map[string]func(fs *dfs.FS, in *dfs.File, out string, reducers int) job.Spec{
		"TextSort":  bdb.TextSortSpec,
		"WordCount": bdb.WordCountSpec,
	}
	for engName, mk := range engines {
		for specName, build := range specs {
			t.Run(engName+"/"+specName, func(t *testing.T) {
				c := cluster.New(cluster.DefaultHardware())
				fs := dfs.New(c, dfs.Config{BlockSize: 8 * cluster.MB, Replication: 3, Scale: 256, Seed: 1})
				in := bdb.GenerateTextFile(fs, "/in", bdb.LDAWiki1W(), 3, 64*cluster.MB)
				spec := build(fs, in, "/out", 4)
				res := mk(fs).Run(spec)
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				enginetest.AssertMatchesSequential(t, fs, "/out/", spec)
				lines := len(job.ReadTextOutput(fs, "/out/"))
				if lines == 0 || res.OutRecords != int64(lines) {
					t.Fatalf("OutRecords %d, %d lines written", res.OutRecords, lines)
				}
			})
		}
	}
}
