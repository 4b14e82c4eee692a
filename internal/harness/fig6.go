package harness

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
)

func init() {
	register(Experiment{
		ID:    "fig6a",
		Title: "Figure 6(a): K-means first-iteration time (including data load)",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "fig6a", Title: "K-means",
				Columns: []string{"Size(GB)", "Hadoop(s)", "Spark(s)", "DataMPI(s)", "vsHadoop", "vsSpark"}}
			sizes := microSizes(opt.Quick, []float64{8, 16, 32, 64})
			for _, gb := range sizes {
				nominal := gb * cluster.GB
				seed := opt.seedOr(1)
				var hT, sT, dT float64
				{
					rig := NewRig(Hadoop, RigConfig{Scale: opt.scaleOr(16384), Seed: seed})
					in, _ := bdb.GenerateVectorFile(rig.FS, "/km/vec", seed, nominal)
					r := bdb.KMeansMR(rig.Engine, rig.FS, in, "/km/out", 5, 4*rig.Cluster.N(), 1, 0)
					if r.Err != nil {
						return nil, r.Err
					}
					hT = r.FirstIter
				}
				{
					rig := NewRig(Spark, RigConfig{Scale: opt.scaleOr(16384), Seed: seed})
					in, _ := bdb.GenerateVectorFile(rig.FS, "/km/vec", seed, nominal)
					r := bdb.KMeansSpark(rig.RDD, in, 5, 4*rig.Cluster.N(), 1, 0)
					if r.Err != nil {
						return nil, r.Err
					}
					sT = r.FirstIter
				}
				{
					rig := NewRig(DataMPI, RigConfig{Scale: opt.scaleOr(16384), Seed: seed})
					in, _ := bdb.GenerateVectorFile(rig.FS, "/km/vec", seed, nominal)
					r := bdb.KMeansDataMPI(rig.DM, in, 5, 1, 0)
					if r.Err != nil {
						return nil, r.Err
					}
					dT = r.FirstIter
				}
				rep.Rows = append(rep.Rows, []string{
					fmt.Sprintf("%.0f", gb), fmtSecs(hT), fmtSecs(sT), fmtSecs(dT),
					fmtPct(1 - dT/hT), fmtPct(1 - dT/sT)})
			}
			rep.Notes = append(rep.Notes,
				"paper: first iteration from job start (load + compute + output); DataMPI up to 39% over Hadoop, 33% over Spark")
			return rep, nil
		},
	})

	register(Experiment{
		ID:    "fig6b",
		Title: "Figure 6(b): Naive Bayes training time (Hadoop vs DataMPI)",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "fig6b", Title: "Naive Bayes",
				Columns: []string{"Size(GB)", "Hadoop(s)", "DataMPI(s)", "DataMPI_gain"}}
			sizes := microSizes(opt.Quick, []float64{8, 16, 32, 64})
			for _, gb := range sizes {
				nominal := gb * cluster.GB
				seed := opt.seedOr(1)
				var hT, dT float64
				{
					rig := NewRig(Hadoop, RigConfig{Scale: opt.scaleOr(16384), Seed: seed})
					in := bdb.GenerateLabeledDocs(rig.FS, "/nb/docs", seed, nominal)
					r := bdb.NaiveBayesTrain(rig.Engine, rig.FS, in, "/nb/out", 4*rig.Cluster.N())
					if r.Err != nil {
						return nil, r.Err
					}
					hT = r.Elapsed
				}
				{
					rig := NewRig(DataMPI, RigConfig{Scale: opt.scaleOr(16384), Seed: seed})
					in := bdb.GenerateLabeledDocs(rig.FS, "/nb/docs", seed, nominal)
					r := bdb.NaiveBayesTrain(rig.Engine, rig.FS, in, "/nb/out", 4*rig.Cluster.N())
					if r.Err != nil {
						return nil, r.Err
					}
					dT = r.Elapsed
				}
				rep.Rows = append(rep.Rows, []string{
					fmt.Sprintf("%.0f", gb), fmtSecs(hT), fmtSecs(dT), fmtPct(1 - dT/hT)})
			}
			rep.Notes = append(rep.Notes,
				"paper: DataMPI ~33% faster than Hadoop on average; BigDataBench 2.1 lacks a Spark implementation")
			return rep, nil
		},
	})
}
