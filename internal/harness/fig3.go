package harness

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/sim"
)

// microWorkload identifies a Figure 3 micro-benchmark.
type microWorkload int

const (
	wlNormalSort microWorkload = iota
	wlTextSort
	wlWordCount
	wlGrep
)

// GrepPattern is the search pattern for the Grep benchmark: a regular
// expression with moderate selectivity over the wikipedia-model text.
const GrepPattern = `th[ae]`

// runMicro executes one micro-benchmark at one nominal size on a fresh
// rig, returning the job result (res.Err is *sim.OOMError for Spark OOM).
func runMicro(fw Framework, wl microWorkload, nominalGB float64, rc RigConfig) (job.Result, *Rig) {
	rig := NewRig(fw, rc)
	nominal := nominalGB * cluster.GB
	reducers := rig.TasksPerNode * rig.Cluster.N()
	var spec job.Spec
	switch wl {
	case wlTextSort:
		in := bdb.GenerateTextFile(rig.FS, "/bench/text", bdb.LDAWiki1W(), rc.Seed+1, nominal)
		spec = bdb.TextSortSpec(rig.FS, in, "/bench/out", reducers)
	case wlWordCount:
		in := bdb.GenerateTextFile(rig.FS, "/bench/text", bdb.LDAWiki1W(), rc.Seed+2, nominal)
		spec = bdb.WordCountSpec(rig.FS, in, "/bench/out", reducers)
	case wlGrep:
		in := bdb.GenerateTextFile(rig.FS, "/bench/text", bdb.LDAWiki1W(), rc.Seed+3, nominal)
		spec = bdb.GrepSpec(rig.FS, in, "/bench/out", GrepPattern, reducers)
	case wlNormalSort:
		// Normal Sort's "size" axis is the compressed sequence-file size;
		// generate enough text that the gzip output hits the target. Both
		// probe calls stay: each advances the DFS placement stream, and
		// the figure goldens pin the resulting layout.
		probeSeq, probeText := mustSeq(rig.FS, bdb.LDAWiki1W(), rc.Seed+4, 64*1024*float64(rig.FS.Config().Scale), "/bench/probe-text", "/bench/probe-seq")
		_, _ = probeSeq, probeText
		textNominal := nominal * seqRatio(rig.FS, rc.Seed+4)
		in := bdb.GenerateTextFile(rig.FS, "/bench/text", bdb.LDAWiki1W(), rc.Seed+4, textNominal)
		seq, err := bdb.ToSeqFile(rig.FS, "/bench/text", "/bench/seq")
		if err != nil {
			return job.Result{Err: err}, rig
		}
		_ = in
		spec = bdb.NormalSortSpec(rig.FS, seq, "/bench/out", reducers)
	}
	return rig.Engine.Run(spec), rig
}

// mustSeq and seqRatio estimate the text->gzip size ratio so Normal Sort
// inputs can be sized by their compressed bytes, as the paper does.
// mustSeq returns (compressed, text) byte counts; it must stay free of
// package-level state so parallel figure rows don't race.
func mustSeq(fsys *dfs.FS, m *bdb.SeedModel, seed int64, textNominal float64, tname, sname string) (int, int) {
	f := bdb.GenerateTextFile(fsys, tname, m, seed, textNominal)
	textLen := 0
	for _, b := range f.Blocks {
		textLen += len(b.Data)
	}
	seq, err := bdb.ToSeqFile(fsys, tname, sname)
	if err != nil {
		return 1, textLen
	}
	n := 0
	for _, b := range seq.Blocks {
		n += len(b.Data)
	}
	fsys.Delete(tname)
	fsys.Delete(sname)
	if n == 0 {
		return 1, textLen
	}
	return n, textLen
}

func seqRatio(fsys *dfs.FS, seed int64) float64 {
	comp, text := mustSeq(fsys, bdb.LDAWiki1W(), seed, 64*1024*fsys.Config().Scale, "/probe/t", "/probe/s")
	if comp == 0 || text == 0 {
		return 3
	}
	return float64(text) / float64(comp)
}

// resultCell renders a job result for a table cell.
func resultCell(res job.Result) string {
	if res.Err != nil {
		if _, ok := res.Err.(*sim.OOMError); ok {
			return "OOM"
		}
		return "FAIL"
	}
	return fmtSecs(res.Elapsed)
}

func microSizes(quick bool, sizes []float64) []float64 {
	if quick && len(sizes) > 2 {
		return []float64{sizes[0], sizes[len(sizes)-1]}
	}
	return sizes
}

func init() {
	register(Experiment{
		ID:    "fig3a",
		Title: "Figure 3(a): Normal Sort job execution time (Hadoop vs DataMPI; Spark OOMs)",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "fig3a", Title: "Normal Sort",
				Columns: []string{"Size(GB)", "Hadoop(s)", "DataMPI(s)", "Spark", "DataMPI_gain"}}
			sizes := microSizes(opt.Quick, []float64{4, 8, 16, 32})
			rows, err := sweep(len(sizes), func(i int) ([]string, error) {
				gb := sizes[i]
				rc := RigConfig{Scale: opt.scaleOr(8192), Seed: opt.seedOr(1)}
				h, _ := runMicro(Hadoop, wlNormalSort, gb, rc)
				d, _ := runMicro(DataMPI, wlNormalSort, gb, rc)
				s, _ := runMicro(Spark, wlNormalSort, gb, rc)
				gain := "-"
				if h.Err == nil && d.Err == nil && h.Elapsed > 0 {
					gain = fmtPct(1 - d.Elapsed/h.Elapsed)
				}
				return []string{
					fmt.Sprintf("%.0f", gb), resultCell(h), resultCell(d), resultCell(s), gain}, nil
			})
			if err != nil {
				return nil, err
			}
			rep.Rows = rows
			rep.Notes = append(rep.Notes,
				"paper: DataMPI 29%-33% faster than Hadoop; Spark fails with OutOfMemory on all Normal Sort sizes")
			return rep, nil
		},
	})
	register(Experiment{
		ID:    "fig3b",
		Title: "Figure 3(b): Text Sort job execution time",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "fig3b", Title: "Text Sort",
				Columns: []string{"Size(GB)", "Hadoop(s)", "Spark", "DataMPI(s)", "vsHadoop", "vsSpark"}}
			sizes := microSizes(opt.Quick, []float64{8, 16, 32, 64})
			rows, err := sweep(len(sizes), func(i int) ([]string, error) {
				gb := sizes[i]
				rc := RigConfig{Scale: opt.scaleOr(8192), Seed: opt.seedOr(1)}
				h, _ := runMicro(Hadoop, wlTextSort, gb, rc)
				s, _ := runMicro(Spark, wlTextSort, gb, rc)
				d, _ := runMicro(DataMPI, wlTextSort, gb, rc)
				vsH, vsS := "-", "-"
				if h.Err == nil && d.Err == nil && h.Elapsed > 0 {
					vsH = fmtPct(1 - d.Elapsed/h.Elapsed)
				}
				if s.Err == nil && d.Err == nil && s.Elapsed > 0 {
					vsS = fmtPct(1 - d.Elapsed/s.Elapsed)
				}
				return []string{
					fmt.Sprintf("%.0f", gb), resultCell(h), resultCell(s), resultCell(d), vsH, vsS}, nil
			})
			if err != nil {
				return nil, err
			}
			rep.Rows = rows
			rep.Notes = append(rep.Notes,
				"paper: DataMPI 34%-42% over Hadoop; 8GB: DataMPI 69s vs Hadoop 117s vs Spark 114s; Spark OOMs above 8GB")
			return rep, nil
		},
	})
	register(Experiment{
		ID:    "fig3c",
		Title: "Figure 3(c): WordCount job execution time",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "fig3c", Title: "WordCount",
				Columns: []string{"Size(GB)", "Hadoop(s)", "Spark(s)", "DataMPI(s)", "vsHadoop"}}
			sizes := microSizes(opt.Quick, []float64{8, 16, 32, 64})
			rows, err := sweep(len(sizes), func(i int) ([]string, error) {
				gb := sizes[i]
				rc := RigConfig{Scale: opt.scaleOr(8192), Seed: opt.seedOr(1)}
				h, _ := runMicro(Hadoop, wlWordCount, gb, rc)
				s, _ := runMicro(Spark, wlWordCount, gb, rc)
				d, _ := runMicro(DataMPI, wlWordCount, gb, rc)
				vsH := "-"
				if h.Err == nil && d.Err == nil && h.Elapsed > 0 {
					vsH = fmtPct(1 - d.Elapsed/h.Elapsed)
				}
				return []string{
					fmt.Sprintf("%.0f", gb), resultCell(h), resultCell(s), resultCell(d), vsH}, nil
			})
			if err != nil {
				return nil, err
			}
			rep.Rows = rows
			rep.Notes = append(rep.Notes,
				"paper: DataMPI and Spark similar; both 47%-55% faster than Hadoop; 32GB: 130s vs Hadoop 275s")
			return rep, nil
		},
	})
	register(Experiment{
		ID:    "fig3d",
		Title: "Figure 3(d): Grep job execution time",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "fig3d", Title: "Grep",
				Columns: []string{"Size(GB)", "Hadoop(s)", "Spark(s)", "DataMPI(s)", "vsHadoop", "vsSpark"}}
			sizes := microSizes(opt.Quick, []float64{8, 16, 32, 64})
			rows, err := sweep(len(sizes), func(i int) ([]string, error) {
				gb := sizes[i]
				rc := RigConfig{Scale: opt.scaleOr(8192), Seed: opt.seedOr(1)}
				h, _ := runMicro(Hadoop, wlGrep, gb, rc)
				s, _ := runMicro(Spark, wlGrep, gb, rc)
				d, _ := runMicro(DataMPI, wlGrep, gb, rc)
				vsH, vsS := "-", "-"
				if h.Err == nil && d.Err == nil && h.Elapsed > 0 {
					vsH = fmtPct(1 - d.Elapsed/h.Elapsed)
				}
				if s.Err == nil && d.Err == nil && s.Elapsed > 0 {
					vsS = fmtPct(1 - d.Elapsed/s.Elapsed)
				}
				return []string{
					fmt.Sprintf("%.0f", gb), resultCell(h), resultCell(s), resultCell(d), vsH, vsS}, nil
			})
			if err != nil {
				return nil, err
			}
			rep.Rows = rows
			rep.Notes = append(rep.Notes,
				"paper: DataMPI 33%-42% over Hadoop, 19%-29% over Spark")
			return rep, nil
		},
	})
}
