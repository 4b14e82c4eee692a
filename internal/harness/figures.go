package harness

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/cluster"
)

// figure is a paper artifact of the evaluation's common shape: one job
// time per (row, system), then DataMPI's gain over some of the others.
// Rows sweep the nominal sizes of one workload, or the workloads at one
// size; the cells are points, so another figure may own the same ones.
type figure struct {
	id, title, heading string
	workloads          []workload
	sizes              []float64 // nominal GB; -quick keeps the first and last
	rc                 RigConfig // Scale is the default scale (see point.at)
	cols               []figCol  // systems in column order
	gains              []figGain
	// meanGain, when set, formats a note from the first gain pair's
	// gain over the summed rows.
	meanGain string
	note     string
}

type figCol struct {
	fw     Framework
	header string
}

// figGain is a "DataMPI is this much faster than over" column.
type figGain struct {
	header string
	over   Framework
}

// sizeSweep is the row axis of Figures 3(b-d) and 6.
var sizeSweep = []float64{8, 16, 32, 64}

var (
	microRig = RigConfig{Scale: 8192}
	appRig   = RigConfig{Scale: 16384}

	hadoopCol  = figCol{Hadoop, "Hadoop(s)"}
	sparkCol   = figCol{Spark, "Spark(s)"}
	datampiCol = figCol{DataMPI, "DataMPI(s)"}
	threeCols  = []figCol{hadoopCol, sparkCol, datampiCol}
	// Where Spark runs out of memory its column holds more than seconds.
	sparkOOMCol = figCol{Spark, "Spark"}

	vsHadoop = figGain{"vsHadoop", Hadoop}
	vsSpark  = figGain{"vsSpark", Spark}
)

var (
	fig3a = &figure{
		id: "fig3a", title: "Figure 3(a): Normal Sort job execution time (Hadoop vs DataMPI; Spark OOMs)", heading: "Normal Sort",
		workloads: []workload{wlNormalSort}, sizes: []float64{4, 8, 16, 32}, rc: microRig,
		cols: []figCol{hadoopCol, datampiCol, sparkOOMCol}, gains: []figGain{{"DataMPI_gain", Hadoop}},
		note: "paper: DataMPI 29%-33% faster than Hadoop; Spark fails with OutOfMemory on all Normal Sort sizes",
	}
	fig3b = &figure{
		id: "fig3b", title: "Figure 3(b): Text Sort job execution time", heading: "Text Sort",
		workloads: []workload{wlTextSort}, sizes: sizeSweep, rc: microRig,
		cols: []figCol{hadoopCol, sparkOOMCol, datampiCol}, gains: []figGain{vsHadoop, vsSpark},
		note: "paper: DataMPI 34%-42% over Hadoop; 8GB: DataMPI 69s vs Hadoop 117s vs Spark 114s; Spark OOMs above 8GB",
	}
	fig3c = &figure{
		id: "fig3c", title: "Figure 3(c): WordCount job execution time", heading: "WordCount",
		workloads: []workload{wlWordCount}, sizes: sizeSweep, rc: microRig,
		cols: threeCols, gains: []figGain{vsHadoop},
		note: "paper: DataMPI and Spark similar; both 47%-55% faster than Hadoop; 32GB: 130s vs Hadoop 275s",
	}
	fig3d = &figure{
		id: "fig3d", title: "Figure 3(d): Grep job execution time", heading: "Grep",
		workloads: []workload{wlGrep}, sizes: sizeSweep, rc: microRig,
		cols: threeCols, gains: []figGain{vsHadoop, vsSpark},
		note: "paper: DataMPI 33%-42% over Hadoop, 19%-29% over Spark",
	}
	fig5 = &figure{
		id: "fig5", title: "Figure 5: small job performance (128MB input, 1 task per node)", heading: "Small jobs",
		workloads: []workload{wlTextSort, wlWordCount, wlGrep}, sizes: []float64{0.125},
		// The paper: "The number of the concurrent tasks/works is one per
		// node." 128MB on a 256MB-block DFS is one split; 16MB blocks
		// give every node work.
		rc:   RigConfig{Scale: 512, TasksPerNode: 1, BlockSize: 16 * cluster.MB},
		cols: threeCols, gains: []figGain{{"DataMPI_vs_Hadoop", Hadoop}},
		meanGain: "measured: DataMPI averages %s faster than Hadoop across the three small jobs",
		note:     "paper: DataMPI similar to Spark, averagely 54% more efficient than Hadoop (startup/teardown dominates)",
	}
	fig6a = &figure{
		id: "fig6a", title: "Figure 6(a): K-means first-iteration time (including data load)", heading: "K-means",
		workloads: []workload{wlKMeans}, sizes: sizeSweep, rc: appRig,
		cols: threeCols, gains: []figGain{vsHadoop, vsSpark},
		note: "paper: first iteration from job start (load + compute + output); DataMPI up to 39% over Hadoop, 33% over Spark",
	}
	fig6b = &figure{
		id: "fig6b", title: "Figure 6(b): Naive Bayes training time (Hadoop vs DataMPI)", heading: "Naive Bayes",
		workloads: []workload{wlNaiveBayes}, sizes: sizeSweep, rc: appRig,
		cols: []figCol{hadoopCol, datampiCol}, gains: []figGain{{"DataMPI_gain", Hadoop}},
		note: "paper: DataMPI ~33% faster than Hadoop on average; BigDataBench 2.1 lacks a Spark implementation",
	}
)

func init() {
	for _, f := range []*figure{fig3a, fig3b, fig3c, fig3d, fig5, fig6a, fig6b} {
		register(Experiment{ID: f.id, Title: f.title, Run: f.run})
	}
}

// run measures every cell the memo does not already hold, fanned across
// the sweep workers, and renders the table.
func (f *figure) run(opt Options) (*Report, error) {
	sizes := f.sizes
	if opt.Quick && len(sizes) > 2 {
		sizes = []float64{sizes[0], sizes[len(sizes)-1]}
	}
	// One workload: rows are its sizes. Several: rows are the workloads.
	bySize := len(f.workloads) == 1
	axis := "Benchmark"
	if bySize {
		axis = "Size(GB)"
	}
	var labels []string
	var points []point // row-major, one per (row, column)
	for _, wl := range f.workloads {
		for _, gb := range sizes {
			label := workloads[wl].name
			if bySize {
				label = fmt.Sprintf("%.0f", gb)
			}
			labels = append(labels, label)
			for _, c := range f.cols {
				points = append(points, point{wl: wl, gb: gb, rc: f.rc}.at(opt, c.fw))
			}
		}
	}
	memo := opt.points()
	cells, _ := sweep(len(points), func(i int) (*measured, error) { return memo.measure(points[i]), nil })

	rep := &Report{ID: f.id, Title: f.heading, Columns: []string{axis}}
	for _, c := range f.cols {
		rep.Columns = append(rep.Columns, c.header)
	}
	for _, g := range f.gains {
		rep.Columns = append(rep.Columns, g.header)
	}
	var dSum, overSum float64 // the first gain pair, over rows where both ran
	for ri, label := range labels {
		row := []string{label}
		by := map[Framework]*measured{}
		for ci, c := range f.cols {
			by[c.fw] = cells[ri*len(f.cols)+ci]
			row = append(row, by[c.fw].cell())
		}
		for gi, g := range f.gains {
			d, over := by[DataMPI], by[g.over]
			if d.err != nil || over.err != nil || over.secs <= 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmtPct(1-d.secs/over.secs))
			if gi == 0 {
				dSum += d.secs
				overSum += over.secs
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	if f.meanGain != "" && overSum > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(f.meanGain, fmtPct(1-dSum/overSum)))
	}
	rep.Notes = append(rep.Notes, f.note)
	return rep, nil
}
