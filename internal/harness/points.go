package harness

import (
	"errors"
	"sync"

	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/metrics"
	"github.com/datampi/datampi-go/internal/sim"
)

// workload identifies a BigDataBench job of the paper's evaluation.
type workload int

const (
	wlNormalSort workload = iota
	wlTextSort
	wlWordCount
	wlGrep
	wlKMeans
	wlNaiveBayes
	// wlTuneSort is fig2b's Text Sort. It draws the un-offset text stream
	// the tuning runs have always used; under wlTextSort's stream all
	// nine fig2b cells move.
	wlTuneSort
)

// workloads names each workload and gives its data stream: every point
// of workload w, in whichever figure, generates its input from seed
// RigConfig.Seed + stream — the same scalable data set on every system.
var workloads = [...]struct {
	name   string
	stream int64
}{
	wlNormalSort: {"Normal Sort", 4},
	wlTextSort:   {"Text Sort", 1},
	wlWordCount:  {"WordCount", 2},
	wlGrep:       {"Grep", 3},
	wlKMeans:     {"K-means", 0},
	wlNaiveBayes: {"Naive Bayes", 0},
	wlTuneSort:   {"Text Sort", 0},
}

// GrepPattern is the search pattern for the Grep benchmark: a regular
// expression with moderate selectivity over the wikipedia-model text.
const GrepPattern = `th[ae]`

// point is one measurement of the paper: one system running one workload
// at one nominal size on a fresh rig built from rc. It is comparable, so
// two figures that need the same point share one run.
type point struct {
	fw Framework
	wl workload
	gb float64
	rc RigConfig
}

// at is p on system fw under opt: figures write their points with the
// default scale in rc and no seed, and this is where -scale and -seed
// apply to every one of them.
func (p point) at(opt Options, fw Framework) point {
	p.fw = fw
	p.rc.Scale = opt.scaleOr(p.rc.Scale)
	p.rc.Seed = opt.seedOr(1)
	return p
}

// measured is what a figure keeps of a point: no rig, so a memo of a
// whole run holds seconds and series, not clusters and file systems.
type measured struct {
	secs   float64 // job time; for K-means the first iteration, load included
	err    error
	phases map[string]float64
	series metrics.Series // sampled only when rc.Profile is set
}

// cell renders the job time, or why there is none.
func (m *measured) cell() string {
	if m.err != nil {
		return failCell(m.err)
	}
	return fmtSecs(m.secs)
}

// failCell renders a failed job for a table cell.
func failCell(err error) string {
	var oom *sim.OOMError
	if errors.As(err, &oom) {
		return "OOM"
	}
	return "FAIL"
}

// memo remembers every point measured through it. One memo serves one
// `datampi-bench run` invocation or one test (Options.WithMemo); it is
// never shared wider, so two invocations measure independently.
type memo struct {
	mu    sync.Mutex
	cells map[point]func() *measured
}

// measure runs p unless this memo already has; sweep workers asking for
// the same point at once wait for the one run.
func (m *memo) measure(p point) *measured {
	m.mu.Lock()
	cell := m.cells[p]
	if cell == nil {
		cell = sync.OnceValue(func() *measured { return runPoint(p) })
		if m.cells == nil {
			m.cells = map[point]func() *measured{}
		}
		m.cells[p] = cell
	}
	m.mu.Unlock()
	return cell()
}

// runPoint stages p's input and runs its job. Every paper figure's data
// comes from here: input at /bench/in (seq+gzip copy at /bench/seq),
// output under /bench/out, seed by the workload's stream, reducers =
// tasks per node x nodes. The bytes come from bdb's staging store, so the
// points of one input, on any system and in any figure, generate and
// deflate it once; each still preloads it into its own rig's FS.
func runPoint(p point) *measured {
	rig := NewRig(p.fw, p.rc)
	fsys := rig.FS
	const in, out = "/bench/in", "/bench/out"
	nominal := p.gb * cluster.GB
	seed := p.rc.Seed + workloads[p.wl].stream
	reducers := rig.TasksPerNode * rig.Cluster.N()

	m := &measured{}
	switch p.wl {
	case wlKMeans:
		vecs, _ := bdb.GenerateVectorFile(fsys, in, seed, nominal)
		var r bdb.KMeansResult
		switch p.fw {
		case Hadoop:
			r = bdb.KMeansMR(rig.Engine, fsys, vecs, out, 5, reducers, 1, 0)
		case Spark:
			r = bdb.KMeansSpark(rig.RDD, vecs, 5, reducers, 1, 0)
		case DataMPI:
			r = bdb.KMeansDataMPI(rig.DM, vecs, 5, 1, 0)
		}
		m.secs, m.err = r.FirstIter, r.Err
	case wlNaiveBayes:
		docs := bdb.GenerateLabeledDocs(fsys, in, seed, nominal)
		r := bdb.NaiveBayesTrain(rig.Engine, fsys, docs, out, reducers)
		m.secs, m.err = r.Elapsed, r.Err
	default:
		var spec job.Spec
		if p.wl == wlNormalSort {
			// Normal Sort's size axis is the compressed sequence-file
			// size, as in the paper: generate enough text that the gzip
			// output hits the target.
			nominal *= seqRatio(fsys, seed)
		}
		text := bdb.GenerateTextFile(fsys, in, bdb.LDAWiki1W(), seed, nominal)
		switch p.wl {
		case wlTextSort, wlTuneSort:
			spec = bdb.TextSortSpec(fsys, text, out, reducers)
		case wlWordCount:
			spec = bdb.WordCountSpec(fsys, text, out, reducers)
		case wlGrep:
			spec = bdb.GrepSpec(fsys, text, out, GrepPattern, reducers)
		case wlNormalSort:
			seq, err := bdb.ToSeqFile(fsys, in, "/bench/seq")
			if err != nil {
				return &measured{err: err}
			}
			spec = bdb.NormalSortSpec(fsys, seq, out, reducers)
		}
		res := rig.Engine.Run(spec)
		m.secs, m.err, m.phases = res.Elapsed, res.Err, res.Phases
	}
	if rig.Prof != nil {
		m.series = rig.Prof.Series()
	}
	return m
}

// seqRatio measures the text -> seq+gzip size ratio on a small sample.
// It keeps no package-level state, so parallel points do not race.
func seqRatio(fsys *dfs.FS, seed int64) float64 {
	const text, seq = "/bench/probe-text", "/bench/probe-seq"
	sample := bdb.GenerateTextFile(fsys, text, bdb.LDAWiki1W(), seed, 64*1024*fsys.Config().Scale)
	ratio := 3.0 // typical, should the sample not compress
	if gz, err := bdb.ToSeqFile(fsys, text, seq); err == nil && gz.Nominal > 0 {
		ratio = sample.Nominal / gz.Nominal
		fsys.Delete(seq)
	}
	fsys.Delete(text)
	return ratio
}
