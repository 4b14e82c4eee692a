// Package harness defines one experiment per table and figure of the
// paper's evaluation (Section 4) and regenerates the corresponding rows
// and series on the simulated testbed. Every measurement runs on a
// fresh, isolated rig (cluster + DFS + engine), exactly as the paper
// benchmarks each system separately on the same hardware; the paper
// figures share one point runner (points.go) that stages and runs them.
package harness

import (
	"fmt"
	"sort"
	"strings"

	datampi "github.com/datampi/datampi-go"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/core"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/metrics"
	"github.com/datampi/datampi-go/internal/mr"
	"github.com/datampi/datampi-go/internal/rdd"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/transport"
)

// Options tune an experiment run.
type Options struct {
	// Scale is the data-scaling divisor: nominal bytes per actual byte.
	// Larger is faster but coarser. Zero selects each experiment's
	// default.
	Scale float64
	// Quick trims sweeps to fewer points for fast CI runs.
	Quick bool
	// Seed varies the generated data.
	Seed int64
	// TracePath, when non-empty, makes trace-aware experiments (e.g.
	// tracecheck) write a Chrome trace-event JSON there.
	TracePath string

	// memo holds the paper-figure points measured so far; nil means the
	// experiment measures into a memo of its own (see WithMemo).
	memo *memo
}

// WithMemo returns o sharing one fresh point memo: experiments run with
// the returned options measure each paper-figure point once between
// them (Figure 7 is made entirely of the other figures' points). Take
// one per `run` invocation or test; results are the same with or
// without it.
func (o Options) WithMemo() Options {
	o.memo = &memo{}
	return o
}

// points returns the memo an experiment measures through.
func (o Options) points() *memo {
	if o.memo == nil {
		return &memo{}
	}
	return o.memo
}

func (o Options) scaleOr(def float64) float64 {
	if o.Scale > 0 {
		return o.Scale
	}
	return def
}

func (o Options) seedOr(def int64) int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return def
}

// Report is an experiment's regenerated table/figure data.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Series carries the resource-utilization time series of the Figure 4
	// experiments, one per framework name; every metric is a column of it.
	Series map[string]metrics.Series
}

// Render formats the report as an aligned text table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	line(r.Columns)
	for i := range r.Columns {
		b.WriteString(strings.Repeat("-", widths[i]))
		if i < len(r.Columns)-1 {
			b.WriteString("  ")
		}
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the rows as comma-separated values.
func (r *Report) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Columns, ","))
	b.WriteString("\n")
	for _, row := range r.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(opt Options) (*Report, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments returns all registered experiments sorted by ID.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Framework identifies one of the three systems under test.
type Framework int

const (
	Hadoop Framework = iota
	Spark
	DataMPI
)

// systems lists the three frameworks in the paper's column order.
var systems = []Framework{Hadoop, Spark, DataMPI}

func (f Framework) String() string {
	switch f {
	case Hadoop:
		return "Hadoop"
	case Spark:
		return "Spark"
	default:
		return "DataMPI"
	}
}

// Rig is one isolated measurement setup: a fresh simulated cluster, DFS
// and engine for a single framework.
type Rig struct {
	FW           Framework
	Cluster      *cluster.Cluster
	FS           *dfs.FS
	Engine       job.Engine
	Prof         *metrics.Profiler
	TasksPerNode int // normalized concurrent tasks per node

	MR  *mr.Engine
	RDD *rdd.Engine
	DM  *core.Engine
}

// RigConfig controls rig construction.
type RigConfig struct {
	Scale        float64
	BlockSize    float64 // nominal; default 256 MB (the paper's tuned value)
	TasksPerNode int     // default 4 (the paper's tuned value)
	Replication  int     // DFS replication; default 3 (the paper's value)
	Racks        int     // failure domains; 0/1 = flat single-rack topology
	Gateway      bool    // stage inputs through a single upload client (node 0)
	Profile      bool    // attach a resource profiler
	ProfInterval float64
	Seed         int64
	// Transport overrides the engine's staged-transport profile. The
	// zero value keeps each framework's default profile.
	Transport transport.Profile
}

// NewRig builds a rig for one framework.
func NewRig(fw Framework, rc RigConfig) *Rig {
	if rc.BlockSize <= 0 {
		rc.BlockSize = 256 * cluster.MB
	}
	if rc.TasksPerNode <= 0 {
		rc.TasksPerNode = 4
	}
	if rc.Scale <= 0 {
		rc.Scale = 1
	}
	if rc.ProfInterval <= 0 {
		rc.ProfInterval = 1.0
	}
	if rc.Replication <= 0 {
		rc.Replication = 3
	}
	hw := cluster.DefaultHardware()
	if rc.Racks > 1 {
		hw.Topology = cluster.Topology{Racks: rc.Racks}
	}
	c := cluster.New(hw)
	fsys := dfs.New(c, dfs.Config{
		BlockSize:        rc.BlockSize,
		Replication:      rc.Replication,
		Scale:            rc.Scale,
		Seed:             rc.Seed + 100,
		PerBlockOverhead: dfs.DefaultConfig().PerBlockOverhead,
		GatewayUpload:    rc.Gateway,
	})
	r := &Rig{FW: fw, Cluster: c, FS: fsys, TasksPerNode: rc.TasksPerNode}
	if rc.Profile {
		r.Prof = metrics.NewProfiler(c, rc.ProfInterval)
		fsys.SetProfiler(r.Prof)
	}
	switch fw {
	case Hadoop:
		cfg := mr.DefaultConfig()
		cfg.TasksPerNode = rc.TasksPerNode
		cfg.Transport = rc.Transport
		e := mr.New(fsys, cfg)
		e.Prof = r.Prof
		r.MR = e
		r.Engine = e
	case Spark:
		cfg := rdd.DefaultConfig()
		cfg.WorkersPerNode = rc.TasksPerNode
		cfg.Transport = rc.Transport
		e := rdd.New(fsys, cfg)
		e.Prof = r.Prof
		r.RDD = e
		r.Engine = e
	case DataMPI:
		cfg := core.DefaultConfig()
		cfg.TasksPerNode = rc.TasksPerNode
		cfg.Transport = rc.Transport
		e := core.New(fsys, cfg)
		e.Prof = r.Prof
		r.DM = e
		r.Engine = e
	}
	return r
}

// Testbed adapts the rig to the public Scenario API: experiments build
// rigs (paper-faithful cluster/DFS geometry) and then describe their
// runs declaratively with datampi.NewScenario over this testbed.
func (r *Rig) Testbed() *datampi.Testbed {
	return &datampi.Testbed{Cluster: r.Cluster, FS: r.FS}
}

// Sched returns the rig's engine as a sched.Engine for queue submission.
func (r *Rig) Sched() sched.Engine {
	switch r.FW {
	case Hadoop:
		return r.MR
	case Spark:
		return r.RDD
	default:
		return r.DM
	}
}

// fmtSecs renders seconds for table cells.
func fmtSecs(s float64) string { return fmt.Sprintf("%.0f", s) }

// fmtPct renders a ratio as a percentage string.
func fmtPct(x float64) string { return fmt.Sprintf("%.0f%%", x*100) }
