// Package metrics implements the dstat-style resource profiler the paper
// uses in Section 4.4: per-second samples of CPU utilization, CPU wait-I/O,
// disk read/write throughput, network throughput, and memory footprint,
// averaged across the cluster's nodes.
//
// Samples are taken in simulated time by a periodic event, reading the
// instantaneous rates of the simulation resources, so the resulting time
// series are exactly the quantities plotted in Figure 4.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/sim"
)

// Dist summarizes a sample (e.g. per-job response times in seconds):
// count, mean, extremes, and nearest-rank percentiles. The zero value is
// an empty distribution. Scenario reports aggregate per-tenant latency
// with it.
type Dist struct {
	N    int
	Mean float64
	P50  float64
	P95  float64
	P99  float64
	Min  float64
	Max  float64
}

// NewDist computes the summary of xs (left unmodified). Percentiles use
// the nearest-rank method — deterministic and meaningful even for the
// small samples a trace of a few dozen jobs produces.
func NewDist(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := Dist{N: len(s), Min: s[0], Max: s[len(s)-1]}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	d.Mean = sum / float64(len(s))
	d.P50 = s[nearestRank(0.50, len(s))]
	d.P95 = s[nearestRank(0.95, len(s))]
	d.P99 = s[nearestRank(0.99, len(s))]
	return d
}

// nearestRank maps percentile p of n sorted samples to an index.
func nearestRank(p float64, n int) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// Sample is one profiling tick, averaged across nodes.
type Sample struct {
	T        float64 // seconds since profiling started
	CPUPct   float64 // CPU utilization, percent of node capacity
	WaitIO   float64 // CPU wait-I/O, percent
	DiskRead float64 // bytes/sec per node
	DiskWrit float64 // bytes/sec per node
	NetMBps  float64 // network receive bytes/sec per node
	MemBytes float64 // memory footprint bytes per node
}

// Series is a profiling run's full time series.
type Series struct {
	Interval float64
	Samples  []Sample
}

// Profiler periodically samples a cluster. Engines report their disk
// traffic split (the simulator's disk resource blends read and write) and
// their memory footprints through the IOAccounts hooks.
type Profiler struct {
	c        *cluster.Cluster
	interval float64
	series   Series
	stop     bool
	started  bool
	timer    *sim.Timer // the single sampling timer, re-armed every tick

	// Per-node cumulative disk byte counters maintained by the engines via
	// AddDiskRead/AddDiskWrite (the PS disk resource cannot distinguish
	// direction).
	diskRead  []float64
	diskWrite []float64
	lastRead  []float64
	lastWrite []float64
	lastRx    []float64

	// WaitIOFunc, if set, returns the number of execution threads blocked
	// on I/O at node i; used to derive the wait-I/O percentage.
	WaitIOFunc func(node int) int
}

// NewProfiler creates a profiler sampling every interval simulated seconds.
func NewProfiler(c *cluster.Cluster, interval float64) *Profiler {
	n := c.N()
	return &Profiler{
		c:         c,
		interval:  interval,
		series:    Series{Interval: interval},
		diskRead:  make([]float64, n),
		diskWrite: make([]float64, n),
		lastRead:  make([]float64, n),
		lastWrite: make([]float64, n),
		lastRx:    make([]float64, n),
	}
}

// AddDiskRead records nominal bytes read from node i's disk. Like
// AddDiskWrite it is a no-op on a nil profiler, so engines with no
// profiler attached call it unguarded.
func (pr *Profiler) AddDiskRead(node int, bytes float64) {
	if pr != nil {
		pr.diskRead[node] += bytes
	}
}

// AddDiskWrite records nominal bytes written to node i's disk.
func (pr *Profiler) AddDiskWrite(node int, bytes float64) {
	if pr != nil {
		pr.diskWrite[node] += bytes
	}
}

// Start begins sampling at the current simulated time.
func (pr *Profiler) Start() {
	if pr.started {
		return
	}
	pr.started = true
	n := pr.c.N()
	for i := 0; i < n; i++ {
		pr.lastRx[i] = pr.c.Net.RxIntegral(i)
	}
	start := pr.c.Eng.Now()
	// One closure and one timer for the whole run: the timer is re-armed
	// in place each tick instead of scheduling a fresh event per sample.
	pr.timer = pr.c.Eng.Schedule(pr.interval, func() {
		if pr.stop {
			return
		}
		pr.sample(pr.c.Eng.Now() - start)
		pr.timer.Reset(pr.interval)
	})
}

// Stop ends sampling.
func (pr *Profiler) Stop() { pr.stop = true }

func (pr *Profiler) sample(t float64) {
	n := float64(pr.c.N())
	var s Sample
	s.T = t
	threads := float64(pr.c.HW.Cores)
	for i := 0; i < pr.c.N(); i++ {
		node := pr.c.Node(i)
		busy := node.CPU.UsedRate() / node.CPU.Capacity()
		s.CPUPct += busy * 100

		if pr.WaitIOFunc != nil {
			blocked := float64(pr.WaitIOFunc(i))
			idle := 1 - busy
			if idle < 0 {
				idle = 0
			}
			w := blocked / threads
			if w > idle {
				w = idle
			}
			s.WaitIO += w * 100
		}

		dr := pr.diskRead[i]
		dw := pr.diskWrite[i]
		s.DiskRead += (dr - pr.lastRead[i]) / pr.interval
		s.DiskWrit += (dw - pr.lastWrite[i]) / pr.interval
		pr.lastRead[i] = dr
		pr.lastWrite[i] = dw

		rx := pr.c.Net.RxIntegral(i)
		s.NetMBps += (rx - pr.lastRx[i]) / pr.interval
		pr.lastRx[i] = rx

		s.MemBytes += node.Mem.Used()
	}
	s.CPUPct /= n
	s.WaitIO /= n
	s.DiskRead /= n
	s.DiskWrit /= n
	s.NetMBps /= n
	s.MemBytes /= n
	pr.series.Samples = append(pr.series.Samples, s)
}

// Series returns the collected samples in chronological order.
func (pr *Profiler) Series() Series { return pr.series }

// Window aggregates samples with T in [0, until] into averages, mirroring
// the paper's "average over 0-117 seconds" style of reporting.
type Window struct {
	AvgCPUPct   float64
	AvgWaitIO   float64
	AvgDiskRead float64 // bytes/sec
	AvgDiskWrit float64
	AvgNet      float64 // bytes/sec
	AvgMem      float64 // bytes
	PeakNet     float64
	PeakMem     float64
}

// Aggregate computes window averages over samples with T <= until
// (until <= 0 means the whole series).
func (s Series) Aggregate(until float64) Window {
	var w Window
	n := 0
	for _, smp := range s.Samples {
		if until > 0 && smp.T > until {
			break
		}
		w.AvgCPUPct += smp.CPUPct
		w.AvgWaitIO += smp.WaitIO
		w.AvgDiskRead += smp.DiskRead
		w.AvgDiskWrit += smp.DiskWrit
		w.AvgNet += smp.NetMBps
		w.AvgMem += smp.MemBytes
		if smp.NetMBps > w.PeakNet {
			w.PeakNet = smp.NetMBps
		}
		if smp.MemBytes > w.PeakMem {
			w.PeakMem = smp.MemBytes
		}
		n++
	}
	if n > 0 {
		w.AvgCPUPct /= float64(n)
		w.AvgWaitIO /= float64(n)
		w.AvgDiskRead /= float64(n)
		w.AvgDiskWrit /= float64(n)
		w.AvgNet /= float64(n)
		w.AvgMem /= float64(n)
	}
	return w
}

// String renders the window like the paper's prose summaries.
func (w Window) String() string {
	return fmt.Sprintf("cpu=%.0f%% waitio=%.0f%% diskRd=%.0fMB/s diskWt=%.0fMB/s net=%.0fMB/s mem=%.1fGB",
		w.AvgCPUPct, w.AvgWaitIO,
		w.AvgDiskRead/cluster.MB, w.AvgDiskWrit/cluster.MB,
		w.AvgNet/cluster.MB, w.AvgMem/cluster.GB)
}

// MetricKeys are the metric names RenderASCII accepts, in the column
// order WriteCSV emits them.
var MetricKeys = []string{"cpu", "waitio", "diskread", "diskwrite", "net", "mem"}

// metricGetter returns the accessor for one named metric, or nil for an
// unknown name.
func metricGetter(metric string) func(Sample) float64 {
	switch metric {
	case "cpu":
		return func(sm Sample) float64 { return sm.CPUPct }
	case "waitio":
		return func(sm Sample) float64 { return sm.WaitIO }
	case "diskread":
		return func(sm Sample) float64 { return sm.DiskRead / cluster.MB }
	case "diskwrite":
		return func(sm Sample) float64 { return sm.DiskWrit / cluster.MB }
	case "net":
		return func(sm Sample) float64 { return sm.NetMBps / cluster.MB }
	case "mem":
		return func(sm Sample) float64 { return sm.MemBytes / cluster.GB }
	}
	return nil
}

// RenderASCII plots one metric of the series as a compact ASCII chart,
// which the CLI uses to visualize the Figure 4 curves. An unknown
// metric name is an error naming the valid keys.
func (s Series) RenderASCII(metric string, width, height int) (string, error) {
	get := metricGetter(metric)
	if get == nil {
		return "", fmt.Errorf("metrics: unknown metric %q (valid: %s)", metric, strings.Join(MetricKeys, ", "))
	}
	if len(s.Samples) == 0 || width <= 0 || height <= 0 {
		return "(no samples)\n", nil
	}
	maxV := 0.0
	for _, sm := range s.Samples {
		if v := get(sm); v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for x := 0; x < width; x++ {
		idx := x * len(s.Samples) / width
		v := get(s.Samples[idx])
		y := int(v / maxV * float64(height-1))
		if y >= height {
			y = height - 1
		}
		grid[height-1-y][x] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (max %.1f)\n", metric, maxV)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n")
	return b.String(), nil
}

// WriteCSV writes the series as CSV: a header row, then one row per
// sample with the raw units of Sample (seconds, percents, bytes/sec,
// bytes) — the machine-readable form of the Figure-4 curves.
func (s Series) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("t,cpu_pct,waitio_pct,disk_read_bps,disk_write_bps,net_bps,mem_bytes\n")
	for _, sm := range s.Samples {
		fmt.Fprintf(bw, "%g,%g,%g,%g,%g,%g,%g\n",
			sm.T, sm.CPUPct, sm.WaitIO, sm.DiskRead, sm.DiskWrit, sm.NetMBps, sm.MemBytes)
	}
	return bw.Flush()
}

// WriteJSON writes the series as one JSON document:
// {"interval":..., "samples":[{"t":..., "cpu_pct":..., ...}]}. Fields
// carry the raw units of Sample.
func (s Series) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"interval\":%g,\"samples\":[", s.Interval)
	for i, sm := range s.Samples {
		if i > 0 {
			bw.WriteString(",")
		}
		fmt.Fprintf(bw,
			"\n{\"t\":%g,\"cpu_pct\":%g,\"waitio_pct\":%g,\"disk_read_bps\":%g,\"disk_write_bps\":%g,\"net_bps\":%g,\"mem_bytes\":%g}",
			sm.T, sm.CPUPct, sm.WaitIO, sm.DiskRead, sm.DiskWrit, sm.NetMBps, sm.MemBytes)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
