package metrics

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/sim"
)

func TestProfilerSamplesCPUAndStops(t *testing.T) {
	c := cluster.New(cluster.DefaultHardware())
	pr := NewProfiler(c, 0.5)
	pr.Start()
	c.Eng.Go("worker", func(p *sim.Proc) {
		c.Node(0).CPU.Use(p, 4, "cpu") // 4 core-seconds at 1 core = 4s
		pr.Stop()
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := pr.Series()
	if len(s.Samples) < 4 {
		t.Fatalf("only %d samples", len(s.Samples))
	}
	w := s.Aggregate(0)
	// One core busy on one of 8 nodes with 8 cores each: 12.5%/8 ≈ 1.6%.
	if w.AvgCPUPct <= 0 || w.AvgCPUPct > 5 {
		t.Fatalf("avg cpu = %v", w.AvgCPUPct)
	}
}

func TestProfilerDiskAttribution(t *testing.T) {
	c := cluster.New(cluster.DefaultHardware())
	pr := NewProfiler(c, 0.5)
	pr.Start()
	c.Eng.Go("io", func(p *sim.Proc) {
		pr.AddDiskRead(0, 100*cluster.MB)
		pr.AddDiskWrite(1, 50*cluster.MB)
		p.Sleep(1)
		pr.Stop()
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	w := pr.Series().Aggregate(0)
	if w.AvgDiskRead <= 0 || w.AvgDiskWrit <= 0 {
		t.Fatalf("disk attribution missing: %+v", w)
	}
}

func TestAggregateWindowCutoff(t *testing.T) {
	s := Series{Interval: 1, Samples: []Sample{
		{T: 1, CPUPct: 100},
		{T: 2, CPUPct: 100},
		{T: 3, CPUPct: 0},
		{T: 4, CPUPct: 0},
	}}
	full := s.Aggregate(0)
	if full.AvgCPUPct != 50 {
		t.Fatalf("full avg = %v", full.AvgCPUPct)
	}
	early := s.Aggregate(2)
	if early.AvgCPUPct != 100 {
		t.Fatalf("windowed avg = %v", early.AvgCPUPct)
	}
}

func TestWaitIOHook(t *testing.T) {
	c := cluster.New(cluster.DefaultHardware())
	pr := NewProfiler(c, 0.5)
	pr.WaitIOFunc = func(node int) int {
		if node == 0 {
			return 4
		}
		return 0
	}
	pr.Start()
	c.Eng.Go("idle", func(p *sim.Proc) {
		p.Sleep(2)
		pr.Stop()
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	w := pr.Series().Aggregate(0)
	if w.AvgWaitIO <= 0 {
		t.Fatal("wait-IO hook ignored")
	}
}

func TestRenderASCII(t *testing.T) {
	s := Series{Interval: 1}
	for i := 0; i < 20; i++ {
		s.Samples = append(s.Samples, Sample{T: float64(i), CPUPct: float64(i * 5)})
	}
	out, err := s.RenderASCII("cpu", 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cpu") || !strings.Contains(out, "*") {
		t.Fatalf("render missing content:\n%s", out)
	}
	empty, err := (Series{}).RenderASCII("cpu", 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty, "no samples") {
		t.Fatal("empty series should say no samples")
	}
}

func TestRenderASCIIUnknownMetric(t *testing.T) {
	s := Series{Interval: 1, Samples: []Sample{{T: 0, CPUPct: 10}}}
	out, err := s.RenderASCII("cpus", 10, 4)
	if err == nil {
		t.Fatalf("unknown metric should error, got output %q", out)
	}
	for _, key := range MetricKeys {
		if !strings.Contains(err.Error(), key) {
			t.Fatalf("error %q should list valid key %q", err, key)
		}
	}
}

func TestSeriesWriteCSVAndJSON(t *testing.T) {
	s := Series{Interval: 0.5, Samples: []Sample{
		{T: 0.5, CPUPct: 12.5, WaitIO: 3, DiskRead: 1e6, DiskWrit: 2e6, NetMBps: 3e6, MemBytes: 4e9},
		{T: 1, CPUPct: 25},
	}}
	var csv strings.Builder
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv should have header + 2 rows, got %d lines:\n%s", len(lines), csv.String())
	}
	if lines[0] != "t,cpu_pct,waitio_pct,disk_read_bps,disk_write_bps,net_bps,mem_bytes" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if lines[1] != "0.5,12.5,3,1e+06,2e+06,3e+06,4e+09" {
		t.Fatalf("csv row = %q", lines[1])
	}
	var js strings.Builder
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Interval float64 `json:"interval"`
		Samples  []struct {
			T      float64 `json:"t"`
			CPUPct float64 `json:"cpu_pct"`
		} `json:"samples"`
	}
	if err := json.Unmarshal([]byte(js.String()), &doc); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v\n%s", err, js.String())
	}
	if doc.Interval != 0.5 || len(doc.Samples) != 2 || doc.Samples[0].CPUPct != 12.5 {
		t.Fatalf("json round-trip = %+v", doc)
	}
}

func TestWindowString(t *testing.T) {
	w := Window{AvgCPUPct: 50, AvgNet: 10 * cluster.MB, AvgMem: 2 * cluster.GB}
	str := w.String()
	if !strings.Contains(str, "cpu=50%") || !strings.Contains(str, "mem=2.0GB") {
		t.Fatalf("window string = %q", str)
	}
}

func TestDist(t *testing.T) {
	if d := NewDist(nil); d != (Dist{}) {
		t.Fatalf("empty dist = %+v, want zero", d)
	}
	// 1..20: nearest-rank p50 = 10th value, p95 = 19th value.
	var xs []float64
	for i := 20; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	d := NewDist(xs)
	if d.N != 20 || d.Min != 1 || d.Max != 20 {
		t.Fatalf("dist = %+v", d)
	}
	if d.P50 != 10 || d.P95 != 19 {
		t.Fatalf("percentiles p50=%v p95=%v, want 10 and 19 (nearest rank)", d.P50, d.P95)
	}
	if d.Mean != 10.5 {
		t.Fatalf("mean = %v, want 10.5", d.Mean)
	}
	if xs[0] != 20 {
		t.Fatal("NewDist must not reorder its input")
	}
	one := NewDist([]float64{7})
	if one.P50 != 7 || one.P95 != 7 || one.Mean != 7 {
		t.Fatalf("singleton dist = %+v", one)
	}
}
