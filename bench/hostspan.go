package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// hostSpan is one timed call the benchmark made into a layer of the
// repository, on the host clock. Parent is the index of the enclosing
// span in the same recorder (-1 for a root).
type hostSpan struct {
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Job    string  `json:"job,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
}

// recorder times every call the benchmark makes into the repository.
// Per-call totals are always kept — they cost two clock reads around
// calls that take milliseconds, and the per-run layer metrics
// (bdb.gen_s, cluster.rig_build_ms, mr.run_s, ...) are sums over them.
// Span records are kept only in the traced pass.
type recorder struct {
	keep   bool
	origin time.Time
	spans  []hostSpan
	open   []int // indices of kept spans still running, innermost last
	total  map[string]float64
	count  map[string]int
}

func newRecorder(keep bool) *recorder {
	return &recorder{keep: keep, origin: time.Now(),
		total: map[string]float64{}, count: map[string]int{}}
}

// call runs fn as one span of layer.
func (r *recorder) call(layer, name, job string, fn func()) {
	start := time.Now()
	idx := -1
	if r.keep {
		parent := -1
		if n := len(r.open); n > 0 {
			parent = r.open[n-1]
		}
		idx = len(r.spans)
		r.spans = append(r.spans, hostSpan{Name: name, Layer: layer, Job: job,
			Start: start.Sub(r.origin).Seconds(), Parent: parent})
		r.open = append(r.open, idx)
	}
	fn()
	end := time.Now()
	key := layer + "." + name
	r.total[key] += end.Sub(start).Seconds()
	r.count[key]++
	if idx >= 0 {
		r.spans[idx].End = end.Sub(r.origin).Seconds()
		r.open = r.open[:len(r.open)-1]
	}
}

// layerSeconds sums the recorded host time of every call into layer.
func (r *recorder) layerSeconds(layer string) float64 {
	s := 0.0
	for k, v := range r.total {
		if strings.HasPrefix(k, layer+".") {
			s += v
		}
	}
	return s
}

// selfSeconds returns each span's duration minus the part its direct
// children cover. Children never overlap: the benchmark is one thread.
func selfSeconds(spans []hostSpan) []float64 {
	self := make([]float64, len(spans))
	for i, sp := range spans {
		self[i] += sp.End - sp.Start
		if sp.Parent >= 0 {
			self[sp.Parent] -= sp.End - sp.Start
		}
	}
	return self
}

// tracedProcess is one workload's host spans in the exported trace.
type tracedProcess struct {
	Workload string
	Spans    []hostSpan
}

// writeHostTrace writes the spans as Chrome trace-event JSON (one
// process per workload), loadable in ui.perfetto.dev.
func writeHostTrace(w io.Writer, procs []tracedProcess) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}
	for pi, p := range procs {
		pid := pi + 1
		sep()
		fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":%d,"args":{"name":%s}}`, pid, strconv.Quote(p.Workload))
		self := selfSeconds(p.Spans)
		for i, sp := range p.Spans {
			sep()
			fmt.Fprintf(bw, `{"name":%s,"cat":%s,"ph":"X","pid":%d,"tid":1,"ts":%.1f,"dur":%.1f,"args":{"id":%d,"parent":%d,"job":%s,"self_us":%.1f}}`,
				strconv.Quote(sp.Name), strconv.Quote(sp.Layer), pid,
				sp.Start*1e6, (sp.End-sp.Start)*1e6, i, sp.Parent, strconv.Quote(sp.Job), self[i]*1e6)
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
