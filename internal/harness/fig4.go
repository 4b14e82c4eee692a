package harness

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/metrics"
)

// profiledRig is the rig behind a Figure 4 panel: the resource profiler
// attached, sampling every simulated second.
var profiledRig = RigConfig{Scale: 4096, Profile: true}

// fig4 registers the profile table of one workload: the paper's Figure 4
// rows (a-d) or (e-h), reporting window averages over the slowest
// framework's runtime, as Section 4.4 does.
func fig4(id, title, heading string, wl workload, gb float64, notes ...string) {
	register(Experiment{ID: id, Title: title, Run: func(opt Options) (*Report, error) {
		rep := &Report{ID: id, Title: heading,
			Columns: []string{"Framework", "JobTime(s)", "PhaseTime(s)", "AvgCPU%", "WaitIO%", "DiskRd(MB/s)", "DiskWt(MB/s)", "Net(MB/s)", "Mem(GB)"},
			Series:  map[string]metrics.Series{},
			Notes:   notes,
		}
		memo := opt.points()
		runs := make([]*measured, len(systems))
		// The paper averages every system over the window of the slowest
		// system's runtime (e.g. "during 0-117 seconds").
		window := 0.0
		for i, fw := range systems {
			runs[i] = memo.measure(point{wl: wl, gb: gb, rc: profiledRig}.at(opt, fw))
			rep.Series[fw.String()] = runs[i].series
			if runs[i].err == nil && runs[i].secs > window {
				window = runs[i].secs
			}
		}
		for i, m := range runs {
			if m.err != nil {
				rep.Rows = append(rep.Rows, []string{systems[i].String(), failCell(m.err), "-", "-", "-", "-", "-", "-", "-"})
				continue
			}
			w := m.series.Aggregate(window)
			phase := "-"
			for _, key := range []string{"map", "O", "stage0"} {
				if v, ok := m.phases[key]; ok {
					phase = fmt.Sprintf("%s=%.0f", key, v)
					break
				}
			}
			row := []string{systems[i].String(), fmtSecs(m.secs), phase}
			for _, v := range []float64{w.AvgCPUPct, w.AvgWaitIO, w.AvgDiskRead / cluster.MB, w.AvgDiskWrit / cluster.MB, w.AvgNet / cluster.MB} {
				row = append(row, fmt.Sprintf("%.0f", v))
			}
			rep.Rows = append(rep.Rows, append(row, fmt.Sprintf("%.1f", w.AvgMem/cluster.GB)))
		}
		return rep, nil
	}})
}

func init() {
	fig4("fig4sort", "Figure 4(a-d): resource utilization of 8GB Text Sort (CPU, disk, network, memory)",
		"8GB Text Sort resource profile", wlTextSort, 8,
		"paper: DataMPI 69s (O phase 28s), Hadoop 117s (map 36s), Spark 114s (stage0 38s)",
		"paper avgs over 0-117s: CPU 24/38/37%, waitIO 6/12/15%, net 62/40/39 MB/s, mem 5/9/5 GB (DataMPI/Spark/Hadoop)")
	fig4("fig4wc", "Figure 4(e-h): resource utilization of 32GB WordCount",
		"32GB WordCount resource profile", wlWordCount, 32,
		"paper: DataMPI and Spark ~130s, Hadoop 275s",
		"paper avgs over 0-275s: CPU 47/30/80%, diskRd 44/44/20 MB/s, mem 5/5/9 GB (DataMPI/Spark/Hadoop)")
}
