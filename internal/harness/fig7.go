package harness

import (
	"fmt"

	"github.com/datampi/datampi-go/internal/cluster"
)

// Figure 7 summarises runs the other figures already made, so it is a
// projection of their points: it stages nothing, and within one memo it
// measures nothing Figures 3-6 have measured.

// fig7Speed are the three performance prongs: total job time over the
// listed cells of other figures, as a speedup over Hadoop.
var fig7Speed = []struct {
	name  string
	cells []point
}{
	{"Micro Benchmark Performance", []point{
		{wl: wlTextSort, gb: 8, rc: fig3b.rc}, {wl: wlWordCount, gb: 32, rc: fig3c.rc}, {wl: wlGrep, gb: 16, rc: fig3d.rc}}},
	{"Small Job Performance", []point{{wl: wlWordCount, gb: 0.125, rc: fig5.rc}}},
	{"Application Benchmark Performance", []point{{wl: wlKMeans, gb: 16, rc: fig6a.rc}}},
}

// fig7Profiled are the two Figure 4 cases the paper derives the four
// efficiency prongs from.
var fig7Profiled = []point{{wl: wlTextSort, gb: 8, rc: profiledRig}, {wl: wlWordCount, gb: 32, rc: profiledRig}}

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "Figure 7: seven-pronged evaluation summary",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "fig7", Title: "Seven-dimension summary (higher is better, Hadoop=1.0)",
				Columns: []string{"Dimension", "Hadoop", "Spark", "DataMPI"}}
			memo := opt.points()

			// row renders one prong relative to Hadoop's value.
			row := func(name string, v [3]float64, cell func(h, x float64) string) {
				rep.Rows = append(rep.Rows, []string{name, "1.00", cell(v[Hadoop], v[Spark]), cell(v[Hadoop], v[DataMPI])})
			}
			for _, prong := range fig7Speed {
				var secs [3]float64
				for _, fw := range systems {
					for _, c := range prong.cells {
						m := memo.measure(c.at(opt, fw))
						if m.err != nil {
							secs[fw] = -1 // a system that fails a cell fails the prong
							break
						}
						secs[fw] += m.secs
					}
				}
				row(prong.name, secs, func(h, x float64) string {
					if x <= 0 {
						return "fail"
					}
					return fmt.Sprintf("%.2f", h/x)
				})
			}

			// Efficiency = useful work per unit resource-time.
			var cpu, disk, net, mem [3]float64
			for _, fw := range systems {
				for _, c := range fig7Profiled {
					m := memo.measure(c.at(opt, fw))
					if m.err != nil {
						continue
					}
					w := m.series.Aggregate(0)
					work := c.gb * cluster.GB
					if w.AvgCPUPct > 0 {
						cpu[fw] += work / (w.AvgCPUPct / 100 * m.secs)
					}
					disk[fw] += w.AvgDiskRead + w.AvgDiskWrit
					net[fw] += w.AvgNet
					if w.AvgMem > 0 {
						mem[fw] += work / (w.AvgMem * m.secs)
					}
				}
			}
			ratio := func(h, x float64) string {
				if h <= 0 {
					return "-"
				}
				return fmt.Sprintf("%.2f", x/h)
			}
			row("CPU Efficiency", cpu, ratio)
			row("Disk I/O Throughput", disk, ratio)
			row("Network Throughput", net, ratio)
			row("Memory Efficiency", mem, ratio)
			rep.Notes = append(rep.Notes,
				"paper: DataMPI leads every prong; vs Hadoop it is 40% (micro), 54% (small jobs), 36% (apps) faster,",
				"uses CPU ~39-41% more efficiently, has ~49% higher disk throughput and 55-59% higher network throughput")
			return rep, nil
		},
	})
}
