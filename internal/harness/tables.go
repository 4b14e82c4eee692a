package harness

import "github.com/datampi/datampi-go/internal/cluster"

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Table 1: representative workloads",
		Run: func(opt Options) (*Report, error) {
			return &Report{
				ID: "table1", Title: "Representative Workloads",
				Columns: []string{"No.", "Workload", "Type"},
				Rows: [][]string{
					{"1", "Sort", "Micro-benchmark"},
					{"2", "WordCount", "Micro-benchmark"},
					{"3", "Grep", "Micro-benchmark"},
					{"4", "Naive Bayes", "Social Network"},
					{"5", "K-means", "E-commerce"},
				},
			}, nil
		},
	})
	register(Experiment{
		ID:    "table2",
		Title: "Table 2: hardware configuration of the simulated testbed",
		Run: func(opt Options) (*Report, error) {
			rep := &Report{ID: "table2", Title: "Details of Hardware Configuration",
				Columns: []string{"Item", "Value"}}
			for _, row := range cluster.DefaultHardware().TableRows() {
				rep.Rows = append(rep.Rows, []string{row[0], row[1]})
			}
			rep.Notes = append(rep.Notes,
				"8 nodes, 1 Gigabit Ethernet switch; disk/NIC bandwidths inferred from the paper's Figure 4 (see cluster.DefaultHardware)")
			return rep, nil
		},
	})
}
