// Command datampi-bench regenerates the tables and figures of
// "Performance Benefits of DataMPI: A Case Study with BigDataBench"
// on the simulated 8-node testbed.
//
// Usage:
//
//	datampi-bench list
//	datampi-bench run <experiment-id>... [-scale N] [-quick] [-csv] [-plots]
//	datampi-bench run all
//
// Twenty experiments. The paper's fourteen artifacts: table1 table2 fig2a
// fig2b fig3a fig3b fig3c fig3d fig4sort fig4wc fig5 fig6a fig6b fig7
// (fig7 is a projection of the others: listed after them in one `run`,
// it measures nothing new). Beyond the paper: faultsweep tenants
// datacenter tracecheck recordsweep straggler.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"github.com/datampi/datampi-go/internal/harness"
	"github.com/datampi/datampi-go/internal/metrics"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		for _, e := range harness.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
	case "run":
		runCmd(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: datampi-bench list | run <id>...|all [-scale N] [-quick] [-csv] [-plots] [-seed N] [-workers N] [-trace F] [-profile-out DIR] [-cpuprofile F] [-memprofile F]")
}

func runCmd(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	scale := fs.Float64("scale", 0, "data scale divisor (nominal bytes per simulated byte); 0 = per-experiment default")
	quick := fs.Bool("quick", false, "trim sweeps for a fast run")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	plots := fs.Bool("plots", false, "render ASCII time-series plots for the fig4 experiments")
	seed := fs.Int64("seed", 0, "data generation seed (0 = default)")
	workers := fs.Int("workers", 0, "max concurrent sims per sweep (0 = GOMAXPROCS); results are identical at any setting")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the experiment runs to this file")
	memprofile := fs.String("memprofile", "", "write a pprof allocation profile (after the runs) to this file")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of a traced experiment (e.g. tracecheck) to this file; load it in Perfetto")
	profileOut := fs.String("profile-out", "", "directory to write each profiled experiment's per-framework resource series as CSV and JSON")

	var ids []string
	for len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		ids = append(ids, args[0])
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if len(ids) == 0 {
		usage()
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range harness.Experiments() {
			ids = append(ids, e.ID)
		}
		sort.Strings(ids)
	}

	exps := make([]harness.Experiment, 0, len(ids))
	for _, id := range ids {
		exp, ok := harness.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try: datampi-bench list)\n", id)
			os.Exit(1)
		}
		exps = append(exps, exp)
	}

	// The experiments run inside a closure so the pprof teardown defers
	// always flush — even when an experiment fails — before os.Exit.
	harness.SetWorkers(*workers)
	// One memo per invocation: a point two of the listed figures share
	// (every cell of fig7, when its sources are listed too) runs once.
	opt := harness.Options{Scale: *scale, Quick: *quick, Seed: *seed, TracePath: *tracePath}.WithMemo()
	code := func() int {
		if *cpuprofile != "" {
			f, err := os.Create(*cpuprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
				return 1
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
				return 1
			}
			defer pprof.StopCPUProfile()
		}
		if *memprofile != "" {
			defer func() {
				f, err := os.Create(*memprofile)
				if err != nil {
					fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
					return
				}
				defer f.Close()
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				}
			}()
		}
		return runExperiments(exps, opt, *csv, *plots, *profileOut)
	}()
	if code != 0 {
		os.Exit(code)
	}
}

func runExperiments(exps []harness.Experiment, opt harness.Options, csv, plots bool, profileOut string) int {
	for _, exp := range exps {
		start := time.Now()
		rep, err := exp.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", exp.ID, err)
			return 1
		}
		if profileOut != "" && len(rep.Series) > 0 {
			if err := writeProfiles(profileOut, rep); err != nil {
				fmt.Fprintf(os.Stderr, "%s: profile-out: %v\n", exp.ID, err)
				return 1
			}
		}
		if csv {
			fmt.Printf("# %s — %s\n%s\n", rep.ID, rep.Title, rep.CSV())
		} else {
			fmt.Println(rep.Render())
		}
		if plots {
			for _, fw := range slices.Sorted(maps.Keys(rep.Series)) {
				for _, metric := range slices.Sorted(slices.Values(metrics.MetricKeys)) {
					plot, err := rep.Series[fw].RenderASCII(metric, 72, 10)
					if err != nil {
						fmt.Fprintf(os.Stderr, "%s/%s: %v\n", fw, metric, err)
						return 1
					}
					fmt.Printf("--- %s/%s ---\n%s", fw, metric, plot)
				}
			}
		}
		fmt.Printf("(%s completed in %.1fs wall time)\n\n", exp.ID, time.Since(start).Seconds())
	}
	return 0
}

// writeProfiles dumps a report's resource time series to dir as
// <id>-<framework>.csv and .json; every metric is a column.
func writeProfiles(dir string, rep *harness.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, fw := range slices.Sorted(maps.Keys(rep.Series)) {
		base := filepath.Join(dir, rep.ID+"-"+fw)
		for _, out := range []struct {
			ext   string
			write func(io.Writer) error
		}{
			{".csv", rep.Series[fw].WriteCSV},
			{".json", rep.Series[fw].WriteJSON},
		} {
			f, err := os.Create(base + out.ext)
			if err != nil {
				return err
			}
			if err := out.write(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
