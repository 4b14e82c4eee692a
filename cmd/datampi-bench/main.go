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
// Experiment ids follow the paper's artifacts: table1 table2 fig2a fig2b
// fig3a fig3b fig3c fig3d fig4sort fig4wc fig5 fig6a fig6b fig7.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"github.com/datampi/datampi-go/internal/harness"
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
	opt := harness.Options{Scale: *scale, Quick: *quick, Seed: *seed, TracePath: *tracePath}
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
		if plots && len(rep.Series) > 0 {
			keys := make([]string, 0, len(rep.Series))
			for k := range rep.Series {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				metric := k[indexByteAfterSlash(k):]
				plot, err := rep.Series[k].RenderASCII(metric, 72, 10)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", k, err)
					return 1
				}
				fmt.Printf("--- %s ---\n%s", k, plot)
			}
		}
		fmt.Printf("(%s completed in %.1fs wall time)\n\n", exp.ID, time.Since(start).Seconds())
	}
	return 0
}

// writeProfiles dumps a report's resource time series to dir as
// <id>-<label>.csv and .json. Series are keyed "<framework>/<metric>"
// but each framework's entries share one underlying series (all metrics
// are columns of it), so only the part before the slash names a file.
func writeProfiles(dir string, rep *harness.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	written := map[string]bool{}
	keys := make([]string, 0, len(rep.Series))
	for k := range rep.Series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		label := k
		if i := indexByteAfterSlash(k); i > 0 {
			label = k[:i-1]
		}
		if written[label] {
			continue
		}
		written[label] = true
		base := filepath.Join(dir, rep.ID+"-"+label)
		for _, out := range []struct {
			ext   string
			write func(io.Writer) error
		}{
			{".csv", rep.Series[k].WriteCSV},
			{".json", rep.Series[k].WriteJSON},
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

func indexByteAfterSlash(s string) int {
	for i := range s {
		if s[i] == '/' {
			return i + 1
		}
	}
	return 0
}
