// Command bench is the repository's one benchmark: six workloads, four
// end-to-end metrics, a per-layer ledger and a host-side traced pass.
// See README.md. The driver contract is
//
//	go run -C bench . --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints one JSON object as the last line of standard output.
// Without --workload it runs every workload and both passes, prints
// every metric by name with its unit and clock, and writes the JSON
// result and the host-span trace under -out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// childTimeout turns a hang into a failed operation. The slowest
// repetition takes under 15 s on the 2-core reference box.
const childTimeout = 75 * time.Second

// probesName is the pseudo-workload a child runs for the layer probes.
const probesName = "probes"

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all six)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Int("seconds", runSeconds, "host seconds to measure per workload and pass")
		trace        = flag.Int("trace", -1, "0: end-to-end pass only, 1: per-layer pass only (untraced reference, traced run, probes); default both")
		minReps      = flag.Int("reps", 3, "least repetitions of the end-to-end pass, whatever -seconds says")
		outDir       = flag.String("out", "bench-out", "directory for the JSON result and the host-span trace")
		list         = flag.Bool("list", false, "print every workload and metric name with unit and clock, then exit")
		printMan     = flag.Bool("manifest", false, "print BENCHMARK.json as the catalogue defines it, then exit")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		child        = flag.Bool("child", false, "internal: run one repetition in this process and print its JSON")
	)
	flag.Parse()
	switch {
	case *list:
		fmt.Print(listing())
	case *printMan:
		os.Stdout.Write(manifest())
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *child:
		runChild(*workloadName, *seed, *seconds, *trace == 1)
	default:
		runBenchmark(*workloadName, *seed, *seconds, *trace, *minReps, *outDir)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runChild is one repetition (or the probes) in a process of its own, so
// heap state and peak RSS are per repetition.
func runChild(name string, seed int64, seconds int, isTraced bool) {
	var res repResult
	if name == probesName {
		res = repResult{Workload: probesName, Seed: seed}
		n := len(metricsFrom("probe"))
		res.Layer, res.Notes = runProbes(seed, time.Duration(seconds)*time.Second/time.Duration(3*n))
		res.Failed = len(res.Notes)
	} else {
		w := findWorkload(name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		res = runRep(w, seed, 0, isTraced)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fatal(err)
	}
}

// spawn runs one child repetition with a timeout; deadline, when set, is
// when the whole invocation must be over and caps it.
func spawn(name string, seed int64, seconds int, isTraced bool, deadline time.Time) (repResult, error) {
	var res repResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	stop := time.Now().Add(childTimeout)
	if !deadline.IsZero() && deadline.Before(stop) {
		stop = deadline
	}
	ctx, cancel := context.WithDeadline(context.Background(), stop)
	defer cancel()
	tr := "0"
	if isTraced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", tr)
	procs := 2 // the reference box has two cores; more would only add GC threads
	if n := runtime.NumCPU(); n < procs {
		procs = n
	}
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	outBytes, err := cmd.Output()
	if ctx.Err() != nil {
		return res, fmt.Errorf("%s: timed out", name)
	}
	if err != nil {
		return res, fmt.Errorf("%s: child: %w", name, err)
	}
	if err := json.Unmarshal(outBytes, &res); err != nil {
		return res, fmt.Errorf("%s: child output: %w", name, err)
	}
	return res, nil
}

// workloadResult is one workload's aggregated outcome.
type workloadResult struct {
	Workload  string             `json:"workload"`
	Reps      int                `json:"reps"`
	EndToEnd  map[string]stat    `json:"end_to_end,omitempty"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Correct   bool               `json:"correct"`
	SimDigest string             `json:"sim_digest"`
	Paper     []refScore         `json:"paper,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

// resultFile is the JSON document a run writes and -compare reads.
type resultFile struct {
	Date      string           `json:"date"`
	Machine   string           `json:"machine"`
	NumCPU    int              `json:"nproc"`
	GoVersion string           `json:"go_version"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

// measure runs one workload's passes. The end-to-end pass repeats the
// workload in fresh child processes, tracing off, until the time budget
// is used (at least minReps times) and reports medians. The per-layer
// pass runs one untraced reference, one traced repetition and (unless
// the caller already has them) the probes.
func measure(w *workload, seed int64, seconds int, endToEndPass, layerPass bool, minReps int, probes map[string]float64, deadline time.Time) (workloadResult, []hostSpan) {
	wr := workloadResult{Workload: w.Name, Correct: true}
	fail := func(ops int, format string, a ...any) {
		wr.Correct = false
		wr.Failed += ops
		wr.Notes = append(wr.Notes, fmt.Sprintf(format, a...))
	}
	var reps []repResult
	opsPerRep := 1
	add := func(isTraced bool) (repResult, bool) {
		res, err := spawn(w.Name, seed, seconds, isTraced, deadline)
		if err != nil {
			wr.Attempted += opsPerRep
			fail(opsPerRep, "%v", err)
			return res, false
		}
		opsPerRep = res.Ops
		wr.Attempted += res.Ops
		if res.Failed > 0 {
			fail(res.Failed, "%s", strings.Join(res.Notes, "; "))
		}
		if wr.SimDigest == "" {
			wr.SimDigest = res.SimDigest
		}
		// Same seed, same bytes: every simulated second and counter and
		// every output must repeat, traced or not.
		if len(reps) > 0 && (res.SimDigest != reps[0].SimDigest || res.OutDigest != reps[0].OutDigest) {
			fail(1, "repetition %d is not deterministic: sim %s/%s out %s/%s",
				wr.Reps, res.SimDigest, reps[0].SimDigest, res.OutDigest, reps[0].OutDigest)
		}
		reps = append(reps, res)
		return res, true
	}

	start := time.Now()
	budget := time.Duration(seconds) * time.Second
	var last time.Duration
	want := 1
	if endToEndPass {
		want = minReps
	}
	// Another repetition starts while at least half of it fits the budget.
	for wr.Reps < want || (endToEndPass && time.Since(start)+last/2 <= budget) {
		t := time.Now()
		_, ok := add(false)
		last = time.Since(t)
		wr.Reps++
		if !ok && wr.Reps >= want {
			break
		}
	}
	untraced := len(reps)
	if untraced > 0 {
		wr.Paper = reps[0].Paper
	}
	if endToEndPass {
		wr.EndToEnd = map[string]stat{}
		for _, m := range endToEnd {
			var xs []float64
			for _, r := range reps {
				xs = append(xs, r.EndToEnd[m.Name])
			}
			wr.EndToEnd[m.Name] = summarize(xs)
		}
	}
	if !layerPass {
		return wr, nil
	}

	wr.Layer = map[string]float64{}
	for _, m := range metricsFrom("run") {
		var xs []float64
		for _, r := range reps[:untraced] {
			xs = append(xs, r.Layer[m.Name])
		}
		wr.Layer[m.Name] = median(xs)
	}
	var spans []hostSpan
	if tr, ok := add(true); ok {
		for _, m := range metricsFrom("traced") {
			wr.Layer[m.Name] = tr.Layer[m.Name]
		}
		var walls []float64
		for _, r := range reps[:untraced] {
			walls = append(walls, r.EndToEnd["wall_s"])
		}
		if base := median(walls); base > 0 {
			wr.Layer["trace.overhead_frac"] = tr.EndToEnd["wall_s"]/base - 1
		}
		spans = tr.Spans
	}
	if probes == nil {
		if pr, err := spawn(probesName, seed, seconds, false, deadline); err != nil {
			fail(1, "%v", err)
		} else {
			probes = pr.Layer
			for _, n := range pr.Notes {
				fail(1, "%s", n)
			}
		}
	}
	for _, m := range metricsFrom("probe") {
		wr.Layer[m.Name] = probes[m.Name]
	}
	return wr, spans
}

func runBenchmark(only string, seed int64, seconds, trace, minReps int, outDir string) {
	selected := workloads
	var deadline time.Time
	if only != "" {
		w := findWorkload(only)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q; -list prints the names", only))
		}
		selected = []workload{*w}
		// The driver allows one invocation 180 s.
		deadline = time.Now().Add(160 * time.Second)
	}
	if seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	host, _ := os.Hostname()
	doc := resultFile{Date: time.Now().UTC().Format(time.RFC3339), Machine: runtime.GOOS + "/" + runtime.GOARCH + " " + host,
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Seed: seed, Seconds: seconds}
	var procs []tracedProcess
	var probes map[string]float64
	for i := range selected {
		w := &selected[i]
		fmt.Fprintf(os.Stderr, "bench: %s ...\n", w.Name)
		wr, spans := measure(w, seed, seconds, trace != 1, trace != 0, minReps, probes, deadline)
		if wr.Layer != nil && probes == nil {
			probes = map[string]float64{}
			for _, m := range metricsFrom("probe") {
				probes[m.Name] = wr.Layer[m.Name]
			}
		}
		doc.Workloads = append(doc.Workloads, wr)
		if spans != nil {
			procs = append(procs, tracedProcess{w.Name, spans})
		}
	}
	printResults(os.Stdout, doc)
	if err := writeOutputs(outDir, doc, procs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	if only != "" {
		// The driver's contract: one JSON object as the last line.
		fmt.Println(driverLine(doc.Workloads[0], trace == 1))
	}
}

func writeOutputs(dir string, doc resultFile, procs []tracedProcess) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := "result.json"
	if len(doc.Workloads) == 1 {
		name = doc.Workloads[0].Workload + ".result.json"
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(procs) == 0 {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, strings.TrimSuffix(name, "result.json")+"hostspans.json"))
	if err != nil {
		return err
	}
	if err := writeHostTrace(f, procs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// driverLine renders the object the driver reads: with --trace 0 every
// end-to-end metric, with --trace 1 every per-layer metric.
func driverLine(wr workloadResult, layers bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	attempted := wr.Attempted
	if attempted < 1 {
		attempted = 1
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, attempted, wr.Failed, map[string]value{}}
	if layers {
		for _, m := range perLayer {
			out.Metrics[m.Name] = value{wr.Layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			out.Metrics[m.Name] = value{wr.EndToEnd[m.Name].Median, m.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	return string(b)
}

// printResults prints every metric by name with its unit and clock.
func printResults(w *os.File, doc resultFile) {
	fmt.Fprintf(w, "bench: seed %d, %d s per pass, %s, nproc %d, %s, %s\n",
		doc.Seed, doc.Seconds, doc.Machine, doc.NumCPU, doc.GoVersion, doc.Date)
	for _, wr := range doc.Workloads {
		fmt.Fprintf(w, "\n== %s: %d repetitions, %d ops attempted, %d failed, correct=%v, sim_digest %s\n",
			wr.Workload, wr.Reps, wr.Attempted, wr.Failed, wr.Correct, wr.SimDigest)
		for _, n := range wr.Notes {
			fmt.Fprintf(w, "   note: %s\n", n)
		}
		if wr.EndToEnd != nil {
			fmt.Fprintf(w, "   %-16s %-7s %-5s %12s %12s %12s %3s\n", "end-to-end", "unit", "clock", "median", "min", "max", "n")
			for _, m := range endToEnd {
				s := wr.EndToEnd[m.Name]
				fmt.Fprintf(w, "   %-16s %-7s %-5s %12.4f %12.4f %12.4f %3d\n", m.Name, m.Unit, m.Clock, s.Median, s.Min, s.Max, s.N)
			}
		}
		for _, sc := range wr.Paper {
			fmt.Fprintf(w, "   paper %-34s repro %8.2f  err %6.2f\n", sc.ID, sc.Repro, sc.Err)
		}
	}
	layered := false
	for _, wr := range doc.Workloads {
		layered = layered || wr.Layer != nil
	}
	if !layered {
		return
	}
	fmt.Fprintf(w, "\n%-28s %-10s %-5s %-6s", "per-layer", "unit", "clock", "source")
	for _, wr := range doc.Workloads {
		if wr.Layer != nil {
			fmt.Fprintf(w, " %13s", wr.Workload)
		}
	}
	fmt.Fprintln(w)
	for _, m := range perLayer {
		fmt.Fprintf(w, "%-28s %-10s %-5s %-6s", m.Name, m.Unit, m.Clock, m.Source)
		for _, wr := range doc.Workloads {
			if wr.Layer != nil {
				fmt.Fprintf(w, " %13.4f", wr.Layer[m.Name])
			}
		}
		fmt.Fprintln(w)
	}
}
