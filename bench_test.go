// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding harness experiment
// once per iteration (the harness itself repeats/aggregates where the
// paper does) and reports the headline simulated seconds as metrics.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// The benchmarks use Quick sweeps to keep wall time low; the
// datampi-bench CLI runs the full sweeps.
package datampi_test

import (
	"strconv"
	"testing"

	"github.com/datampi/datampi-go/internal/harness"
)

// runExperiment executes a harness experiment b.N times and reports the
// first and last numeric cell of the final row as metrics, giving each
// figure a stable headline number in benchmark output.
func runExperiment(b *testing.B, id string, quick bool) {
	b.Helper()
	exp, ok := harness.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		rep, err := exp.Run(harness.Options{Quick: quick, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
		last := rep.Rows[len(rep.Rows)-1]
		for ci := len(last) - 1; ci >= 1; ci-- {
			if v, err := strconv.ParseFloat(trimPct(last[ci]), 64); err == nil {
				b.ReportMetric(v, "lastcell")
				break
			}
		}
	}
}

func trimPct(s string) string {
	if len(s) > 0 && s[len(s)-1] == '%' {
		return s[:len(s)-1]
	}
	return s
}

func BenchmarkTable1Workloads(b *testing.B)      { runExperiment(b, "table1", true) }
func BenchmarkTable2Hardware(b *testing.B)       { runExperiment(b, "table2", true) }
func BenchmarkFig2aBlockSizeTuning(b *testing.B) { runExperiment(b, "fig2a", true) }
func BenchmarkFig2bTaskTuning(b *testing.B)      { runExperiment(b, "fig2b", true) }
func BenchmarkFig3aNormalSort(b *testing.B)      { runExperiment(b, "fig3a", true) }
func BenchmarkFig3bTextSort(b *testing.B)        { runExperiment(b, "fig3b", true) }
func BenchmarkFig3cWordCount(b *testing.B)       { runExperiment(b, "fig3c", true) }
func BenchmarkFig3dGrep(b *testing.B)            { runExperiment(b, "fig3d", true) }
func BenchmarkFig4SortProfile(b *testing.B)      { runExperiment(b, "fig4sort", true) }
func BenchmarkFig4WordCountProfile(b *testing.B) { runExperiment(b, "fig4wc", true) }
func BenchmarkFig5SmallJobs(b *testing.B)        { runExperiment(b, "fig5", true) }
func BenchmarkFig6aKMeans(b *testing.B)          { runExperiment(b, "fig6a", true) }
func BenchmarkFig6bNaiveBayes(b *testing.B)      { runExperiment(b, "fig6b", true) }
func BenchmarkFig7Summary(b *testing.B)          { runExperiment(b, "fig7", true) }

// KernelScaleBenchNodes/Tasks is the CI-sized kernelscale configuration:
// the upper point of the experiment's quick sweep. The alloc-regression
// guard in alloc_guard_test.go measures the same configuration, so the
// recorded bytes/allocs in BENCH_kernel.json are directly comparable.
const (
	kernelScaleBenchNodes = 2000
	kernelScaleBenchTasks = 20000
	kernelScaleBenchSlots = 2
)

// BenchmarkKernelScale benchmarks the event-driven pooled kernel at
// 2k nodes / 20k tasks (the 10k-node / 100k-task run is the experiment's
// full sweep: `datampi-bench run kernelscale`). With -benchmem, B/op and
// allocs/op are the pooling regression signal — bytes per task must stay
// flat as scale grows.
func BenchmarkKernelScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.KernelScale(kernelScaleBenchNodes, kernelScaleBenchTasks, kernelScaleBenchSlots, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BytesPerTask(), "bytes/task")
		b.ReportMetric(res.SimTime, "simsec")
	}
}

// queueChurnBenchSmall/Large are the scheduler-churn configurations the
// O(active) flatness claim is pinned at: bytes and allocs per job must
// not grow from 500 to 2,000 submitted jobs. The alloc-regression guard
// in sched_guard_test.go measures the same configurations, so the
// recorded numbers in BENCH_sched.json are directly comparable.
const (
	queueChurnBenchSmall = 500
	queueChurnBenchLarge = 2000
)

// BenchmarkQueueChurn benchmarks the scheduling layer's job churn: 2,000
// jobs from three weighted tenants through a Fair queue in discard mode
// on the stub churn engine. The reported bytes/job and the growth ratio
// against the 500-job run are the O(active) regression signal — per-job
// cost must stay flat as the submitted count quadruples.
func BenchmarkQueueChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small, err := harness.QueueChurn(queueChurnBenchSmall, 1)
		if err != nil {
			b.Fatal(err)
		}
		large, err := harness.QueueChurn(queueChurnBenchLarge, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(large.BytesPerJob(), "bytes/job")
		b.ReportMetric(large.AllocsPerJob(), "allocs/job")
		b.ReportMetric(large.BytesPerJob()/small.BytesPerJob(), "growthx")
	}
}
