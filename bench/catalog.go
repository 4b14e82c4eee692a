package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// metric describes one number the benchmark reports. Clock says what
// was measured: "host" is the wall clock or heap of the simulator
// itself (noisy, reported as medians), "sim" is the modelled cluster's
// clock (exact for a seed), "count" is an exact count.
type metric struct {
	Name   string
	Unit   string
	Clock  string
	Better string
	// Bound (end-to-end only) is the share of the baseline median by
	// which the metric may worsen before a change is a regression; Floor
	// is the absolute change below which -compare never calls it one.
	Bound float64
	Floor float64
	// Layer is the module measured; Source is how: "probe" (isolated
	// timed calls), "run" (every repetition, free of overhead) or
	// "traced" (the traced pass only).
	Layer  string
	Source string
	// Moves names the end-to-end metric and workload this layer metric is
	// expected to move, written down before any optimisation; Not names
	// the workload where the prediction is no change.
	Moves string
	Not   string
}

const runSeconds = 18

var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Clock: "host", Better: "lower", Bound: 0.25, Floor: 0.15},
	{Name: "setup_s", Unit: "s", Clock: "host", Better: "lower", Bound: 0.25, Floor: 0.02},
	{Name: "alloc_mb", Unit: "MB", Clock: "host", Better: "lower", Bound: 0.06, Floor: 1},
}

const (
	shuffleWall = "wall_s, alloc_mb on fig3-shuffle, fig3-staged"
	fixedCost   = "alloc_mb, wall_s on tenants-mix"
	setupFig    = "setup_s on fig3-scan, fig3-shuffle, fig6-apps"
	mapWall     = "wall_s on fig3-scan (regex), fig6-apps (vector parse, distance)"
	figErr      = "paper_err_pct on the four paper-backed workloads"
	kernelWall  = "wall_s on kernel-stub; secondarily tenants-mix"
	exact       = "none: must stay identical under a host-only change"
)

func probeMetric(layer, name, unit, better, moves, not string) metric {
	return metric{Name: name, Unit: unit, Clock: "host", Better: better, Layer: layer, Source: "probe", Moves: moves, Not: not}
}

func runMetric(layer, name, unit, clock, better, moves, not string) metric {
	return metric{Name: name, Unit: unit, Clock: clock, Better: better, Layer: layer, Source: "run", Moves: moves, Not: not}
}

func tracedMetric(layer, name, unit, clock, better, moves, not string) metric {
	return metric{Name: name, Unit: unit, Clock: clock, Better: better, Layer: layer, Source: "traced", Moves: moves, Not: not}
}

var perLayer = []metric{
	probeMetric("kv", "kv.sort_ns_per_rec", "ns/rec", "lower", shuffleWall, "kernel-stub (no kv call), fig3-scan"),
	probeMetric("kv", "kv.collect_ns_per_rec", "ns/rec", "lower", shuffleWall, "kernel-stub, fig3-scan"),
	probeMetric("kv", "kv.merge_ns_per_rec", "ns/rec", "lower", shuffleWall, "kernel-stub, fig3-scan"),
	probeMetric("kv", "kv.combine_ns_per_rec", "ns/rec", "lower", shuffleWall, "kernel-stub, fig3-scan"),
	probeMetric("kv", "kv.codec_mb_per_s", "MB/s", "higher", shuffleWall, "kernel-stub, fig3-scan"),
	probeMetric("kv", "kv.collect_allocs_per_rec", "allocs/rec", "lower", shuffleWall, "kernel-stub, fig3-scan"),
	probeMetric("kv", "kv.collect_fixed_kb", "KB", "lower", fixedCost, "fig3-shuffle"),
	tracedMetric("kv", "kv.emit_s", "s", "host", "lower", "wall_s on fig3-shuffle", "fig3-scan"),
	tracedMetric("kv", "kv.emit_records", "count", "count", "lower", "wall_s on fig3-shuffle", "fig3-scan"),

	runMetric("bdb", "bdb.gen_s", "s", "host", "lower", "setup_s on all fig workloads", "wall_s anywhere"),
	probeMetric("bdb", "bdb.textgen_mb_per_s", "MB/s", "higher", setupFig, "kernel-stub"),
	probeMetric("bdb", "bdb.vecgen_mb_per_s", "MB/s", "higher", setupFig, "kernel-stub"),
	probeMetric("bdb", "bdb.docgen_mb_per_s", "MB/s", "higher", setupFig, "kernel-stub"),
	probeMetric("bdb", "bdb.seqfile_mb_per_s", "MB/s", "higher", setupFig, "kernel-stub"),
	tracedMetric("bdb", "bdb.map_self_s", "s", "host", "lower", mapWall, "kernel-stub"),
	tracedMetric("bdb", "bdb.combine_self_s", "s", "host", "lower", mapWall, "kernel-stub"),
	tracedMetric("bdb", "bdb.reduce_self_s", "s", "host", "lower", mapWall, "kernel-stub"),
	tracedMetric("bdb", "bdb.map_records", "count", "count", "lower", mapWall, "kernel-stub"),
	probeMetric("bdb", "bdb.wc_map_ns_per_rec", "ns/rec", "lower", "wall_s on fig3-shuffle, fig3-staged", "kernel-stub"),
	probeMetric("bdb", "bdb.grep_map_ns_per_rec", "ns/rec", "lower", "wall_s on fig3-scan", "kernel-stub"),
	probeMetric("bdb", "bdb.vec_parse_ns_per_rec", "ns/rec", "lower", "wall_s on fig6-apps", "kernel-stub"),

	probeMetric("job", "job.decode_text_mb_per_s", "MB/s", "higher", "wall_s on fig3-scan", "kernel-stub"),
	probeMetric("job", "job.decode_seqgzip_mb_per_s", "MB/s", "higher", "wall_s on fig3-shuffle (Normal Sort)", "kernel-stub"),

	runMetric("mr", "mr.run_s", "s", "host", "lower", "wall_s on every fig workload", ""),
	runMetric("rdd", "rdd.run_s", "s", "host", "lower", "wall_s on every fig workload", ""),
	runMetric("core", "core.run_s", "s", "host", "lower", "wall_s on every fig workload", ""),
	runMetric("mr", "mr.sim_s", "s", "sim", "lower", figErr, exact),
	runMetric("rdd", "rdd.sim_s", "s", "sim", "lower", figErr, exact),
	runMetric("core", "core.sim_s", "s", "sim", "lower", figErr, exact),
	tracedMetric("mr", "mr.tasks", "count", "count", "lower", figErr, exact),
	tracedMetric("rdd", "rdd.tasks", "count", "count", "lower", figErr, exact),
	tracedMetric("core", "core.tasks", "count", "count", "lower", figErr, exact),
	runMetric("mr", "mr.shuffle_gb_nominal", "GB", "sim", "lower", figErr, exact),
	runMetric("mr", "mr.data_local_frac", "frac", "sim", "higher", figErr, exact),
	runMetric("core", "core.a_spill_gb_nominal", "GB", "sim", "lower", figErr, exact),

	probeMetric("sim", "sim.handoff_ns", "ns", "lower", kernelWall, "fig3-shuffle (<5%)"),
	probeMetric("sim", "sim.timer_ns", "ns", "lower", kernelWall, "fig3-shuffle (<5%)"),
	probeMetric("sim", "sim.ps_flow_ns", "ns", "lower", kernelWall, "fig3-shuffle (<5%)"),
	probeMetric("sim", "sim.fabric_flow_ns", "ns", "lower", kernelWall, "fig3-shuffle (<5%)"),
	probeMetric("sim", "sim.zero_flow_ns", "ns", "lower", kernelWall, "fig3-shuffle (<5%)"),
	runMetric("sim", "sim.makespan_s", "s", "sim", "lower", "context for kernel-stub, tenants-mix", exact),
	runMetric("sim", "sim.wall_ms_per_sim_s", "ms/sim_s", "host", "lower", "context for kernel-stub, tenants-mix", ""),

	runMetric("sched", "sched.us_per_job", "us/job", "host", "lower", "wall_s on kernel-stub, tenants-mix", "fig workloads"),
	runMetric("sched", "sched.us_per_task", "us/task", "host", "lower", "wall_s on kernel-stub, tenants-mix", "fig workloads"),
	runMetric("sched", "sched.tasks", "count", "count", "lower", exact, ""),
	runMetric("sched", "sched.backups", "count", "count", "lower", exact, ""),
	runMetric("sched", "sched.backup_win_frac", "frac", "sim", "higher", exact, ""),
	runMetric("sched", "sched.kills", "count", "count", "lower", exact, ""),
	runMetric("sched", "sched.preemptions", "count", "count", "lower", exact, ""),
	runMetric("sched", "sched.retries", "count", "count", "lower", exact, ""),
	runMetric("sched", "sched.slot_util_frac", "frac", "sim", "higher", exact, ""),
	runMetric("sched", "sched.resp_p50_sim_s", "s", "sim", "lower", exact, ""),
	runMetric("sched", "sched.resp_p95_sim_s", "s", "sim", "lower", exact, ""),
	probeMetric("sched", "sched.acquire_ns", "ns", "lower", "wall_s on kernel-stub", ""),
	probeMetric("sched", "sched.place_us_per_kblock", "us/kblock", "lower", "wall_s on kernel-stub", ""),

	probeMetric("dfs", "dfs.write_mb_per_s", "MB/s", "higher", "setup_s on fig workloads; wall_s on fig3-scan", "kernel-stub"),
	probeMetric("dfs", "dfs.read_blocks_per_s", "blocks/s", "higher", "setup_s on fig workloads; wall_s on fig3-scan", "kernel-stub"),
	runMetric("dfs", "dfs.blocks", "count", "count", "lower", "setup_s on fig workloads", "kernel-stub"),

	runMetric("cluster", "cluster.rig_build_ms", "ms", "host", "lower", "setup_s (one rig per point)", ""),

	runMetric("transport", "transport.transfers", "count", "count", "lower", "paper_err_pct on fig3-staged", "exactly 0 on every other workload"),
	runMetric("transport", "transport.serialized_gb", "GB", "sim", "lower", "paper_err_pct on fig3-staged", "exactly 0 on every other workload"),
	runMetric("transport", "transport.zero_copy_frac", "frac", "sim", "higher", "paper_err_pct on fig3-staged", "exactly 0 on every other workload"),
	runMetric("transport", "transport.overlap_frac", "frac", "sim", "higher", "paper_err_pct on fig3-staged", "exactly 0 on every other workload"),
	probeMetric("transport", "transport.send_ns", "ns", "lower", "wall_s on fig3-staged", "all others"),

	tracedMetric("trace", "trace.spans", "count", "count", "lower", "trace.overhead_frac", ""),
	tracedMetric("trace", "trace.export_mb", "MB", "count", "lower", "none end to end (tracing is off there)", ""),
	tracedMetric("trace", "trace.export_s", "s", "host", "lower", "none end to end (tracing is off there)", ""),
	tracedMetric("trace", "trace.critpath_s", "s", "host", "lower", "none end to end (tracing is off there)", ""),
	tracedMetric("trace", "trace.overhead_frac", "frac", "host", "lower", "none end to end (tracing is off there)", ""),
	tracedMetric("trace", "trace.crit_net_frac_mr", "frac", "sim", "lower", exact, ""),
	tracedMetric("trace", "trace.crit_net_frac_rdd", "frac", "sim", "lower", exact, ""),
	tracedMetric("trace", "trace.crit_net_frac_core", "frac", "sim", "lower", exact, ""),
	probeMetric("trace", "trace.span_ns", "ns", "lower", "trace.overhead_frac", ""),

	probeMetric("metrics", "metrics.sketch_add_ns", "ns", "lower", "wall_s on tenants-mix (streaming report)", ""),

	// Fidelity to the paper. Exact for a seed but seed-sensitive (5-8 points
	// across seeds on fig3-shuffle), so it cannot carry a relative bound
	// over seeds; -compare gates it at +0.5 points on equal seeds.
	{Name: "paper_err_pct", Unit: "points", Clock: "sim", Better: "lower", Floor: 0.5, Layer: "harness", Source: "run",
		Moves: "itself: mean scorecard error of the workload's paper references", Not: "0 on tenants-mix, kernel-stub (no reference)"},

	runMetric("runtime", "runtime.gc_cpu_frac", "frac", "host", "lower", "wall_s on fig3-shuffle, fig6-apps, tenants-mix", "kernel-stub (pooled kernel)"),
	runMetric("runtime", "runtime.gc_cycles", "count", "host", "lower", "wall_s on fig3-shuffle, fig6-apps, tenants-mix", "kernel-stub"),
	runMetric("runtime", "runtime.mallocs_k", "count", "host", "lower", "alloc_mb on fig3-shuffle, fig6-apps, tenants-mix", "kernel-stub"),
	runMetric("runtime", "runtime.heap_live_end_mb", "MB", "host", "lower", "alloc_mb", ""),
	runMetric("runtime", "runtime.peak_rss_mb", "MB", "host", "lower", "none (>10% run-to-run spread; context only)", ""),
	runMetric("runtime", "runtime.cpu_s", "s", "host", "lower", "wall_s", ""),
	runMetric("runtime", "runtime.setup_alloc_mb", "MB", "host", "lower", "setup_s", ""),
}

func metricsFrom(source string) []metric {
	var out []metric
	for _, m := range perLayer {
		if m.Source == source {
			out = append(out, m)
		}
	}
	return out
}

// manifest renders BENCHMARK.json from the catalogue, so the names the
// driver reads and the names the program prints cannot drift apart.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the catalogue is static data
	}
	return append(out, '\n')
}

// listing is what -list prints: every name with its unit and clock.
func listing() string {
	var b strings.Builder
	b.WriteString("workloads\n")
	for _, w := range workloads {
		fmt.Fprintf(&b, "  %-14s %s\n", w.Name, w.Why)
	}
	b.WriteString("end-to-end metrics (name, unit, clock, better, bound)\n")
	for _, m := range endToEnd {
		fmt.Fprintf(&b, "  %-28s %-10s %-5s %-6s +%.0f%%\n", m.Name, m.Unit, m.Clock, m.Better, m.Bound*100)
	}
	b.WriteString("per-layer metrics (name, unit, clock, better, source | should move | predicted no change)\n")
	for _, m := range perLayer {
		fmt.Fprintf(&b, "  %-28s %-10s %-5s %-6s %-6s | %s | %s\n", m.Name, m.Unit, m.Clock, m.Better, m.Source, m.Moves, m.Not)
	}
	return b.String()
}
