package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// repResult is what one repetition of one workload reports: the child
// process prints it as JSON, the parent aggregates.
type repResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Layer     map[string]float64 `json:"per_layer"`
	Ops       int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Notes     []string           `json:"notes,omitempty"`
	SimDigest string             `json:"sim_digest"`
	OutDigest string             `json:"out_digest"`
	Paper     []refScore         `json:"paper,omitempty"`
	Spans     []hostSpan         `json:"spans,omitempty"`
}

func gcCPUSeconds() (gc, total float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

const mb = 1 << 20

// Set-up is repeated until it has taken setupFloor seconds in total, at
// most maxSetups times: the measured region gets seconds of measurement
// per repetition, and a set-up of a few hundred milliseconds timed once
// would be the noisier number by far.
const (
	setupFloor = 1.0
	maxSetups  = 9
)

// runRep runs one repetition in this process: set up every point, collect
// garbage, run the measured region, then verify outputs (untimed). The
// traced pass also attaches span recorders, times the job functions,
// checks every output against the sequential oracle and keeps the host
// spans. scale 0 uses each experiment's default data-scaling divisor.
func runRep(w *workload, seed int64, scale float64, isTraced bool) repResult {
	out := repResult{Workload: w.Name, Seed: seed, Traced: isTraced,
		EndToEnd: map[string]float64{}, Layer: map[string]float64{}}
	// A short set-up is repeated and its median reported; only the last
	// one is run. Each attempt gets a fresh
	// recorder so the per-layer totals describe one set-up.
	var rec *recorder
	var r *rep
	var ms0, ms1, ms2 runtime.MemStats
	var setups []float64
	for spent := 0.0; len(setups) < maxSetups && spent < setupFloor; {
		rec = newRecorder(isTraced)
		r = &rep{rec: rec, seed: seed, scale: scale, traced: isTraced}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		rec.call("bench", "setup", w.Name, func() { w.setup(r) })
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}
	setupS := median(setups)
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	gc0, cpu0 := gcCPUSeconds()

	hostBy := map[string]float64{}
	t1 := time.Now()
	rec.call("bench", "measured", w.Name, func() {
		for _, pt := range r.points {
			start := time.Now()
			pt.run()
			hostBy[pt.layer] += time.Since(start).Seconds()
		}
	})
	wallS := time.Since(t1).Seconds()
	gc1, cpu1 := gcCPUSeconds()
	runtime.ReadMemStats(&ms2)
	// What the workload retains: every rig is still reachable here.
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	out.EndToEnd["wall_s"] = wallS
	out.EndToEnd["setup_s"] = setupS
	out.EndToEnd["alloc_mb"] = float64(ms2.TotalAlloc-ms1.TotalAlloc) / mb

	rec.call("bench", "verify", w.Name, func() { r.verify(&out) })
	if isTraced {
		r.analyzeTraces(&out)
	}
	out.Notes = append(out.Notes, r.notes...)
	out.SimDigest = r.simDigest()
	out.OutDigest = r.outDigestAll()

	if isTraced {
		// Timers around every record perturb the host numbers, so the
		// traced pass reports only what the untraced pass cannot see.
		t := r.timers
		l := out.Layer
		l["kv.emit_s"] = t.emitS
		l["kv.emit_records"] = float64(t.emitRecords)
		l["bdb.map_self_s"] = t.mapS - t.emitS
		l["bdb.combine_self_s"] = t.combineS
		l["bdb.reduce_self_s"] = t.reduceS
		l["bdb.map_records"] = float64(t.mapRecords)
		out.Spans = rec.spans
		return out
	}
	r.scorePaper(&out)
	r.runLayerMetrics(out.Layer, hostBy, wallS)
	l := out.Layer
	l["bdb.gen_s"] = rec.layerSeconds("bdb")
	if n := rec.count["cluster.NewRig"] + rec.count["cluster.NewWith"]; n > 0 {
		l["cluster.rig_build_ms"] = rec.layerSeconds("cluster") / float64(n) * 1000
	}
	if cpu1 > cpu0 {
		l["runtime.gc_cpu_frac"] = (gc1 - gc0) / (cpu1 - cpu0)
	}
	l["runtime.gc_cycles"] = float64(ms2.NumGC - ms1.NumGC)
	l["runtime.mallocs_k"] = float64(ms2.Mallocs-ms1.Mallocs) / 1000
	l["runtime.setup_alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / mb
	l["runtime.heap_live_end_mb"] = float64(live.HeapAlloc) / mb
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		l["runtime.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KB
		l["runtime.cpu_s"] = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return out
}

// verify counts operations and checks outputs: every job must succeed,
// and the same job on the same input must give the same output on every
// engine. The traced pass also checks each output against the sequential
// oracle, computed once per input.
func (r *rep) verify(out *repResult) {
	type group struct {
		first  *outCheck
		oracle func() (outDigest, error)
	}
	groups := map[string]*group{}
	var keys []string
	for _, pt := range r.points {
		out.Ops += len(pt.jobs) + pt.ops
		out.Failed += pt.fails
		for _, j := range pt.jobs {
			if j.res.Err != nil {
				out.Failed++
				out.Notes = append(out.Notes, fmt.Sprintf("%s/%s: %v", pt.id, j.name, j.res.Err))
			}
		}
		for _, oc := range pt.outs {
			r.rec.call("job", "ReadTextOutput", pt.id, func() { oc.digest = oc.got() })
			g := groups[oc.key]
			if g == nil {
				groups[oc.key] = &group{first: oc, oracle: oc.oracle}
				keys = append(keys, oc.key)
			} else if !oc.digest.equal(g.first.digest) {
				out.Failed++
				out.Notes = append(out.Notes, fmt.Sprintf("%s: output differs between engines on %s", pt.id, oc.key))
			}
		}
	}
	if !r.traced {
		return
	}
	for _, key := range keys {
		g := groups[key]
		var want outDigest
		var err error
		r.rec.call("job", "RunSequential", key, func() { want, err = g.oracle() })
		if err != nil {
			out.Failed++
			out.Notes = append(out.Notes, fmt.Sprintf("%s: oracle: %v", key, err))
		} else if !g.first.digest.equal(want) {
			out.Failed++
			out.Notes = append(out.Notes, fmt.Sprintf("%s: output differs from the sequential oracle", key))
		}
	}
}

// countingWriter measures an export without keeping it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// analyzeTraces reads the simulated-time span recorders of the traced
// pass: span and task counts, export cost, and the share of each
// engine's critical paths attributed to communication.
func (r *rep) analyzeTraces(out *repResult) {
	l := out.Layer
	path := map[string]float64{}
	net := map[string]float64{}
	var export countingWriter
	for _, et := range r.traces {
		tr := et.tr
		l["trace.spans"] += float64(tr.Len())
		r.rec.call("trace", "WriteChrome", et.layer, func() {
			if err := tr.WriteChrome(&export); err != nil {
				out.Notes = append(out.Notes, fmt.Sprintf("trace export: %v", err))
			}
		})
		if et.layer == "" {
			continue // several engines share the recorder: no per-engine split
		}
		l[et.layer+".tasks"] += float64(len(tr.FindByCat("task")))
		for _, js := range tr.JobSpans() {
			var segs []traceSeg
			r.rec.call("trace", "CriticalPath", js.Name, func() { segs = tr.CriticalPath(js.ID) })
			for _, s := range segs {
				path[et.layer] += s.Dur()
			}
			net[et.layer] += categorySeconds(segs, "net")
		}
	}
	l["trace.export_mb"] = float64(export.n) / mb
	l["trace.export_s"] = r.rec.total["trace.WriteChrome"]
	l["trace.critpath_s"] = r.rec.total["trace.CriticalPath"]
	for layer, total := range path {
		if total > 0 {
			l["trace.crit_net_frac_"+layer] = net[layer] / total
		}
	}
}

// scorePaper scores the workload's points against the paper references
// they cover. Workloads with no paper reference report 0.
func (r *rep) scorePaper(out *repResult) {
	refs, err := loadPaperRefs()
	if err != nil {
		out.Failed++
		out.Notes = append(out.Notes, err.Error())
		return
	}
	out.Paper = scorePaper(refs, r.points)
	out.Layer["paper_err_pct"] = paperErrPct(out.Paper)
}

// runLayerMetrics fills the per-layer metrics every untraced repetition
// can measure without overhead.
func (r *rep) runLayerMetrics(l map[string]float64, hostBy map[string]float64, wallS float64) {
	counters := map[string]float64{}
	simTotal := 0.0
	for _, pt := range r.points {
		for _, j := range pt.jobs {
			l[pt.layer+".sim_s"] += j.res.Elapsed
			simTotal += j.res.Elapsed
			for k, v := range j.res.Counters {
				counters[pt.layer+"."+k] += float64(v)
			}
		}
	}
	for _, layer := range []string{"mr", "rdd", "core"} {
		l[layer+".run_s"] = hostBy[layer]
	}
	l["mr.shuffle_gb_nominal"] = counters["mr.shuffle_bytes_nominal"] / gbBytes
	if maps := counters["mr.maps"]; maps > 0 {
		l["mr.data_local_frac"] = counters["mr.data_local_maps"] / maps
	}
	l["core.a_spill_gb_nominal"] = counters["core.a_spill_bytes_nominal"] / gbBytes
	l["dfs.blocks"] = float64(r.blocks)

	st := r.sched
	simTotal += st.makespan
	l["sim.makespan_s"] = simTotal
	if simTotal > 0 {
		l["sim.wall_ms_per_sim_s"] = wallS * 1000 / simTotal
	}
	if st.jobs > 0 {
		l["sched.us_per_job"] = hostBy["sched"] * 1e6 / float64(st.jobs)
	}
	if st.tracker.Tasks > 0 {
		l["sched.us_per_task"] = hostBy["sched"] * 1e6 / float64(st.tracker.Tasks)
	}
	l["sched.tasks"] = float64(st.tracker.Tasks)
	l["sched.backups"] = float64(st.tracker.Backups)
	if st.tracker.Backups > 0 {
		l["sched.backup_win_frac"] = float64(st.tracker.BackupWins) / float64(st.tracker.Backups)
	}
	l["sched.kills"] = float64(st.tracker.Kills)
	l["sched.preemptions"] = float64(st.tracker.Preemptions)
	l["sched.retries"] = float64(st.tracker.Retries)
	if st.slots > 0 && st.makespan > 0 {
		l["sched.slot_util_frac"] = st.slotSeconds / (st.slots * st.makespan)
	}
	l["sched.resp_p50_sim_s"] = st.p50
	l["sched.resp_p95_sim_s"] = st.p95

	tp := r.tp
	l["transport.transfers"] = float64(tp.Transfers)
	l["transport.serialized_gb"] = tp.BytesSerialized / gbBytes
	if moved := tp.BytesZeroCopied + tp.BytesCopied; moved > 0 {
		l["transport.zero_copy_frac"] = tp.BytesZeroCopied / moved
	}
	l["transport.overlap_frac"] = tp.OverlapFraction()
}

// stat summarises one end-to-end metric over a workload's repetitions.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) stat {
	if len(xs) == 0 {
		return stat{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stat{Median: median(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
}
