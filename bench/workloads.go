package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// workload is one set of inputs the benchmark runs. setup builds every
// point (rig, generated input, job description); the measured region
// then runs the points back to back, one client, closed loop.
type workload struct {
	Name  string
	Why   string
	setup func(r *rep)
}

// workloads is the catalogue; BENCHMARK.json and README.md mirror it.
var workloads = []workload{
	{Name: "fig3-shuffle", setup: setupShuffle,
		Why: "Fig 3(a,b,c) sort and count jobs: every byte goes through kv collect/sort/spill/merge and the seq+gzip codec, so a data-plane change must move it"},
	{Name: "fig3-scan", setup: setupScan,
		Why: "Fig 3(d) Grep at three selectivities: read, decode and regex dominate and sort is tiny, so a kv sort win must not move it"},
	{Name: "fig6-apps", setup: setupApps,
		Why: "Fig 6 K-means and Naive Bayes: multi-job pipelines, iteration mode, rdd cache reuse, sparse-vector parsing and float math in bdb"},
	{Name: "fig3-staged", setup: setupStaged,
		Why: "the Text Sort and WordCount points as one-tenant scenarios on the staged transport: the only workload where transport does work"},
	{Name: "tenants-mix", setup: setupTenants,
		Why: "2,150 tiny jobs from three engine tenants and closed-loop users: per-job and per-task fixed costs instead of per-record costs"},
	{Name: "kernel-stub", setup: setupStub,
		Why: "a stub engine pushing jobs of pure disk/cpu/net/sleep tasks through the queue: zero data-plane bytes, all host time is sim and sched"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Default data-scaling divisors, the ones the harness figures use.
const (
	microScale = 8192
	appScale   = 16384
)

// rep is the state of one repetition of one workload.
type rep struct {
	rec    *recorder
	seed   int64
	scale  float64 // 0 = each experiment's default divisor
	traced bool

	points []*point
	timers specTimers    // traced pass: host time inside job functions
	traces []engineTrace // traced pass: simulated-time span recorders
	blocks int           // DFS blocks of generated input
	tp     transportStats
	sched  schedStats
	scens  []*scenarioReport
	notes  []string // anything that went wrong outside a job result
}

// engineTrace is one span recorder and the engine layer it observed
// ("" when several engines share it).
type engineTrace struct {
	layer string
	tr    *tracer
}

// schedStats is what the scheduling layer reports for a queued run.
type schedStats struct {
	jobs, failed int
	tracker      trackerStats
	slotSeconds  float64
	slots        float64 // slots per node x nodes
	makespan     float64
	p50, p95     float64
}

// point is one rig with the jobs that run on it back to back.
type point struct {
	id    string
	exp   string  // paper experiment id ("" = none)
	layer string  // engine layer that runs it: mr, rdd, core or sched
	fw    string  // Hadoop, Spark, DataMPI
	gb    float64 // nominal input size
	run   func()
	figS  float64 // the simulated seconds the paper's figure reports for the point
	jobs  []jobOutcome
	outs  []*outCheck
	ops   int // jobs not visible as jobOutcome (streamed scenarios, the stub)
	fails int
}

// jobOutcome is one engine job's result.
type jobOutcome struct {
	name string
	res  result
}

// outCheck is one output the benchmark verifies: got reads it back
// after the measured region, oracle computes the sequential reference
// (traced pass only). Checks that share a key ran the same job on the
// same input on different engines and must agree.
type outCheck struct {
	key    string
	got    func() outDigest
	oracle func() (outDigest, error)
	digest outDigest
}

// outDigest is an order-insensitive digest of a job's output pairs (the
// repository's own tests compare outputs as sorted multisets), or a
// vector of floats for K-means centroids.
type outDigest struct {
	N   int64
	Sum uint64
	Vec []float64
}

func (d outDigest) equal(o outDigest) bool {
	if d.N != o.N || d.Sum != o.Sum || len(d.Vec) != len(o.Vec) {
		return false
	}
	for i := range d.Vec {
		// Engines sum partial centroids in different orders.
		if math.Abs(d.Vec[i]-o.Vec[i]) > 1e-6*(1+math.Abs(o.Vec[i])) {
			return false
		}
	}
	return true
}

func digestPairs(ps []pair) outDigest {
	// FNV-1a over key, a zero byte, value; summed so order does not matter.
	const offset, prime = 14695981039346656037, 1099511628211
	d := outDigest{N: int64(len(ps))}
	for _, p := range ps {
		h := uint64(offset)
		for _, b := range p.Key {
			h = (h ^ uint64(b)) * prime
		}
		h *= prime // the separator: h ^ 0 is h
		for _, b := range p.Value {
			h = (h ^ uint64(b)) * prime
		}
		d.Sum += h
	}
	return d
}

func (r *rep) scaleOr(def float64) float64 {
	if r.scale > 0 {
		return r.scale
	}
	return def
}

func engineLayer(fw framework) string {
	switch fw {
	case hadoop:
		return "mr"
	case spark:
		return "rdd"
	default:
		return "core"
	}
}

// newRig builds one isolated cluster + DFS + engine, as the harness does
// per measurement. In the traced pass a span recorder is attached unless
// the point runs through a scenario, which brings its own.
func (r *rep) newRig(fw framework, defScale float64, attach bool) *rig {
	var g *rig
	r.rec.call("cluster", "NewRig", "", func() {
		g = newRig(fw, rigConfig{Scale: r.scaleOr(defScale), Seed: r.seed})
	})
	if r.traced && attach {
		tr := newTracer(traceConfig{})
		switch fw {
		case hadoop:
			g.MR.Tracer = tr
		case spark:
			g.RDD.Tracer = tr
		default:
			g.DM.Tracer = tr
		}
		g.FS.SetTracer(tr)
		r.traces = append(r.traces, engineTrace{engineLayer(fw), tr})
	}
	return g
}

func (r *rep) genText(g *rig, name string, seed int64, nominal float64) *dfsFile {
	var f *dfsFile
	r.rec.call("bdb", "GenerateTextFile", "", func() {
		f = generateTextFile(g.FS, name, ldaWiki1W(), seed, nominal)
	})
	return f
}

// textFile stages a job input and counts its blocks.
func (r *rep) textFile(g *rig, name string, seed int64, nominal float64) *dfsFile {
	f := r.genText(g, name, seed, nominal)
	r.blocks += len(f.Blocks)
	return f
}

func (r *rep) seqFile(g *rig, text, seq string) (*dfsFile, error) {
	var f *dfsFile
	var err error
	r.rec.call("bdb", "ToSeqFile", "", func() { f, err = toSeqFile(g.FS, text, seq) })
	return f, err
}

// seqRatio estimates the text->gzip size ratio on a small sample, the
// way harness.runMicro sizes Normal Sort inputs by their compressed
// bytes. It is called twice per rig on purpose: each call advances the
// DFS placement stream, and the figure's simulated seconds depend on
// the resulting layout.
func (r *rep) seqRatio(g *rig, seed int64, text, seq string) float64 {
	f := r.genText(g, text, seed, 64*1024*g.FS.Config().Scale)
	textLen, comp := 0, 0
	for _, b := range f.Blocks {
		textLen += len(b.Data)
	}
	if sf, err := r.seqFile(g, text, seq); err == nil {
		for _, b := range sf.Blocks {
			comp += len(b.Data)
		}
		g.FS.Delete(text)
		g.FS.Delete(seq)
	}
	if comp == 0 || textLen == 0 {
		return 3
	}
	return float64(textLen) / float64(comp)
}

// Job kinds of the Figure 3 micro-benchmarks.
const (
	kindNormalSort = "normalsort"
	kindTextSort   = "textsort"
	kindWordCount  = "wordcount"
	kindGrep       = "grep"
)

// grepPaper is the pattern fig3d uses; the other two vary selectivity.
const (
	grepPaper = `th[ae]`
	grepNone  = `qzqzq`
	grepDense = `[a-z]+`
)

// microSpec stages one micro-benchmark's input on g and describes its
// job, mirroring harness.runMicro (same names, same seed offsets) so the
// simulated seconds are the ones the figures print.
func (r *rep) microSpec(g *rig, kind string, gb float64, out, pattern string) (spec, error) {
	nominal := gb * gbBytes
	reducers := g.TasksPerNode * g.Cluster.N()
	var in *dfsFile
	var s spec
	switch kind {
	case kindTextSort:
		in = r.textFile(g, "/bench/text", r.seed+1, nominal)
		r.rec.call("bdb", "TextSortSpec", "", func() { s = textSortSpec(g.FS, in, out, reducers) })
	case kindWordCount:
		in = r.textFile(g, "/bench/text", r.seed+2, nominal)
		r.rec.call("bdb", "WordCountSpec", "", func() { s = wordCountSpec(g.FS, in, out, reducers) })
	case kindGrep:
		// Later Grep jobs on the same rig share the first one's input.
		if f, err := g.FS.Open("/bench/text"); err == nil {
			in = f
		} else {
			in = r.textFile(g, "/bench/text", r.seed+3, nominal)
		}
		r.rec.call("bdb", "GrepSpec", "", func() { s = grepSpec(g.FS, in, out, pattern, reducers) })
	case kindNormalSort:
		r.seqRatio(g, r.seed+4, "/bench/probe-text", "/bench/probe-seq")
		textNominal := nominal * r.seqRatio(g, r.seed+4, "/probe/t", "/probe/s")
		r.textFile(g, "/bench/text", r.seed+4, textNominal)
		seq, err := r.seqFile(g, "/bench/text", "/bench/seq")
		if err != nil {
			return s, err
		}
		r.rec.call("bdb", "NormalSortSpec", "", func() { s = normalSortSpec(g.FS, seq, out, reducers) })
	default:
		return s, fmt.Errorf("unknown job kind %q", kind)
	}
	return s, nil
}

func (r *rep) addPoint(exp string, fw framework, kind string, gb float64) *point {
	pt := &point{exp: exp, layer: engineLayer(fw), fw: fw.String(), gb: gb}
	pt.id = fmt.Sprintf("%s/%s/%gGB/%s", exp, kind, gb, pt.fw)
	r.points = append(r.points, pt)
	return pt
}

func (r *rep) setupFailed(pt *point, err error) {
	pt.fails++
	pt.ops++
	r.notes = append(r.notes, fmt.Sprintf("%s: setup: %v", pt.id, err))
	pt.run = func() {}
}

// textOutput is the check on a job that wrote TextOutputFormat parts.
func textOutput(key string, s spec) *outCheck {
	return &outCheck{
		key: key,
		got: func() outDigest { return digestPairs(readTextOutput(s.FS, s.Output+"/part-")) },
		oracle: func() (outDigest, error) {
			ps, err := runSequential(s)
			return digestPairs(ps), err
		},
	}
}

// runJob runs one job on e inside the measured region.
func (r *rep) runJob(pt *point, e jobEngine, s spec) result {
	if r.traced {
		s = r.timers.wrap(s)
	}
	var res result
	r.rec.call(pt.layer, "Engine.Run", pt.id+"/"+s.Name, func() { res = e.Run(s) })
	pt.jobs = append(pt.jobs, jobOutcome{name: s.Name, res: res})
	return res
}

// microPoint adds one Figure 3 point: a fresh rig, its input, and the
// job (for Grep: the paper's pattern first, then the other patterns on
// the same rig).
func (r *rep) microPoint(exp string, fw framework, kind string, gb float64, patterns ...string) {
	pt := r.addPoint(exp, fw, kind, gb)
	g := r.newRig(fw, microScale, true)
	if len(patterns) == 0 {
		patterns = []string{""}
	}
	var specs []spec
	for i, pat := range patterns {
		out := "/bench/out"
		if i > 0 {
			out = fmt.Sprintf("/bench/alt%d", i)
		}
		s, err := r.microSpec(g, kind, gb, out, pat)
		if err != nil {
			r.setupFailed(pt, err)
			return
		}
		specs = append(specs, s)
		pt.outs = append(pt.outs, textOutput(fmt.Sprintf("%s/%s/%g/%d", exp, kind, gb, i), s))
	}
	pt.run = func() {
		for i, s := range specs {
			if res := r.runJob(pt, g.Engine, s); i == 0 {
				pt.figS = res.Elapsed
			}
		}
	}
}

// Sizes run per figure. The harness sweeps four sizes per figure; the
// benchmark keeps the smallest and one larger size of each (and the
// sizes the paper gives absolute seconds for) so a repetition fits the
// run-time cap. See README.md.
var (
	normalSortGB = []float64{4, 8}
	textSortGB   = []float64{8, 16, 32}
	wordCountGB  = []float64{8, 32}
	grepGB       = []float64{8, 16, 32}
	kmeansGB     = []float64{8, 16}
	bayesGB      = []float64{8, 32}
)

func setupShuffle(r *rep) {
	for _, gb := range normalSortGB {
		// Spark fails with OutOfMemory on every Normal Sort size.
		r.microPoint("fig3a", hadoop, kindNormalSort, gb)
		r.microPoint("fig3a", datampiFW, kindNormalSort, gb)
	}
	for _, gb := range textSortGB {
		r.microPoint("fig3b", hadoop, kindTextSort, gb)
		if gb <= 8 { // the paper's own OOM boundary for Spark
			r.microPoint("fig3b", spark, kindTextSort, gb)
		}
		r.microPoint("fig3b", datampiFW, kindTextSort, gb)
	}
	for _, gb := range wordCountGB {
		for _, fw := range []framework{hadoop, spark, datampiFW} {
			r.microPoint("fig3c", fw, kindWordCount, gb)
		}
	}
}

func setupScan(r *rep) {
	for _, gb := range grepGB {
		for _, fw := range []framework{hadoop, spark, datampiFW} {
			r.microPoint("fig3d", fw, kindGrep, gb, grepPaper, grepNone, grepDense)
		}
	}
}

// recordingEngine lets the benchmark see (and, in the traced pass, time
// the functions of) the jobs a bdb pipeline submits to an engine.
type recordingEngine struct {
	r     *rep
	pt    *point
	inner jobEngine
}

func (e recordingEngine) Name() string { return e.inner.Name() }

func (e recordingEngine) Run(s spec) result { return e.r.runJob(e.pt, e.inner, s) }

// pipelineErr counts a failed pipeline as one failed op, unless the
// failure is a job's, which the job's own result already records.
func (r *rep) pipelineErr(pt *point, err error) {
	if err == nil {
		return
	}
	for _, j := range pt.jobs {
		if j.res.Err != nil {
			return
		}
	}
	pt.fails++
	r.notes = append(r.notes, fmt.Sprintf("%s: %v", pt.id, err))
}

const (
	kmeansK     = 5
	kmeansIters = 3
)

func flatten(cents [][]float64) []float64 {
	var v []float64
	for _, c := range cents {
		v = append(v, c...)
	}
	return v
}

// kmeansPoint adds one Fig 6(a) point. The paper's metric is the first
// iteration including the input load; three iterations run so that
// iteration mode and the RDD cache are exercised.
func (r *rep) kmeansPoint(fw framework, gb float64) {
	pt := r.addPoint("fig6a", fw, "kmeans", gb)
	g := r.newRig(fw, appScale, true)
	var in *dfsFile
	r.rec.call("bdb", "GenerateVectorFile", "", func() {
		in, _ = generateVectorFile(g.FS, "/km/vec", r.seed, gb*gbBytes)
	})
	r.blocks += len(in.Blocks)
	var km kmeansResult
	pt.run = func() {
		jobs := len(pt.jobs)
		r.rec.call(pt.layer, "KMeans", pt.id, func() {
			switch fw {
			case hadoop:
				km = kmeansMR(recordingEngine{r, pt, g.Engine}, g.FS, in, "/km/out", kmeansK, 4*g.Cluster.N(), kmeansIters, 0)
			case spark:
				km = kmeansSpark(g.RDD, in, kmeansK, 4*g.Cluster.N(), kmeansIters, 0)
			default:
				km = kmeansDataMPI(g.DM, in, kmeansK, kmeansIters, 0)
			}
		})
		if len(pt.jobs) == jobs {
			// Spark and DataMPI K-means drive their engines directly;
			// the pipeline result is all the benchmark sees.
			pt.jobs = append(pt.jobs, jobOutcome{name: "KMeans", res: result{
				Engine: pt.fw, Job: "KMeans", Elapsed: km.Elapsed}})
			pt.ops += km.Iterations - 1
		}
		r.pipelineErr(pt, km.Err)
		pt.figS = km.FirstIter
	}
	pt.outs = append(pt.outs, &outCheck{
		key: fmt.Sprintf("fig6a/%g", gb),
		got: func() outDigest { return outDigest{Vec: flatten(km.Centroids)} },
		oracle: func() (outDigest, error) {
			init, err := initialCentroids(in, kmeansK)
			if err != nil {
				return outDigest{}, err
			}
			cents, err := kmeansReference(in, init, kmeansIters)
			return outDigest{Vec: flatten(cents)}, err
		},
	})
}

// bayesPoint adds one Fig 6(b) point: the three-job training pipeline.
func (r *rep) bayesPoint(fw framework, gb float64) {
	pt := r.addPoint("fig6b", fw, "bayes", gb)
	g := r.newRig(fw, appScale, true)
	var in *dfsFile
	r.rec.call("bdb", "GenerateLabeledDocs", "", func() {
		in = generateLabeledDocs(g.FS, "/nb/docs", r.seed, gb*gbBytes)
	})
	r.blocks += len(in.Blocks)
	reducers := 4 * g.Cluster.N()
	pt.run = func() {
		var nb nbResult
		r.rec.call(pt.layer, "NaiveBayesTrain", pt.id, func() {
			nb = naiveBayesTrain(recordingEngine{r, pt, g.Engine}, g.FS, in, "/nb/out", reducers)
		})
		r.pipelineErr(pt, nb.Err)
		pt.figS = nb.Elapsed
	}
	pt.outs = append(pt.outs, &outCheck{
		key: fmt.Sprintf("fig6b/%g", gb),
		got: func() outDigest { return digestPairs(readTextOutput(g.FS, "/nb/out/")) },
		oracle: func() (outDigest, error) {
			var all outDigest
			for _, s := range []spec{
				nbTermFreqSpec(g.FS, in, "", reducers),
				nbLabelTermSpec(g.FS, in, "", reducers),
				nbLabelCountSpec(g.FS, in, "", reducers),
			} {
				ps, err := runSequential(s)
				if err != nil {
					return all, err
				}
				d := digestPairs(ps)
				all.N += d.N
				all.Sum += d.Sum
			}
			return all, nil
		},
	})
}

func setupApps(r *rep) {
	for _, gb := range kmeansGB {
		// Spark K-means fails at >= 32 GB on every seed ("cached
		// partitions lost with a failed node mid-job", no node failed);
		// the known defect is kept out of the op list. See README.md.
		for _, fw := range []framework{hadoop, spark, datampiFW} {
			r.kmeansPoint(fw, gb)
		}
	}
	for _, gb := range bayesGB {
		r.bayesPoint(hadoop, gb)
		r.bayesPoint(datampiFW, gb)
	}
}

// stagedPoint adds one Text Sort / WordCount point run as a one-tenant
// scenario with the staged transport on and the shuffle pipelined.
func (r *rep) stagedPoint(exp string, fw framework, kind string, gb float64) {
	pt := r.addPoint(exp, fw, kind, gb)
	g := r.newRig(fw, microScale, false)
	s, err := r.microSpec(g, kind, gb, "/bench/out", "")
	if err != nil {
		r.setupFailed(pt, err)
		return
	}
	pt.outs = append(pt.outs, textOutput(fmt.Sprintf("%s/%s/%g", exp, kind, gb), s))
	if r.traced {
		s = r.timers.wrap(s)
	}
	opts := []scenarioOption{
		withTransport(transportConfig{Enabled: true, Pipeline: pipelineOn}),
		tenant("solo", 1, g.Sched()),
		arrive("solo", 0, s),
	}
	if r.traced {
		opts = append(opts, withTracing(traceConfig{}))
	}
	sc := newScenario(g.Testbed(), opts...)
	pt.run = func() {
		var rp *scenarioReport
		var err error
		r.rec.call(pt.layer, "Scenario.Run", pt.id, func() { rp, err = sc.Run() })
		if rp == nil {
			pt.fails++
			pt.ops++
			r.notes = append(r.notes, fmt.Sprintf("%s: %v", pt.id, err))
			return
		}
		for _, jr := range rp.Jobs {
			pt.jobs = append(pt.jobs, jobOutcome{name: jr.Result.Job, res: jr.Result})
			pt.figS = jr.Result.Elapsed
		}
		r.noteScenario(pt.layer, rp)
	}
}

// noteScenario folds one scenario report into the repetition's layer
// statistics.
func (r *rep) noteScenario(layer string, rp *scenarioReport) {
	r.scens = append(r.scens, rp)
	addTransport(&r.tp, rp.Transport)
	if rp.Trace != nil {
		r.traces = append(r.traces, engineTrace{layer, rp.Trace})
	}
}

func setupStaged(r *rep) {
	for _, gb := range textSortGB {
		r.stagedPoint("fig3b", hadoop, kindTextSort, gb)
		if gb <= 8 {
			r.stagedPoint("fig3b", spark, kindTextSort, gb)
		}
		r.stagedPoint("fig3b", datampiFW, kindTextSort, gb)
	}
	for _, gb := range wordCountGB {
		for _, fw := range []framework{hadoop, spark, datampiFW} {
			r.stagedPoint("fig3c", fw, kindWordCount, gb)
		}
	}
}

// The tenants-mix trace: the harness "datacenter" shape built from the
// public Scenario API, plus preemption and a mid-trace slow node.
const (
	mixBatch      = 550  // Poisson jobs per batch tenant
	mixUsers      = 50   // closed-loop users
	mixPerUser    = 10   // queries per user
	mixRate       = 0.5  // arrivals/s per batch tenant
	mixThink      = 40.0 // mean think time, s
	mixReducers   = 4
	mixNominal    = 0.25 * gbBytes // one 256 MB block per input
	mixSlowNode   = 7
	mixSlowFactor = 4.0
)

func setupTenants(r *rep) {
	pt := &point{id: "tenants-mix", layer: "sched"}
	r.points = append(r.points, pt)
	g := r.newRig(datampiFW, microScale, false)
	mrEng, rddEng, dmEng := newHadoop(g.FS), newSpark(g.FS), g.Sched()
	wcIn := r.textFile(g, "/dc/wc-in", r.seed+21, mixNominal)
	grepIn := r.textFile(g, "/dc/grep-in", r.seed+22, mixNominal)
	sortIn := r.textFile(g, "/dc/sort-in", r.seed+23, mixNominal)
	qIn := r.textFile(g, "/dc/q-in", r.seed+24, mixNominal)

	// Every job of a tenant runs the same function on the same input, so
	// one reference per tenant checks them all.
	type stream struct {
		name string
		n    int
		mk   func(out string) spec
	}
	streams := []stream{
		{"h", mixBatch, func(out string) spec { return wordCountSpec(g.FS, wcIn, out, mixReducers) }},
		{"s", mixBatch, func(out string) spec { return grepSpec(g.FS, grepIn, out, grepPaper, mixReducers) }},
		{"d", mixBatch, func(out string) spec { return textSortSpec(g.FS, sortIn, out, mixReducers) }},
		{"q", mixUsers * mixPerUser, func(out string) spec { return grepSpec(g.FS, qIn, out, grepPaper, mixReducers) }},
	}
	out := func(s string, i int) string { return fmt.Sprintf("/dc/%s-out-%d", s, i) }
	mk := func(si int) func(i int) spec {
		return func(i int) spec {
			s := streams[si].mk(out(streams[si].name, i))
			if r.traced {
				s = r.timers.wrap(s)
			}
			return s
		}
	}
	span := mixBatch / mixRate
	opts := []scenarioOption{
		withPolicy(fair),
		withSpeculation(speculationConfig{Enabled: true}),
		withPreemption(preemptionConfig{Enabled: true}),
		withStreamingReport(),
		at(0.3*span, slowNode(mixSlowNode, mixSlowFactor)),
		at(0.6*span, restoreNode(mixSlowNode)),
		tenant("hadoop-batch", 1, mrEng),
		poissonArrivals("hadoop-batch", mixRate, mixBatch, r.seed+31, mk(0)),
		tenant("spark-batch", 1, rddEng),
		poissonArrivals("spark-batch", mixRate, mixBatch, r.seed+32, mk(1)),
		tenant("datampi-batch", 1, dmEng),
		poissonArrivals("datampi-batch", mixRate, mixBatch, r.seed+33, mk(2)),
		tenant("interactive", 2, dmEng),
		closedLoopUsers("interactive", mixUsers, mixPerUser, mixThink, r.seed+34, func(user, k int) spec {
			return mk(3)(user*mixPerUser + k)
		}),
	}
	if r.traced {
		opts = append(opts, withTracing(traceConfig{}))
	}
	sc := newScenario(g.Testbed(), opts...)
	pt.run = func() {
		var rp *scenarioReport
		var err error
		r.rec.call("sched", "Scenario.Run", pt.id, func() { rp, err = sc.Run() })
		if rp == nil {
			pt.fails++
			pt.ops++
			r.notes = append(r.notes, fmt.Sprintf("%s: %v", pt.id, err))
			return
		}
		r.noteScenario("", rp)
		st := &r.sched
		st.jobs, st.tracker, st.makespan = rp.Submitted, rp.Tracker, rp.Makespan
		st.slots = float64(g.TasksPerNode * g.Cluster.N())
		for _, t := range rp.Tenants {
			st.failed += t.Failed
			st.slotSeconds += t.SlotSeconds
			if t.Name == "interactive" {
				st.p50, st.p95 = t.Response.P50, t.Response.P95
			}
		}
		pt.ops, pt.fails = st.jobs, pt.fails+st.failed
	}
	for si := range streams {
		st := streams[si]
		pt.outs = append(pt.outs, &outCheck{
			key: "tenants-mix/" + st.name,
			got: func() outDigest {
				first := digestPairs(readTextOutput(g.FS, out(st.name, 0)+"/part-"))
				for i := 1; i < st.n; i++ {
					if d := digestPairs(readTextOutput(g.FS, out(st.name, i)+"/part-")); !d.equal(first) {
						r.notes = append(r.notes, fmt.Sprintf("tenants-mix: job %s-%d output differs from job %s-0", st.name, i, st.name))
						return outDigest{N: -1}
					}
				}
				return first
			},
			oracle: func() (outDigest, error) {
				ps, err := runSequential(st.mk(""))
				return digestPairs(ps), err
			},
		})
	}
}

func addTransport(t *transportStats, o transportStats) {
	t.Transfers += o.Transfers
	t.BytesSerialized += o.BytesSerialized
	t.BytesCopied += o.BytesCopied
	t.BytesZeroCopied += o.BytesZeroCopied
	t.BytesWire += o.BytesWire
	t.BytesPipelined += o.BytesPipelined
	t.BytesOverlapped += o.BytesOverlapped
}

// simDigest hashes every simulated second and counter the repetition
// produced, so "a host-only change left every simulated statistic
// identical" is one comparison.
func (r *rep) simDigest() string {
	h := fnv.New64a()
	f := func(format string, a ...any) { fmt.Fprintf(h, format, a...) }
	bits := math.Float64bits
	for _, pt := range r.points {
		f("point %s ops=%d fails=%d %x\n", pt.id, pt.ops, pt.fails, bits(pt.figS))
		for _, j := range pt.jobs {
			f("job %s %x %x %x %d err=%v\n", j.name, bits(j.res.Start),
				bits(j.res.End), bits(j.res.Elapsed), j.res.OutRecords, j.res.Err != nil)
			keys := make([]string, 0, len(j.res.Counters))
			for k := range j.res.Counters {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				f(" %s=%d", k, j.res.Counters[k])
			}
		}
	}
	for _, rp := range r.scens {
		f("scenario %d %x %x %x %+v\n", rp.Submitted, bits(rp.Start), bits(rp.End), bits(rp.Makespan), rp.Tracker)
		for _, t := range rp.Tenants {
			f("tenant %s %d %d %x %x %x %x\n", t.Name, t.Jobs, t.Failed, bits(t.Response.Mean),
				bits(t.Response.P50), bits(t.Response.P95), bits(t.SlotSeconds))
		}
		tp := rp.Transport
		f("transport %d %x %x %x\n", tp.Transfers, bits(tp.BytesSerialized), bits(tp.BytesWire), bits(tp.BytesOverlapped))
	}
	st := r.sched
	f("sched %d %d %+v %x %x %x %x\n", st.jobs, st.failed, st.tracker, bits(st.slotSeconds),
		bits(st.makespan), bits(st.p50), bits(st.p95))
	return fmt.Sprintf("%016x", h.Sum64())
}

// outDigestAll hashes every verified output of the repetition.
func (r *rep) outDigestAll() string {
	h := fnv.New64a()
	for _, pt := range r.points {
		for _, oc := range pt.outs {
			fmt.Fprintf(h, "%s %s %d %x", pt.id, oc.key, oc.digest.N, oc.digest.Sum)
			for _, v := range oc.digest.Vec {
				fmt.Fprintf(h, " %x", math.Float64bits(v))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// specTimers accumulates host time inside the functions a job hands to
// an engine, and inside the emit callback the engine hands back (which
// is the kv collect, sort and spill path).
type specTimers struct {
	mapS, emitS, combineS, reduceS float64
	mapRecords, emitRecords        int64
}

func (t *specTimers) wrap(s spec) spec {
	if inner := s.Map; inner != nil {
		s.Map = func(k, v []byte, emit emitFunc) {
			start := time.Now()
			inner(k, v, func(ek, ev []byte) {
				e0 := time.Now()
				emit(ek, ev)
				t.emitS += time.Since(e0).Seconds()
				t.emitRecords++
			})
			t.mapS += time.Since(start).Seconds()
			t.mapRecords++
		}
	}
	if inner := s.Combine; inner != nil {
		s.Combine = func(k []byte, vs [][]byte) [][]byte {
			start := time.Now()
			out := inner(k, vs)
			t.combineS += time.Since(start).Seconds()
			return out
		}
	}
	if inner := s.Reduce; inner != nil {
		s.Reduce = func(k []byte, vs [][]byte) []pair {
			start := time.Now()
			out := inner(k, vs)
			t.reduceS += time.Since(start).Seconds()
			return out
		}
	}
	return s
}
