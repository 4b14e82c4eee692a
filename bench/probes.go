package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// Probes are isolated timed calls into one layer's exported functions on
// workload-shaped data (one 256 MB-nominal block at the figures' scale,
// i.e. 32 KB of generated text, unless a probe says otherwise). They
// give each layer a number that moves only when that layer changes; the
// README says which end-to-end metric each should move, and where.

// probeBlockBytes is one DFS block of the micro-benchmarks in actual
// bytes: 256 MB nominal / 8192.
const probeBlockBytes = 32 << 10

type probeEnv struct {
	seed   int64
	budget time.Duration // host time per probe, split over three repeats
	out    map[string]float64
	errs   []string
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// secondsPerUnit repeats batch until a third of the probe budget has
// passed, three times over, and returns the median seconds per unit.
// batch reports the units of work it did and the time it took, so a
// probe can keep its own preparation out of the timing.
func (p *probeEnv) secondsPerUnit(batch func() (units float64, d time.Duration)) float64 {
	var samples []float64
	for i := 0; i < 3; i++ {
		var units float64
		var d time.Duration
		for d < p.budget/3 || units == 0 {
			u, dd := batch()
			if u <= 0 {
				return 0
			}
			units += u
			d += dd
		}
		samples = append(samples, d.Seconds()/units)
	}
	return median(samples)
}

func (p *probeEnv) nsPer(name string, batch func() (float64, time.Duration)) {
	p.out[name] = p.secondsPerUnit(batch) * 1e9
}

func (p *probeEnv) perSecond(name string, batch func() (float64, time.Duration)) {
	if s := p.secondsPerUnit(batch); s > 0 {
		p.out[name] = 1 / s
	}
}

func (p *probeEnv) fail(name string, err error) {
	p.errs = append(p.errs, fmt.Sprintf("probe %s: %v", name, err))
}

// timed runs fn once and reports units over its duration.
func timed(units float64, fn func()) (float64, time.Duration) {
	start := time.Now()
	fn()
	return units, time.Since(start)
}

// clonePairs deep-copies pairs with capacity-bounded slices, as the kv
// arena cuts them: in-place combiners rewrite record bytes.
func clonePairs(ps []pair) []pair {
	n := 0
	for _, p := range ps {
		n += len(p.Key) + len(p.Value)
	}
	buf := make([]byte, 0, n)
	out := make([]pair, len(ps))
	for i, p := range ps {
		k0 := len(buf)
		buf = append(buf, p.Key...)
		v0 := len(buf)
		buf = append(buf, p.Value...)
		out[i] = pair{Key: buf[k0:v0:v0], Value: buf[v0:len(buf):len(buf)]}
	}
	return out
}

func splitLines(data []byte) [][]byte {
	return bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
}

// mapOutput runs a job's map function over lines and returns what it
// emits — the records the kv layer sees for one block.
func mapOutput(s spec, lines [][]byte) []pair {
	var out []pair
	for _, ln := range lines {
		s.Map(nil, ln, func(k, v []byte) { out = append(out, pair{Key: k, Value: v}) })
	}
	return clonePairs(out)
}

func runProbes(seed int64, budget time.Duration) (map[string]float64, []string) {
	p := &probeEnv{seed: seed, budget: budget, out: map[string]float64{}}
	text := ldaWiki1W().GenerateText(seed, probeBlockBytes)
	lines := splitLines(text)
	probeKV(p, lines)
	probeBDB(p, text, lines)
	probeSim(p)
	probeSched(p)
	probeDFS(p)
	probeSmall(p)
	return p.out, p.errs
}

func probeKV(p *probeEnv, lines [][]byte) {
	wc := mapOutput(wordCountSpec(nil, nil, "", 32), lines)
	n := float64(len(wc))
	scratch := make([]pair, len(wc))
	p.nsPer("kv.sort_ns_per_rec", func() (float64, time.Duration) {
		copy(scratch, wc)
		return timed(n, func() { sortPairs(scratch) })
	})
	collect := func(ps []pair) {
		c := newPartitionCollector(32, 0, sumCombiner, hashPartitioner{})
		for _, kv := range ps {
			c.Emit(kv.Key, kv.Value)
		}
		c.Finish()
	}
	p.nsPer("kv.collect_ns_per_rec", func() (float64, time.Duration) {
		return timed(n, func() { collect(wc) })
	})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 10; i++ {
		collect(wc)
	}
	runtime.ReadMemStats(&m1)
	p.out["kv.collect_allocs_per_rec"] = float64(m1.Mallocs-m0.Mallocs) / (10 * n)
	runtime.ReadMemStats(&m0)
	for i := 0; i < 1000; i++ {
		collect(nil)
	}
	runtime.ReadMemStats(&m1)
	p.out["kv.collect_fixed_kb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1000 / 1024

	sorted := clonePairs(wc)
	sortPairs(sorted)
	runs := make([][]pair, 8)
	for i, kv := range sorted {
		runs[i%8] = append(runs[i%8], kv)
	}
	p.nsPer("kv.merge_ns_per_rec", func() (float64, time.Duration) {
		return timed(n, func() { mergeRuns(runs) })
	})
	p.nsPer("kv.combine_ns_per_rec", func() (float64, time.Duration) {
		fresh := clonePairs(sorted)
		return timed(n, func() { combineSorted(fresh, sumCombiner) })
	})
	ts := mapOutput(textSortSpec(nil, &dfsFile{}, "", 1), lines)
	enc := encodeAll(ts)
	p.perSecond("kv.codec_mb_per_s", func() (float64, time.Duration) {
		return timed(2*float64(len(enc))/mbBytes, func() {
			if _, err := decodeAll(encodeAll(ts)); err != nil {
				p.fail("kv.codec_mb_per_s", err)
			}
		})
	})
}

func probeBDB(p *probeEnv, text []byte, lines [][]byte) {
	const genBytes = 8 * probeBlockBytes
	p.perSecond("bdb.textgen_mb_per_s", func() (float64, time.Duration) {
		return timed(float64(genBytes)/mbBytes, func() { ldaWiki1W().GenerateText(p.seed, genBytes) })
	})
	g := newRig(hadoop, rigConfig{Scale: microScale, Seed: p.seed})
	fileMB := func(f *dfsFile) float64 {
		n := 0
		for _, b := range f.Blocks {
			n += len(b.Data)
		}
		return float64(n) / mbBytes
	}
	var vec, seq *dfsFile
	p.perSecond("bdb.vecgen_mb_per_s", func() (float64, time.Duration) {
		start := time.Now()
		vec, _ = generateVectorFile(g.FS, "/probe/vec", p.seed, genBytes*microScale)
		return fileMB(vec), time.Since(start)
	})
	p.perSecond("bdb.docgen_mb_per_s", func() (float64, time.Duration) {
		start := time.Now()
		f := generateLabeledDocs(g.FS, "/probe/docs", p.seed, genBytes*microScale)
		return fileMB(f), time.Since(start)
	})
	in := generateTextFile(g.FS, "/probe/text", ldaWiki1W(), p.seed, genBytes*microScale)
	p.perSecond("bdb.seqfile_mb_per_s", func() (float64, time.Duration) {
		start := time.Now()
		var err error
		if seq, err = toSeqFile(g.FS, "/probe/text", "/probe/seq"); err != nil {
			p.fail("bdb.seqfile_mb_per_s", err)
			return 0, 0
		}
		return fileMB(in), time.Since(start)
	})

	nLines := float64(len(lines))
	drop := func(k, v []byte) {}
	wc := wordCountSpec(nil, nil, "", 32)
	p.nsPer("bdb.wc_map_ns_per_rec", func() (float64, time.Duration) {
		return timed(nLines, func() {
			for _, ln := range lines {
				wc.Map(nil, ln, drop)
			}
		})
	})
	grep := grepSpec(nil, nil, "", grepPaper, 32)
	p.nsPer("bdb.grep_map_ns_per_rec", func() (float64, time.Duration) {
		return timed(nLines, func() {
			for _, ln := range lines {
				grep.Map(nil, ln, drop)
			}
		})
	})
	var vecLines [][]byte
	if vec != nil && len(vec.Blocks) > 0 {
		vecLines = splitLines(vec.Blocks[0].Data)
	}
	p.nsPer("bdb.vec_parse_ns_per_rec", func() (float64, time.Duration) {
		return timed(float64(len(vecLines)), func() {
			for _, ln := range vecLines {
				if _, err := parseSparseVec(ln); err != nil {
					p.fail("bdb.vec_parse_ns_per_rec", err)
				}
			}
		})
	})

	p.perSecond("job.decode_text_mb_per_s", func() (float64, time.Duration) {
		return timed(float64(len(text))/mbBytes, func() {
			if _, _, err := jobRecords(formatText, text); err != nil {
				p.fail("job.decode_text_mb_per_s", err)
			}
		})
	})
	if seq != nil && len(seq.Blocks) > 0 {
		blk := seq.Blocks[0].Data
		p.perSecond("job.decode_seqgzip_mb_per_s", func() (float64, time.Duration) {
			inflated := 0
			start := time.Now()
			var err error
			if _, inflated, err = jobRecords(formatSeqGzip, blk); err != nil {
				p.fail("job.decode_seqgzip_mb_per_s", err)
				return 0, 0
			}
			return float64(inflated) / mbBytes, time.Since(start)
		})
	}
}

// probeSim times the simulation kernel's primitives. Each batch builds a
// fresh engine, queues the work, and times Engine.Run.
func probeSim(p *probeEnv) {
	run := func(name string, eng *simEngine, units float64) (float64, time.Duration) {
		start := time.Now()
		if err := eng.Run(); err != nil {
			p.fail(name, err)
			return 0, 0
		}
		return units, time.Since(start)
	}
	const procs, rounds = 64, 200
	p.nsPer("sim.handoff_ns", func() (float64, time.Duration) {
		eng := newSimEngine()
		for i := 0; i < 2; i++ {
			eng.Go("p", func(pr *simProc) {
				for k := 0; k < 20000; k++ {
					pr.Sleep(1)
				}
			})
		}
		return run("sim.handoff_ns", eng, 40000)
	})
	p.nsPer("sim.timer_ns", func() (float64, time.Duration) {
		eng := newSimEngine()
		for i := 0; i < 50000; i++ {
			eng.Schedule(float64((i*7919)%10007), func() {})
		}
		return run("sim.timer_ns", eng, 50000)
	})
	p.nsPer("sim.ps_flow_ns", func() (float64, time.Duration) {
		eng := newSimEngine()
		res := newPSResource(eng, "probe", 8, 1)
		for i := 0; i < procs; i++ {
			amount := 0.5 + float64(i%7)*0.1
			eng.Go("p", func(pr *simProc) {
				for k := 0; k < rounds; k++ {
					res.Use(pr, amount, "probe")
				}
			})
		}
		return run("sim.ps_flow_ns", eng, procs*rounds)
	})
	fabric := func(name string, bytes float64) {
		p.nsPer(name, func() (float64, time.Duration) {
			eng := newSimEngine()
			fb := newFabric(eng, 8, 117*mbBytes)
			for i := 0; i < procs; i++ {
				src, dst := i%8, (i*3+1)%8
				eng.Go("p", func(pr *simProc) {
					for k := 0; k < rounds; k++ {
						fb.Transfer(pr, src, dst, bytes, "probe")
					}
				})
			}
			return run(name, eng, procs*rounds)
		})
	}
	fabric("sim.fabric_flow_ns", 4*mbBytes)
	fabric("sim.zero_flow_ns", 0)
}

func probeSched(p *probeEnv) {
	p.nsPer("sched.acquire_ns", func() (float64, time.Duration) {
		eng := newSimEngine()
		ctl := soloControl(eng, 8)
		pool := ctl.Pool("probe", 2)
		h := ctl.Handle()
		const procs, rounds = 64, 200
		for i := 0; i < procs; i++ {
			node := i % 8
			eng.Go("p", func(pr *simProc) {
				for k := 0; k < rounds; k++ {
					pool.Acquire(pr, node, h, "probe")
					pr.Sleep(0.01)
					pool.Release(node, h)
				}
			})
		}
		start := time.Now()
		if err := eng.Run(); err != nil {
			p.fail("sched.acquire_ns", err)
			return 0, 0
		}
		return procs * rounds, time.Since(start)
	})

	// 10k one-byte blocks with three replicas each, placed on 8 nodes.
	c := newCluster(defaultHardware(), fidelityFast)
	fsys := newDFS(c, dfsConfig{BlockSize: 1, Replication: 3, Scale: 1, Seed: p.seed})
	f := fsys.Preload("/probe/blocks", make([]byte, 10000))
	placer := soloControl(c.Eng, c.N()).Placer()
	p.out["sched.place_us_per_kblock"] = p.secondsPerUnit(func() (float64, time.Duration) {
		return timed(float64(len(f.Blocks))/1000, func() { placer.Place(f.Blocks) })
	}) * 1e6
}

func probeDFS(p *probeEnv) {
	data := ldaWiki1W().GenerateText(p.seed, 16*probeBlockBytes)
	var written *dfsFile
	p.perSecond("dfs.write_mb_per_s", func() (float64, time.Duration) {
		g := newRig(hadoop, rigConfig{Scale: microScale, Seed: p.seed})
		var werr error
		g.Cluster.Eng.Go("writer", func(pr *simProc) {
			w := g.FS.Create("/probe/out", 0)
			if werr = w.Write(pr, data); werr == nil {
				werr = w.Close(pr)
			}
		})
		start := time.Now()
		err := g.Cluster.Eng.Run()
		d := time.Since(start)
		if err == nil {
			err = werr
		}
		if err != nil {
			p.fail("dfs.write_mb_per_s", err)
			return 0, 0
		}
		written, _ = g.FS.Open("/probe/out")
		return float64(len(data)) / mbBytes, d
	})
	p.perSecond("dfs.read_blocks_per_s", func() (float64, time.Duration) {
		g := newRig(hadoop, rigConfig{Scale: microScale, Seed: p.seed})
		f := g.FS.PreloadAligned("/probe/in", data, '\n')
		const passes = 50
		var rerr error
		g.Cluster.Eng.Go("reader", func(pr *simProc) {
			for k := 0; k < passes; k++ {
				for i, b := range f.Blocks {
					if _, err := g.FS.ReadBlock(pr, b, i%g.Cluster.N()); err != nil {
						rerr = err
					}
				}
			}
		})
		start := time.Now()
		err := g.Cluster.Eng.Run()
		d := time.Since(start)
		if err == nil {
			err = rerr
		}
		if err != nil {
			p.fail("dfs.read_blocks_per_s", err)
			return 0, 0
		}
		return float64(passes * len(f.Blocks)), d
	})
	if written == nil || len(written.Blocks) == 0 {
		p.fail("dfs.write_mb_per_s", fmt.Errorf("no block written"))
	}
}

func probeSmall(p *probeEnv) {
	p.nsPer("transport.send_ns", func() (float64, time.Duration) {
		hw := defaultHardware()
		hw.Nodes = 2
		c := newCluster(hw, fidelityFast)
		t := newTransport(c, datampiProfile())
		t.SetEnabled(true)
		const sends, msg = 2000, 64 << 10
		sent := 0
		var next func()
		next = func() {
			if sent < sends {
				sent++
				t.Send(0, 1, msg, msg/1024, next)
			}
		}
		c.Eng.Post(0, next)
		start := time.Now()
		if err := c.Eng.Run(); err != nil {
			p.fail("transport.send_ns", err)
			return 0, 0
		}
		return sends, time.Since(start)
	})
	p.nsPer("trace.span_ns", func() (float64, time.Duration) {
		tr := newTracer(traceConfig{})
		const n = 20000
		return timed(n, func() {
			for i := 0; i < n; i++ {
				tr.Begin("probe", "task", i%8, i%4, float64(i)).EndAt(float64(i + 1))
			}
		})
	})
	p.nsPer("metrics.sketch_add_ns", func() (float64, time.Duration) {
		var sk sketch
		const n = 50000
		return timed(n, func() {
			for i := 0; i < n; i++ {
				sk.Add(0.5 + float64(i%977)*0.37)
			}
		})
	})
}
