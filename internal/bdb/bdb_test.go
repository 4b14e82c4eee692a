package bdb

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/core"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/mr"
	"github.com/datampi/datampi-go/internal/rdd"
	"github.com/datampi/datampi-go/internal/trace"
)

func freshFS(blockSize, scale float64) *dfs.FS {
	c := cluster.New(cluster.DefaultHardware())
	return dfs.New(c, dfs.Config{BlockSize: blockSize, Replication: 3, Scale: scale, Seed: 1, PerBlockOverhead: 0.05})
}

// engines builds the three engines over one filesystem.
func engines(fsys *dfs.FS) []job.Engine {
	return []job.Engine{
		mr.New(fsys, mr.DefaultConfig()),
		rdd.New(fsys, rdd.DefaultConfig()),
		core.New(fsys, core.DefaultConfig()),
	}
}

func TestSeedModelDeterministic(t *testing.T) {
	m := LDAWiki1W()
	a := m.GenerateText(42, 4096)
	b := m.GenerateText(42, 4096)
	if !bytes.Equal(a, b) {
		t.Fatal("text generation not deterministic")
	}
	c := m.GenerateText(43, 4096)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical text")
	}
}

func TestSeedModelZipfSkew(t *testing.T) {
	m := LDAWiki1W()
	data := m.GenerateText(1, 256*1024)
	counts := map[string]int{}
	total := 0
	for _, w := range bytes.Fields(data) {
		counts[string(w)]++
		total++
	}
	// Zipfian text: the single most common word should account for >5% of
	// tokens, and the vocabulary should be heavy-tailed (many rare words).
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	if float64(max)/float64(total) < 0.05 {
		t.Fatalf("top word frequency %.3f, want Zipf-like skew", float64(max)/float64(total))
	}
	if len(counts) < 500 {
		t.Fatalf("vocabulary only %d distinct words", len(counts))
	}
}

func TestAmazonModelsSeparable(t *testing.T) {
	// Signature bands must make categories distinguishable: two models'
	// word distributions should differ substantially.
	a := Amazon(1).GenerateText(1, 64*1024)
	b := Amazon(2).GenerateText(1, 64*1024)
	ca, cb := map[string]int{}, map[string]int{}
	for _, w := range bytes.Fields(a) {
		ca[string(w)]++
	}
	for _, w := range bytes.Fields(b) {
		cb[string(w)]++
	}
	onlyA := 0
	for w := range ca {
		if cb[w] == 0 {
			onlyA++
		}
	}
	if onlyA < 100 {
		t.Fatalf("models amazon1/amazon2 share almost all vocabulary (%d unique)", onlyA)
	}
}

func TestToSeqFileRoundTripAndCompression(t *testing.T) {
	fsys := freshFS(16*cluster.KB, 1)
	text := LDAWiki1W().GenerateText(7, 64*1024)
	fsys.PreloadAligned("/text", text, '\n')
	seq, err := ToSeqFile(fsys, "/text", "/seq")
	if err != nil {
		t.Fatal(err)
	}
	// Round trip: decoded records must match the source lines, key==value.
	var lines [][]byte
	for _, l := range bytes.Split(text, []byte("\n")) {
		if len(l) > 0 {
			lines = append(lines, l)
		}
	}
	var recs []kv.Pair
	for _, blk := range seq.Blocks {
		rs, _, err := job.Records(job.SeqGzip, blk.Data)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rs...)
	}
	if len(recs) != len(lines) {
		t.Fatalf("seq has %d records, want %d", len(recs), len(lines))
	}
	for i := range recs {
		if !bytes.Equal(recs[i].Key, lines[i]) || !bytes.Equal(recs[i].Value, lines[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// Natural-language text must compress well (the paper's Normal Sort
	// input is much smaller than its Text Sort equivalent).
	ratio, err := compressionRatio(seq)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 2.0 {
		t.Fatalf("gzip ratio %.2f, want > 2x for Zipfian text", ratio)
	}
}

// compressionRatio reports decoded/compressed size for a seq+gzip file —
// the paper's Normal Sort input inflates by roughly this factor when read.
func compressionRatio(f *dfs.File) (float64, error) {
	var comp, raw float64
	for _, blk := range f.Blocks {
		zr, err := gzip.NewReader(bytes.NewReader(blk.Data))
		if err != nil {
			return 0, err
		}
		n, err := io.Copy(io.Discard, zr)
		if err != nil {
			return 0, err
		}
		raw += float64(n)
		comp += float64(len(blk.Data))
	}
	if comp == 0 {
		return 0, fmt.Errorf("bdb: empty file")
	}
	return raw / comp, nil
}

func TestWordCountAgreesAcrossEngines(t *testing.T) {
	fsys := freshFS(16*cluster.KB, 1)
	in := GenerateTextFile(fsys, "/in", LDAWiki1W(), 3, 64*1024)
	ref, err := job.RunSequential(WordCountSpec(fsys, in, "", 4))
	if err != nil {
		t.Fatal(err)
	}
	refCounts := map[string]string{}
	for _, p := range ref {
		refCounts[string(p.Key)] = string(p.Value)
	}
	for i, eng := range engines(fsys) {
		out := "/out/wc-" + eng.Name()
		res := eng.Run(WordCountSpec(fsys, in, out, 4))
		if res.Err != nil {
			t.Fatalf("%s: %v", eng.Name(), res.Err)
		}
		got := map[string]string{}
		for _, p := range job.ReadTextOutput(fsys, out) {
			got[string(p.Key)] = string(p.Value)
		}
		if len(got) != len(refCounts) {
			t.Fatalf("%s: %d words, reference %d", eng.Name(), len(got), len(refCounts))
		}
		for w, n := range refCounts {
			if got[w] != n {
				t.Fatalf("%s: count[%s]=%s, reference %s", eng.Name(), w, got[w], n)
			}
		}
		_ = i
	}
}

// BenchmarkCollectTinyTask is one WordCount map task over 32 KB of text,
// the size of a tenants-mix task, into four partitions: its B/op is what
// a small task allocates in the collector, slab blocks and sorted runs.
func BenchmarkCollectTinyTask(b *testing.B) {
	spec := WordCountSpec(nil, nil, "", 4)
	spec.Normalize()
	text := LDAWiki1W().GenerateText(23, 32<<10)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for b.Loop() {
		coll := kv.NewPartitionCollector(spec.Reducers, 0, spec.Combine, spec.Part)
		if _, _, err := spec.MapBlock(text, coll.Emit); err != nil {
			b.Fatal(err)
		}
		coll.Finish()
	}
}

func TestGrepAgreesAcrossEnginesAndRegexp(t *testing.T) {
	fsys := freshFS(16*cluster.KB, 1)
	in := GenerateTextFile(fsys, "/in", LDAWiki1W(), 5, 64*1024)
	pattern := "th[ae]"
	// Reference with plain regexp over the raw corpus.
	var raw []byte
	for _, blk := range in.Blocks {
		raw = append(raw, blk.Data...)
	}
	refSpec := GrepSpec(fsys, in, "", pattern, 4)
	ref, err := job.RunSequential(refSpec)
	if err != nil {
		t.Fatal(err)
	}
	var refTotal int64
	for _, p := range ref {
		refTotal += kv.ParseInt(p.Value)
	}
	if refTotal == 0 {
		t.Fatal("pattern matched nothing; bad test corpus")
	}
	for _, eng := range engines(fsys) {
		out := "/out/grep-" + eng.Name()
		res := eng.Run(GrepSpec(fsys, in, out, pattern, 4))
		if res.Err != nil {
			t.Fatalf("%s: %v", eng.Name(), res.Err)
		}
		var total int64
		for _, p := range job.ReadTextOutput(fsys, out) {
			total += kv.ParseInt(p.Value)
		}
		if total != refTotal {
			t.Fatalf("%s: %d matches, reference %d", eng.Name(), total, refTotal)
		}
	}
}

func TestTextSortAgreesAcrossEngines(t *testing.T) {
	fsys := freshFS(16*cluster.KB, 1)
	in := GenerateTextFile(fsys, "/in", LDAWiki1W(), 9, 48*1024)
	var want []string
	for _, blk := range in.Blocks {
		for _, l := range bytes.Split(blk.Data, []byte("\n")) {
			if len(l) > 0 {
				want = append(want, string(l))
			}
		}
	}
	for _, eng := range engines(fsys) {
		out := "/out/sort-" + eng.Name()
		res := eng.Run(TextSortSpec(fsys, in, out, 8))
		if res.Err != nil {
			t.Fatalf("%s: %v", eng.Name(), res.Err)
		}
		got := job.ReadTextOutput(fsys, out)
		if len(got) != len(want) {
			t.Fatalf("%s: %d lines, want %d", eng.Name(), len(got), len(want))
		}
		for i := 1; i < len(got); i++ {
			if bytes.Compare(got[i-1].Key, got[i].Key) > 0 {
				t.Fatalf("%s: output not globally sorted", eng.Name())
			}
		}
	}
}

func TestNormalSortHadoopVsDataMPI(t *testing.T) {
	fsys := freshFS(16*cluster.KB, 1)
	GenerateTextFile(fsys, "/text", LDAWiki1W(), 11, 48*1024)
	seq, err := ToSeqFile(fsys, "/text", "/seq")
	if err != nil {
		t.Fatal(err)
	}
	nRecords := 0
	for _, blk := range seq.Blocks {
		rs, _, err := job.Records(job.SeqGzip, blk.Data)
		if err != nil {
			t.Fatal(err)
		}
		nRecords += len(rs)
	}
	for _, eng := range []job.Engine{mr.New(fsys, mr.DefaultConfig()), core.New(fsys, core.DefaultConfig())} {
		out := "/out/nsort-" + eng.Name()
		res := eng.Run(NormalSortSpec(fsys, seq, out, 8))
		if res.Err != nil {
			t.Fatalf("%s: %v", eng.Name(), res.Err)
		}
		got := job.ReadTextOutput(fsys, out)
		if len(got) != nRecords {
			t.Fatalf("%s: %d records, want %d", eng.Name(), len(got), nRecords)
		}
		for i := 1; i < len(got); i++ {
			if bytes.Compare(got[i-1].Key, got[i].Key) > 0 {
				t.Fatalf("%s: not sorted", eng.Name())
			}
		}
	}
}

func TestKMeansEnginesMatchReference(t *testing.T) {
	fsys := freshFS(32*cluster.KB, 1)
	in, _ := GenerateVectorFile(fsys, "/vec", 13, 96*1024)
	init, err := InitialCentroids(in, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := KMeansReference(in, init, 1)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, got [][]float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d centroids, want %d", name, len(got), len(want))
		}
		for ci := range want {
			for j := range want[ci] {
				if math.Abs(got[ci][j]-want[ci][j]) > 1e-6 {
					t.Fatalf("%s: centroid %d component %d: %v vs %v", name, ci, j, got[ci][j], want[ci][j])
				}
			}
		}
	}

	hres := KMeansMR(mr.New(fsys, mr.DefaultConfig()), fsys, in, "/km-hadoop", 5, 5, 1, 0)
	if hres.Err != nil {
		t.Fatal(hres.Err)
	}
	check("Hadoop", hres.Centroids)

	sres := KMeansSpark(rdd.New(fsys, rdd.DefaultConfig()), in, 5, 5, 1, 0)
	if sres.Err != nil {
		t.Fatal(sres.Err)
	}
	check("Spark", sres.Centroids)

	dres := KMeansDataMPI(core.New(fsys, core.DefaultConfig()), in, 5, 1, 0)
	if dres.Err != nil {
		t.Fatal(dres.Err)
	}
	check("DataMPI", dres.Centroids)
}

// TestKMeansDataMPITraced: Iteration mode is traced like any job — one job
// span, a phase span for the load and for every round, a task span on a
// slot lane for every rank's load and every rank's round — and tracing it
// moves no simulated number.
func TestKMeansDataMPITraced(t *testing.T) {
	run := func(tr *trace.Tracer) (KMeansResult, int, int) {
		fsys := freshFS(32*cluster.KB, 1)
		in, _ := GenerateVectorFile(fsys, "/vec", 13, 96*1024)
		eng := core.New(fsys, core.DefaultConfig())
		eng.Tracer = tr
		res := KMeansDataMPI(eng, in, 5, 3, 0)
		if res.Err != nil || res.Iterations != 3 {
			t.Fatalf("%d iterations, err %v", res.Iterations, res.Err)
		}
		c := fsys.Cluster()
		return res, min(eng.Cfg.TasksPerNode*c.N(), len(in.Blocks)), c.N()
	}
	plain, nO, nA := run(nil)
	tr := trace.New(trace.Config{})
	traced, _, _ := run(tr)
	if traced.Elapsed != plain.Elapsed || traced.FirstIter != plain.FirstIter || !slices.Equal(traced.IterTimes, plain.IterTimes) {
		t.Fatalf("tracing moved the run: elapsed %v/%v, first %v/%v, rounds %v/%v",
			traced.Elapsed, plain.Elapsed, traced.FirstIter, plain.FirstIter, traced.IterTimes, plain.IterTimes)
	}
	jobs, phases := tr.FindByCat("job"), tr.FindByCat("phase")
	if len(jobs) != 1 || jobs[0].Name != "job:KMeans" {
		t.Fatalf("job spans: %+v", jobs)
	}
	var names []string
	for _, ph := range phases {
		names = append(names, ph.Name)
		if ph.Parent != jobs[0].ID {
			t.Fatalf("phase %s is not under the job span", ph.Name)
		}
	}
	if want := []string{"load", "round1", "round2", "round3"}; !slices.Equal(names, want) {
		t.Fatalf("phase spans %v, want %v", names, want)
	}
	for i, d := range traced.IterTimes[1:] {
		if ph := phases[i+2]; ph.End-ph.Start != d {
			t.Fatalf("phase %s lasts %v, the result says %v", ph.Name, ph.End-ph.Start, d)
		}
	}
	kinds := map[string]int{}
	for _, sp := range tr.FindByCat("task") {
		kinds[sp.Name[:strings.LastIndexByte(sp.Name, '-')]]++
		if sp.Tid >= trace.TidDriver || sp.End <= sp.Start {
			t.Fatalf("task span %s: lane %d, %v..%v", sp.Name, sp.Tid, sp.Start, sp.End)
		}
	}
	want := map[string]int{"O-load": nO, "O-r1": nO, "O-r2": nO, "O-r3": nO, "A-r1": nA, "A-r2": nA, "A-r3": nA}
	if !maps.Equal(kinds, want) {
		t.Fatalf("task spans %v, want %v", kinds, want)
	}
}

func TestKMeansRecoversClusterStructure(t *testing.T) {
	// After a few iterations, vectors generated from 5 different seed
	// models should mostly map to 5 distinct clusters.
	fsys := freshFS(32*cluster.KB, 1)
	in, truth := GenerateVectorFile(fsys, "/vec", 17, 128*1024)
	res := KMeansDataMPI(core.New(fsys, core.DefaultConfig()), in, 5, 8, 1e-4)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Assign each vector, check cluster purity against ground truth.
	norms := make([]float64, len(res.Centroids))
	for i := range res.Centroids {
		norms[i] = norm2(res.Centroids[i])
	}
	assign := map[[2]int]int{} // (truth, cluster) -> count
	vi := 0
	for _, blk := range in.Blocks {
		for _, line := range bytes.Split(blk.Data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			v, err := ParseSparseVec(line)
			if err != nil || len(v.Idx) == 0 {
				continue
			}
			ci := NearestCentroid(v, res.Centroids, norms)
			assign[[2]int{truth[vi], ci}]++
			vi++
		}
	}
	// Majority cluster per truth class should dominate.
	for cls := 0; cls < 5; cls++ {
		total, best := 0, 0
		for ci := 0; ci < 5; ci++ {
			n := assign[[2]int{cls, ci}]
			total += n
			if n > best {
				best = n
			}
		}
		if total == 0 {
			continue
		}
		if float64(best)/float64(total) < 0.6 {
			t.Fatalf("class %d purity %.2f, want >= 0.6 (%v)", cls, float64(best)/float64(total), assign)
		}
	}
}

func TestNaiveBayesMatchesReferenceAndClassifies(t *testing.T) {
	fsys := freshFS(32*cluster.KB, 1)
	in := GenerateLabeledDocs(fsys, "/docs", 19, 128*1024)
	ref, err := NBReference(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []job.Engine{mr.New(fsys, mr.DefaultConfig()), core.New(fsys, core.DefaultConfig())} {
		res := NaiveBayesTrain(eng, fsys, in, "/nb-"+eng.Name(), 4)
		if res.Err != nil {
			t.Fatalf("%s: %v", eng.Name(), res.Err)
		}
		m := res.Model
		if len(m.Labels) != 5 {
			t.Fatalf("%s: %d labels, want 5", eng.Name(), len(m.Labels))
		}
		if m.VocabSize != ref.VocabSize {
			t.Fatalf("%s: vocab %d, reference %d", eng.Name(), m.VocabSize, ref.VocabSize)
		}
		for lbl, want := range ref.Prior {
			if math.Abs(m.Prior[lbl]-want) > 1e-9 {
				t.Fatalf("%s: prior[%s]=%v want %v", eng.Name(), lbl, m.Prior[lbl], want)
			}
		}
		// Spot-check conditional probabilities.
		for lbl, conds := range ref.CondLog {
			for term, want := range conds {
				if got := m.CondLog[lbl][term]; math.Abs(got-want) > 1e-9 {
					t.Fatalf("%s: cond[%s][%s]=%v want %v", eng.Name(), lbl, term, got, want)
				}
				break
			}
		}
		// The trained model must actually classify: run the classify job
		// on the training docs and require far-above-chance accuracy.
		cres := eng.Run(NBClassifySpec(fsys, in, "/nbc-"+eng.Name(), m, 4))
		if cres.Err != nil {
			t.Fatal(cres.Err)
		}
		acc, err := NBAccuracy(fsys, "/nbc-"+eng.Name())
		if err != nil {
			t.Fatal(err)
		}
		if acc < 0.7 {
			t.Fatalf("%s: accuracy %.2f, want >= 0.7 (chance is 0.2)", eng.Name(), acc)
		}
	}
}

func TestSparseVecRoundTrip(t *testing.T) {
	v := SparseVec{Idx: []int32{1, 5, 9999}, Val: []float64{0.5, 1.25, 3}}
	got, err := ParseSparseVec(v.MarshalText())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Idx) != 3 || got.Idx[2] != 9999 || math.Abs(got.Val[1]-1.25) > 1e-9 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestDocToVectorNormalized(t *testing.T) {
	counts := make([]float64, vocabSize)
	var v SparseVec
	tfVector(&v, counts, []int32{2500, 200, 2500, 3, 9999, 99, 200, 200})
	if math.Abs(v.Norm2()-1) > 1e-9 {
		t.Fatalf("norm2 = %v, want 1", v.Norm2())
	}
	// Ascending indices, the Zipf head (3, 99) dropped, values by count.
	if !slices.Equal(v.Idx, []int32{200, 2500, 9999}) {
		t.Fatalf("indices %v, want [200 2500 9999]", v.Idx)
	}
	if n := math.Sqrt(3*3 + 2*2 + 1); v.Val[0] != 3/n || v.Val[1] != 2/n || v.Val[2] != 1/n {
		t.Fatalf("values %v, want counts 3, 2, 1 over %v", v.Val, n)
	}
	// Stopwords (the Zipf head) must be filtered out entirely.
	tfVector(&v, counts, []int32{0, 1, stopwordCutoff - 1})
	if len(v.Idx) != 0 || len(v.Val) != 0 {
		t.Fatalf("stopwords survived vectorization: %+v", v)
	}
	if slices.ContainsFunc(counts, func(c float64) bool { return c != 0 }) {
		t.Fatal("the scratch counts were not returned to zero")
	}
}

func TestVectorFileParsesCompletely(t *testing.T) {
	fsys := freshFS(16*cluster.KB, 1)
	in, truth := GenerateVectorFile(fsys, "/vec", 23, 32*1024)
	n := 0
	for _, blk := range in.Blocks {
		for _, line := range bytes.Split(blk.Data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			if _, err := ParseSparseVec(line); err != nil {
				t.Fatalf("unparseable vector: %v", err)
			}
			n++
		}
	}
	if n != len(truth) {
		t.Fatalf("%d vectors, %d truth labels", n, len(truth))
	}
}
