package bdb

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/core"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/enginetest"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/mr"
	"github.com/datampi/datampi-go/internal/rdd"
	"github.com/datampi/datampi-go/internal/sched"
)

// grepCases are patterns the byte-set scan must take (the three fig3-scan
// patterns among them) and patterns that must fall back to FindAll.
var grepCases = []struct {
	pattern string
	scan    bool
}{
	{`th[ae]`, true}, {`qzqzq`, true}, {`[a-z]+`, true},
	{`(?i)the`, true}, {`(?i)THE`, true}, {`(th[ae])`, true}, {`th[ae]+`, true}, {`[a-z]{2,}`, true},
	{`x[0-9]*`, true}, {`a{2}`, true}, {`[Kk]`, true}, {`(?U)a+?`, true},
	// Fold orbits that leave ASCII: K, k and U+212A; S, s and U+017F.
	{`(?i)k`, false}, {`(?i)s`, false}, {`(?i)[a-z]+`, false}, {`[a-zé]+`, false},
	{`.`, false}, {`(?s).+`, false}, {`[^ ]+`, false}, {`[^ ]+ [^ ]+`, false}, {`\x{fffd}+`, false},
	{`a+?`, false}, {`(?U)a+`, false}, {`[a-z]+x`, false}, {`(ab)+`, false}, {`a{2,3}`, false},
	{`bb|b+c`, false}, {`a|ab|abc`, false}, {`abc|ab|a`, false}, {`(a)(b)?`, false},
	{`^the`, false}, {`e$`, false}, {`\bth`, false}, {`a\B`, false}, {`(?m)^a`, false}, {`(?m)a$`, false},
	{`\Aa`, false}, {`a\z`, false}, {`(x|\b)a`, false},
	{`a*`, false}, {`x?`, false}, {``, false}, {`(a|)`, false}, {`a{0,2}`, false}, {`(?:)`, false},
}

var grepLines = []string{
	"", "the", "the thea that theatre", "then the father bathes", "bbbc bbc bb b", "abcabcab",
	"THE the tHe", "x", "aaa", "  two  spaces  ", "th\xffe tha\xc3", "\xe2\x82", "日本語 the テキスト tha",
	"a\nb\nthe\n", "��\xff",
	// A stray lead byte matches \x{fffd}; the same byte opening a whole
	// rune further left does not (found by the fuzzer).
	"テ\xe3", "é\xc3 \xc3é",
	// Non-ASCII members of ASCII letters' fold orbits, and a stray lead
	// byte between matches.
	"K Kk kelvin x42 x", "ſ ſs Sſ aa", "th\xc3e the\xc3the x9\xc3",
}

// checkGrep compares the map function GrepSpec installs with
// re.FindAll(line, -1), match for match.
func checkGrep(t *testing.T, pattern string, line []byte) {
	t.Helper()
	re, err := regexp.Compile(pattern)
	if err != nil {
		t.Skip("pattern does not compile")
	}
	want := re.FindAll(line, -1)
	var got [][]byte
	grepMap(re)(nil, line, func(k, v []byte) {
		if string(v) != "1" {
			t.Fatalf("%q on %q: emitted value %q, want 1", pattern, line, v)
		}
		got = append(got, k)
	})
	_, scan := byteSetsOf(pattern)
	if len(got) != len(want) {
		t.Fatalf("%q on %q (scan %v): %d matches %q, FindAll has %d %q", pattern, line, scan, len(got), got, len(want), want)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%q on %q (scan %v): match %d is %q, FindAll has %q", pattern, line, scan, i, got[i], want[i])
		}
	}
}

func FuzzGrepMatchesFindAll(f *testing.F) {
	for _, c := range grepCases {
		for _, ln := range grepLines {
			f.Add(c.pattern, []byte(ln))
		}
	}
	f.Add(`th[ae`, []byte("does not compile"))
	text := LDAWiki1W().GenerateText(3, 2<<10)
	for _, p := range []string{`th[ae]`, `[a-z]+`, `qzqzq`, `\bth`, `e$`} {
		f.Add(p, text)
	}
	f.Fuzz(func(t *testing.T, pattern string, line []byte) {
		checkGrep(t, pattern, line)
	})
}

// TestGrepWalkerChoice: the decision made once per spec. Every pattern
// the benchmark, the harness and the examples use is a byte-set program;
// alternations, '.', negated or non-ASCII classes, fold orbits leaving
// ASCII, lazy or non-final repeats, assertions and anything able to match
// the empty string keep FindAll.
func TestGrepWalkerChoice(t *testing.T) {
	for _, c := range grepCases {
		if _, got := byteSetsOf(c.pattern); got != c.scan {
			t.Errorf("%q: byte-set program = %v, want %v", c.pattern, got, c.scan)
		}
	}
}

// TestGrepMapAllocs: on byte-set programs a line costs no allocation,
// however many matches it has (FindAll built a [][]byte per matching line
// and a capture slice per match). qzqzq is fig3-scan's no-match pattern.
func TestGrepMapAllocs(t *testing.T) {
	lines := bytes.Split(bytes.TrimSuffix(LDAWiki1W().GenerateText(17, 16<<10), newline), newline)
	for _, pattern := range []string{`th[ae]`, `[a-z]+`, `(?i)the`, `qzqzq`} {
		m := GrepSpec(nil, nil, "", pattern, 1).Map
		matches := 0
		count := func(k, v []byte) { matches++ }
		i := 0
		allocs := testing.AllocsPerRun(len(lines), func() {
			m(nil, lines[i%len(lines)], count)
			i++
		})
		if matches == 0 && pattern != `qzqzq` {
			t.Fatalf("%q matched nothing in %d lines", pattern, len(lines))
		}
		if allocs != 0 {
			t.Errorf("%q: %v allocs per line (%d matches in %d lines), want 0", pattern, allocs, matches, i)
		}
	}
}

var grepSink int

// BenchmarkGrepMap runs the Grep map function over one 64 KB block at the
// three selectivities fig3-scan uses, plus one pattern that takes the
// FindAll fallback.
func BenchmarkGrepMap(b *testing.B) {
	text := LDAWiki1W().GenerateText(19, 64<<10)
	lines := bytes.Split(bytes.TrimSuffix(text, newline), newline)
	for _, pattern := range []string{`th[ae]`, `qzqzq`, `[a-z]+`, `\bth[ae]`} {
		b.Run(pattern, func(b *testing.B) {
			m := GrepSpec(nil, nil, "", pattern, 1).Map
			count := func(k, v []byte) { grepSink++ }
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for b.Loop() {
				for _, ln := range lines {
					m(nil, ln, count)
				}
			}
		})
	}
}

// TestGrepBadPatternIsAnAccountedError: a pattern that does not compile
// used to panic in GrepSpec, at job-description time. It now fails the
// job on every engine, run solo or through a queue, and sequentially:
// Result.Err set, nothing charged, nothing left behind.
func TestGrepBadPatternIsAnAccountedError(t *testing.T) {
	const pattern = `th[ae`
	for name, mk := range map[string]func(*dfs.FS) enginetest.Engine{
		"Hadoop":  func(fsys *dfs.FS) enginetest.Engine { return mr.New(fsys, mr.DefaultConfig()) },
		"Spark":   func(fsys *dfs.FS) enginetest.Engine { return rdd.New(fsys, rdd.DefaultConfig()) },
		"DataMPI": func(fsys *dfs.FS) enginetest.Engine { return core.New(fsys, core.DefaultConfig()) },
	} {
		fsys := freshFS(16*cluster.KB, 1)
		in := GenerateTextFile(fsys, "/in", LDAWiki1W(), 5, 32*1024)
		spec := GrepSpec(fsys, in, "/out", pattern, 4)
		if spec.Err == nil || !strings.Contains(spec.Err.Error(), "th[ae") {
			t.Fatalf("GrepSpec(%q).Err = %v, want the compile error", pattern, spec.Err)
		}
		if _, err := job.RunSequential(spec); err == nil {
			t.Fatal("RunSequential ran a spec that could not be built")
		}
		eng := mk(fsys)
		c := eng.Cluster()
		res := eng.Run(spec)
		if res.Err == nil || res.Job != "Grep" || res.Engine != name {
			t.Fatalf("%s solo: result %+v, want Grep failed with the compile error", name, res)
		}
		if res.Elapsed != 0 || c.Eng.Now() != 0 {
			t.Fatalf("%s solo: a rejected job took %.1f s (clock at %.1f)", name, res.Elapsed, c.Eng.Now())
		}
		q := sched.NewQueue(c.Eng, c.N(), sched.FIFO)
		q.Admit("", q.Now(), 1, eng, spec)
		good := GrepSpec(fsys, in, "/good", `th[ae]`, 4)
		q.Admit("", q.Now(), 1, eng, good)
		results := q.Run()
		if results[0].Err == nil {
			t.Fatalf("%s queued: the bad-pattern job succeeded", name)
		}
		if results[1].Err != nil {
			t.Fatalf("%s queued: the job behind the rejected one failed: %v", name, results[1].Err)
		}
		enginetest.AssertMatchesSequential(t, fsys, "/good", good)
		if len(fsys.ListPrefix("/out")) != 0 {
			t.Fatalf("%s: the rejected job wrote output", name)
		}
		enginetest.AssertQuiesced(t, eng)
	}
}

// oldSampleSortBoundaries is SampleSortBoundaries as it was: bytes.Split
// over every sampled block to keep every ls-th line.
func oldSampleSortBoundaries(in *dfs.File, parts int) [][]byte {
	var sample [][]byte
	stride := 1 + len(in.Blocks)/8
	for bi := 0; bi < len(in.Blocks); bi += stride {
		lines := bytes.Split(in.Blocks[bi].Data, []byte("\n"))
		ls := 1 + len(lines)/200
		for i := 0; i < len(lines); i += ls {
			if len(lines[i]) > 0 {
				sample = append(sample, lines[i])
			}
		}
	}
	return kv.SampleBoundaries(sample, parts)
}

// TestSampleSortBoundariesMatchesOld: the boundaries decide which reducer
// gets which key, so they are part of every Text Sort's simulated
// numbers; the lazy line walk must not move one of them.
func TestSampleSortBoundariesMatchesOld(t *testing.T) {
	files := map[string]*dfs.File{}
	for _, size := range []float64{3 * 1024, 48 * 1024, 400 * 1024} {
		for _, block := range []float64{4 * cluster.KB, 16 * cluster.KB, 64 * cluster.KB} {
			fsys := freshFS(block, 1)
			files[fmt.Sprintf("generated %v bytes in %v-byte blocks", size, block)] =
				GenerateTextFile(fsys, "/in", LDAWiki1W(), int64(size+block), size)
		}
	}
	for _, data := range []string{"", "no trailing newline", "\n\n", "\n", "a\n", "a\n\nb", "b\na\n\n\nc\n"} {
		files["edge/"+data] = freshFS(cluster.KB, 1).PreloadParts("/in", [][]byte{[]byte(data)})
	}
	// 450 lines in one block: a stride of 3, the last line sampled.
	files["stride"] = freshFS(cluster.MB, 1).PreloadParts("/in", [][]byte{bytes.Repeat([]byte("k\n"), 450)[:899]})
	files["no blocks"] = &dfs.File{}
	for name, in := range files {
		for _, parts := range []int{1, 2, 8, 33} {
			got, want := SampleSortBoundaries(in, parts), oldSampleSortBoundaries(in, parts)
			if len(got) != len(want) {
				t.Fatalf("%s, %d parts: %d boundaries, old sampler has %d", name, parts, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s, %d parts: boundary %d is %q, old sampler has %q", name, parts, i, got[i], want[i])
				}
			}
		}
	}
}

// oldSeqBlock is one block of ToSeqFile as it was: bytes.Split into
// pairs, kv.EncodeAll, and a gzip writer of its own.
func oldSeqBlock(t *testing.T, text []byte) []byte {
	t.Helper()
	var pairs []kv.Pair
	for _, line := range bytes.Split(text, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		pairs = append(pairs, kv.Pair{Key: line, Value: line})
	}
	var zbuf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&zbuf, gzip.DefaultCompression)
	if _, err := zw.Write(kv.EncodeAll(pairs)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return zbuf.Bytes()
}

// TestToSeqFileMatchesOld: workers that each reuse one compressor across
// their blocks write, at any GOMAXPROCS, the bytes a compressor per block
// wrote one block after another — the Normal Sort input, and with it
// every Normal Sort digest, is unchanged.
func TestToSeqFileMatchesOld(t *testing.T) {
	fsys := freshFS(8*cluster.KB, 1)
	text := GenerateTextFile(fsys, "/text", LDAWiki1W(), 23, 64*1024)
	// Blocks of every shape after the generated ones: empty, blank lines
	// only, no trailing newline, interior blank lines.
	fsys.PreloadParts("/edges", [][]byte{nil, []byte("\n\n\n"), []byte("no trailing newline"), []byte("a\n\nb\n\n"), []byte("z\n")})
	// Files of no block, one block, and more blocks than any worker count.
	fsys.PreloadParts("/none", nil)
	fsys.PreloadParts("/one", [][]byte{text.Blocks[0].Data})
	var many [][]byte
	for i := range 57 {
		blk := text.Blocks[i%len(text.Blocks)].Data
		many = append(many, blk[:len(blk)*(i+1)/57])
	}
	fsys.PreloadParts("/many", many)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, name := range []string{"/text", "/edges", "/none", "/one", "/many"} {
			src, err := fsys.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := ToSeqFile(fsys, name, name+".seq")
			if err != nil {
				t.Fatal(err)
			}
			if len(seq.Blocks) != len(src.Blocks) {
				t.Fatalf("%s: %d seq blocks from %d text blocks", name, len(seq.Blocks), len(src.Blocks))
			}
			for i, blk := range src.Blocks {
				if want := oldSeqBlock(t, blk.Data); !bytes.Equal(seq.Blocks[i].Data, want) {
					t.Fatalf("%s block %d at GOMAXPROCS %d: %d bytes differ from the %d a fresh gzip writer produces", name, i, procs, len(seq.Blocks[i].Data), len(want))
				}
			}
		}
	}
}

// TestEachBlockReturnsWorkerError: one block failing fails the call, with
// that block's error, after every worker has exited; blocks not yet
// started are not run.
func TestEachBlockReturnsWorkerError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	before := runtime.NumGoroutine()
	boom := errors.New("block 5 is bad")
	var ran, workers atomic.Int64
	err := eachBlock(1000, func() func(int) error {
		workers.Add(1)
		return func(i int) error {
			ran.Add(1)
			if i == 5 {
				return boom
			}
			return nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("eachBlock returned %v, want the failing block's error", err)
	}
	if workers.Load() != 4 {
		t.Fatalf("%d workers for 1000 blocks at GOMAXPROCS 4", workers.Load())
	}
	if ran.Load() == 1000 {
		t.Fatal("every block ran after one failed")
	}
	// A worker has called Done by now; give it the moment it needs to
	// finish exiting.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the call, %d before it", runtime.NumGoroutine(), before)
		}
	}
	if err := eachBlock(0, func() func(int) error { t.Error("a worker started for no blocks"); return nil }); err != nil {
		t.Fatal(err)
	}
}
