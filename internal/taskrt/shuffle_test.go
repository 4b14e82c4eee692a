package taskrt

import (
	"math"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/metrics"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/trace"
)

// runAttempt runs body as one task attempt on node and drives the
// simulation to completion.
func runAttempt(t *testing.T, c *cluster.Cluster, tr *trace.Tracer, node int, body func(p *sim.Proc, att *sched.Attempt)) {
	t.Helper()
	ctl := sched.Solo(c.Eng, c.N())
	ctl.Tracker().SetTracer(tr)
	ctl.Launch(sched.TaskSpec{
		Name: "consumer", Node: node, Pool: ctl.Pool("test", 1), Group: "test",
		Body: func(p *sim.Proc, att *sched.Attempt) (any, error) {
			body(p, att)
			return nil, nil
		},
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFetch(t *testing.T) {
	const nominal, records = 64 * cluster.MB, 1e5
	hw := cluster.New(cluster.DefaultHardware())
	diskSecs := nominal / hw.Node(0).Disk.Capacity()
	wireSecs := nominal / hw.HW.NetLinkBW
	cases := []struct {
		name     string
		src, dst int
		staged   bool
		srcDown  bool
		wantSecs func(got float64) bool
		wantWire float64 // staged wire bytes
	}{
		{name: "local", src: 2, dst: 2, wantSecs: func(got float64) bool { return got == diskSecs }},
		// The slower of the overlapped disk read and fabric flow.
		{name: "remote", src: 1, dst: 2, wantSecs: func(got float64) bool { return got >= wireSecs && got < diskSecs+wireSecs }},
		// Staged: deserialize on the consumer follows the wire.
		{name: "staged remote", src: 1, dst: 2, staged: true, wantWire: nominal,
			wantSecs: func(got float64) bool { return got > wireSecs }},
		// Staged local: no wire, but the consumer still deserializes.
		{name: "staged local", src: 2, dst: 2, staged: true,
			wantSecs: func(got float64) bool { return got >= diskSecs }},
		// Fetch never consults liveness — the engines route around a dead
		// source first, each with its own recovery (refetch, recompute,
		// inline regenerate) — so a fetch that slips through still
		// terminates and charges like any other instead of hanging.
		{name: "dead source", src: 1, dst: 2, srcDown: true, wantSecs: func(got float64) bool { return got >= wireSecs }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, b := testBase()
			b.Prof = metrics.NewProfiler(c, 1)
			b.Transport().SetEnabled(tc.staged)
			if tc.srcDown {
				c.NodeDown(tc.src)
			}
			tr := trace.New(trace.Config{})
			var secs float64
			runAttempt(t, c, tr, tc.dst, func(p *sim.Proc, att *sched.Attempt) {
				f := b.Fetches(p, att, "m")
				start := c.Eng.Now()
				f.Fetch(7, tc.src, nominal, records, 0)
				secs = c.Eng.Now() - start
				if p.BlockReason != "" {
					t.Errorf("BlockReason %q left set after Fetch", p.BlockReason)
				}
				f.Fetch(8, tc.src, nominal, records, 0)
				f.Done()
			})
			if !tc.wantSecs(secs) {
				t.Fatalf("fetch took %.4fs (disk alone %.4fs, wire alone %.4fs)", secs, diskSecs, wireSecs)
			}
			if got := b.Transport().Stats().BytesWire; got != 2*tc.wantWire {
				t.Fatalf("staged wire bytes = %.0f, want %.0f", got, 2*tc.wantWire)
			}
			if rx := c.Net.RxIntegral(tc.dst); (rx > 0) != (tc.src != tc.dst) {
				t.Fatalf("fabric delivered %.0f bytes to node %d for a fetch from node %d", rx, tc.dst, tc.src)
			}
			// The chain: attempt <- fetch 8 <- fetch 7, both "net" spans
			// under the attempt, named after the producer.
			net := tr.FindByCat("net")
			if len(net) != 2 || net[0].Name != "fetch:m7" || net[1].Name != "fetch:m8" {
				t.Fatalf("fetch spans: %+v", net)
			}
			att := tr.Span(net[0].Parent)
			if att == nil || len(net[1].Deps) != 1 || net[1].Deps[0] != net[0].ID ||
				len(att.Deps) == 0 || att.Deps[len(att.Deps)-1] != net[1].ID {
				t.Fatalf("fetch chain broken: attempt %+v, fetches %+v %+v", att, net[0], net[1])
			}
		})
	}
}

// bufferBalance pushes fetch sizes through a Buffer the way a reduce task
// does and checks its conservation laws: every byte added is in memory or
// spilled, memory is charged for exactly the buffered bytes, the spill
// threshold is honoured, and Release returns the account to where it
// started.
func bufferBalance(t *testing.T, capBytes float64, fetches []float64, charge bool) {
	t.Helper()
	c, b := testBase()
	b.Prof = metrics.NewProfiler(c, 1)
	mem := c.Node(3).Mem
	mem.MustAlloc(1 * cluster.MB) // the task's own heap: the buffer must not free it
	base := mem.Used()
	runAttempt(t, c, nil, 3, func(p *sim.Proc, att *sched.Attempt) {
		var bufMem *sim.Memory
		if charge {
			bufMem = mem
		}
		buf := b.Buffer(p, 3, capBytes, bufMem)
		fetched, spilled := 0.0, 0.0
		for i, n := range fetches {
			fetched += n
			s := buf.Add(n)
			spilled += s
			if (s > 0) != (buf.buffered == 0 && n > 0 && s > capBytes) {
				t.Fatalf("fetch %d of %.0f: spilled %.0f, buffered %.0f, cap %.0f", i, n, s, buf.buffered, capBytes)
			}
			if buf.buffered > capBytes {
				t.Fatalf("fetch %d: %.0f bytes buffered past the %.0f cap", i, buf.buffered, capBytes)
			}
			if math.Abs(buf.Total()-fetched) > 1e-6*fetched || buf.spilled != spilled {
				t.Fatalf("fetch %d: buffered %.0f + spilled %.0f != fetched %.0f", i, buf.buffered, buf.spilled, fetched)
			}
			want := base
			if charge {
				want += buf.buffered
			}
			if math.Abs(mem.Used()-want) > 1 {
				t.Fatalf("fetch %d: %.0f bytes charged, want %.0f", i, mem.Used(), want)
			}
		}
		var wg sim.WaitGroup
		start := c.Eng.Now()
		buf.StartReadBack(&wg)
		wg.WaitAs(p, "disk")
		if read := c.Eng.Now() > start; read != (spilled > 0) {
			t.Fatalf("read-back ran=%v with %.0f bytes spilled", read, spilled)
		}
		buf.Release()
		buf.Release() // idempotent: tasks defer it and also call it on restart
	})
	if math.Abs(mem.Used()-base) > 1 {
		t.Fatalf("memory at %.0f after Release, started at %.0f", mem.Used(), base)
	}
}

func TestBufferBalance(t *testing.T) {
	const kb = cluster.KB
	for name, tc := range map[string]struct {
		cap     float64
		fetches []float64
	}{
		"never fills":       {64 * kb, []float64{kb, 2 * kb, 3 * kb}},
		"exactly at cap":    {6 * kb, []float64{kb, 2 * kb, 3 * kb}},
		"one byte past":     {6*kb - 1, []float64{kb, 2 * kb, 3 * kb, kb}},
		"every fetch":       {kb, []float64{2 * kb, 2 * kb, 2 * kb}},
		"spill then refill": {4 * kb, []float64{3 * kb, 3 * kb, kb, kb, 3 * kb, 0, kb}},
		"empty fetches":     {4 * kb, []float64{0, 0, 0}},
		"no fetches":        {4 * kb, nil},
		"unlimited":         {math.Inf(1), []float64{1e9, 1e9}},
	} {
		for _, charge := range []bool{true, false} {
			t.Run(name, func(t *testing.T) { bufferBalance(t, tc.cap, tc.fetches, charge) })
		}
	}
}

// FuzzBufferBalance derives a threshold and a fetch sequence hovering
// around it from the fuzz input.
func FuzzBufferBalance(f *testing.F) {
	f.Add(uint16(4096), []byte{1, 2, 3})
	f.Add(uint16(1), []byte{0, 255, 0, 255})
	f.Add(uint16(1000), []byte{250, 250, 250, 250, 1})
	f.Add(uint16(65535), []byte{})
	f.Add(uint16(300), []byte{128, 127, 129, 64, 200, 7, 7, 7})
	f.Fuzz(func(t *testing.T, capBytes uint16, sizes []byte) {
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		fetches := make([]float64, len(sizes))
		for i, s := range sizes {
			// 0 .. 2x the cap in 1/128 steps, so sums land on, just under
			// and just over the threshold.
			fetches[i] = float64(s) / 128 * float64(capBytes)
		}
		bufferBalance(t, float64(capBytes), fetches, len(sizes)%2 == 0)
	})
}
