package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNilTracerIsDisabled pins the zero-overhead contract: every method
// of a nil *Tracer (and of the nil *Span handles it returns) is a safe
// no-op, so call sites need one pointer comparison and nothing else.
func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.Stages() {
		t.Fatal("nil tracer reports stages on")
	}
	sp := tr.Begin("x", "task", 0, 0, 1)
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	sp.EndAt(2)
	sp.Annotate("k", "v").DepOn(7)
	if sp.SpanID() != 0 {
		t.Fatal("nil span has a nonzero ID")
	}
	tr.BeginChild(nil, "y", "task", 0, 0, 1)
	tr.Instant("i", "fault", 0, 1)
	tr.Counter("c", 0, 1, 2)
	if lane := tr.AcquireLane(3); lane != 0 {
		t.Fatalf("nil tracer lane = %d, want 0", lane)
	}
	tr.ReleaseLane(3, 0)
	if tr.Len() != 0 || tr.Span(1) != nil || len(tr.Instants()) != 0 || len(tr.Counters()) != 0 {
		t.Fatal("nil tracer recorded something")
	}
	tr.Each(func(*Span) { t.Fatal("nil tracer iterated a span") })
	if segs := tr.CriticalPath(1); segs != nil {
		t.Fatal("nil tracer produced a critical path")
	}
	if tr.PhaseBreakdown(1) != nil {
		t.Fatal("nil tracer produced a phase breakdown")
	}
}

// TestArenaStability pins the arena contract: span pointers stay valid
// across block growth and IDs are 1-based creation order.
func TestArenaStability(t *testing.T) {
	tr := New(Config{})
	first := tr.Begin("first", "task", 0, 0, 0)
	for i := 0; i < 3*blockSize; i++ {
		tr.Begin("s", "task", i%8, 0, float64(i))
	}
	if first.ID != 1 || first.Name != "first" {
		t.Fatalf("first span corrupted after growth: %+v", first)
	}
	if tr.Len() != 3*blockSize+1 {
		t.Fatalf("Len = %d, want %d", tr.Len(), 3*blockSize+1)
	}
	if got := tr.Span(1); got != first {
		t.Fatal("Span(1) moved")
	}
	last := tr.Span(uint64(tr.Len()))
	if last == nil || last.ID != uint64(tr.Len()) {
		t.Fatalf("last span lookup broken: %+v", last)
	}
	n := 0
	tr.Each(func(sp *Span) {
		n++
		if sp.ID != uint64(n) {
			t.Fatalf("Each out of ID order: got %d at position %d", sp.ID, n)
		}
	})
}

// TestLanes pins slot-lane assignment: lowest free lane wins and
// released lanes are reused.
func TestLanes(t *testing.T) {
	tr := New(Config{})
	a, b := tr.AcquireLane(2), tr.AcquireLane(2)
	if a != 0 || b != 1 {
		t.Fatalf("lanes = %d,%d, want 0,1", a, b)
	}
	tr.ReleaseLane(2, a)
	if c := tr.AcquireLane(2); c != 0 {
		t.Fatalf("released lane not reused: got %d", c)
	}
	if other := tr.AcquireLane(5); other != 0 {
		t.Fatalf("fresh node lane = %d, want 0", other)
	}
}

// buildDAG records a small known span graph:
//
//	map (1..3) end at 10, 12, 11; fetch depends on map2 (the latest),
//	reduce depends on fetch, job depends on reduce.
func buildDAG() (*Tracer, *Span) {
	tr := New(Config{})
	job := tr.Begin("job:sort", "job", 0, TidDriver, 0)
	m1 := tr.Begin("m1", "task", 0, 0, 0)
	m1.EndAt(10)
	m2 := tr.Begin("m2", "task", 1, 0, 0)
	m2.EndAt(12)
	m3 := tr.Begin("m3", "task", 2, 0, 0)
	m3.EndAt(11)
	fetch := tr.Begin("fetch", "net", 3, 0, 5)
	fetch.DepOn(m1.ID).DepOn(m2.ID).DepOn(m3.ID)
	fetch.EndAt(15)
	red := tr.Begin("reduce", "task", 3, 0, 5)
	red.DepOn(fetch.ID)
	red.EndAt(20)
	job.DepOn(red.ID)
	job.EndAt(20)
	return tr, job
}

// TestCriticalPath checks the walk against the hand-computed answer:
// job contributes nothing (ends with reduce), reduce [15,20], fetch
// [12,15] (waits for m2, the latest map), m2 [0,12].
func TestCriticalPath(t *testing.T) {
	tr, job := buildDAG()
	segs := tr.CriticalPath(job.ID)
	want := []struct {
		name   string
		lo, hi float64
	}{
		{"reduce", 15, 20},
		{"fetch", 12, 15},
		{"m2", 0, 12},
	}
	if len(segs) != len(want) {
		t.Fatalf("got %d segments, want %d: %+v", len(segs), len(want), segs)
	}
	for i, w := range want {
		s := segs[i]
		if s.Span.Name != w.name || s.Start != w.lo || s.End != w.hi {
			t.Fatalf("segment %d = %s [%g,%g], want %s [%g,%g]",
				i, s.Span.Name, s.Start, s.End, w.name, w.lo, w.hi)
		}
	}
	if got := CategorySeconds(segs, "net"); got != 3 {
		t.Fatalf("net seconds = %g, want 3", got)
	}
	if got := CategorySeconds(segs, "task"); got != 17 {
		t.Fatalf("task seconds = %g, want 17", got)
	}
	cats := ByCategory(segs)
	if len(cats) != 2 || cats[0].Cat != "task" || cats[1].Cat != "net" {
		t.Fatalf("ByCategory order wrong: %+v", cats)
	}
	top := TopSegments(segs, 2)
	if len(top) != 2 || top[0].Span.Name != "m2" || top[1].Span.Name != "reduce" {
		t.Fatalf("TopSegments wrong: %+v", top)
	}
	out := RenderPath(segs, 3)
	for _, frag := range []string{"critical path:", "net", "task", "m2"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("RenderPath missing %q:\n%s", frag, out)
		}
	}
}

// TestPhaseBreakdown pins span-derived phase accounting.
func TestPhaseBreakdown(t *testing.T) {
	tr := New(Config{})
	job := tr.Begin("job:x", "job", 0, TidDriver, 0)
	job.EndAt(30)
	m := tr.BeginChild(job, "map", "phase", 0, TidDriver, 0)
	m.EndAt(18)
	r := tr.BeginChild(job, "reduce", "phase", 0, TidDriver, 18)
	r.EndAt(30)
	other := tr.Begin("map", "phase", 0, TidDriver, 0) // different (no) parent
	other.EndAt(5)
	ph := tr.PhaseBreakdown(job.ID)
	if len(ph) != 2 || ph["map"] != 18 || ph["reduce"] != 12 {
		t.Fatalf("PhaseBreakdown = %v", ph)
	}
	if js := tr.JobSpan("job:x"); js != job {
		t.Fatal("JobSpan lookup failed")
	}
	if js := tr.JobSpan("job:y"); js != nil {
		t.Fatal("JobSpan matched a missing name")
	}
}

// chromeDoc mirrors the Chrome trace-event JSON array format for the
// structural check.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Ph   string          `json:"ph"`
		Name string          `json:"name"`
		Pid  int             `json:"pid"`
		Tid  int             `json:"tid"`
		Ts   float64         `json:"ts"`
		Dur  float64         `json:"dur"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
}

// TestWriteChromeStructure checks the hand-built JSON parses with
// encoding/json and carries the expected record kinds, and that two
// writes of the same tracer are byte-identical.
func TestWriteChromeStructure(t *testing.T) {
	tr, _ := buildDAG()
	tr.Instant("node-down", "fault", 1, 7, Arg{Key: "why", Val: `quo"te`})
	tr.Counter("jobs.running", 0, 3, 2)
	var b1, b2 bytes.Buffer
	if err := tr.WriteChrome(&b1); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChrome(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two WriteChrome calls differ")
	}
	var doc chromeDoc
	if err := json.Unmarshal(b1.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome JSON: %v\n%s", err, b1.String())
	}
	kinds := map[string]int{}
	for _, e := range doc.TraceEvents {
		kinds[e.Ph]++
	}
	if kinds["X"] != 6 {
		t.Fatalf("complete events = %d, want 6 (kinds %v)", kinds["X"], kinds)
	}
	if kinds["i"] != 1 || kinds["C"] != 1 || kinds["M"] == 0 {
		t.Fatalf("record kinds wrong: %v", kinds)
	}
}

// TestConfigKnobs pins the volume knobs: NoStages gates Stages(),
// NoCounters drops samples.
func TestConfigKnobs(t *testing.T) {
	tr := New(Config{NoStages: true, NoCounters: true})
	if tr.Stages() {
		t.Fatal("NoStages tracer reports stages on")
	}
	tr.Counter("c", 0, 1, 2)
	if len(tr.Counters()) != 0 {
		t.Fatal("NoCounters tracer recorded a sample")
	}
	if !tr.Enabled() {
		t.Fatal("configured tracer not enabled")
	}
}
