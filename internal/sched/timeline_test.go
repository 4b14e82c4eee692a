package sched_test

import (
	"testing"

	"github.com/datampi/datampi-go/internal/core"
	"github.com/datampi/datampi-go/internal/sched"
)

// TestTimelineSameTimestampOrder pins Timeline's tie-break: events
// sharing a timestamp come back in insertion order (the stable sort
// contract scenario reports rely on), while differing timestamps sort
// by time regardless of declaration order.
func TestTimelineSameTimestampOrder(t *testing.T) {
	fs, jobs := testRig(t, 41)
	q := sched.NewQueue(fs.Cluster().Eng, fs.Cluster().N(), sched.FIFO)
	eng := core.New(fs, core.DefaultConfig())
	q.Admit("", q.Now(), 1, eng, jobs[0])

	// Three events at the same future instant, declared in a known order,
	// plus an earlier event declared last.
	q.At(5, "first-at-5", func() {})
	q.At(5, "second-at-5", func() {})
	q.At(5, "third-at-5", func() {})
	q.At(2, "early-at-2", func() {})

	q.Run()

	tl := q.Timeline()
	want := []string{"early-at-2", "first-at-5", "second-at-5", "third-at-5"}
	if len(tl) != len(want) {
		t.Fatalf("timeline has %d entries, want %d: %+v", len(tl), len(want), tl)
	}
	for i, name := range want {
		if tl[i].Name != name {
			t.Fatalf("timeline[%d] = %q, want %q (full: %+v)", i, tl[i].Name, name, tl)
		}
	}
	if tl[0].T != 2 || tl[1].T != 5 || tl[3].T != 5 {
		t.Fatalf("timeline timestamps wrong: %+v", tl)
	}
}
