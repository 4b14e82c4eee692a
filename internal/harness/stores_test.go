package harness

import (
	"testing"

	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/taskrt"
)

// TestFiguresAloneEqualFiguresAfterOthers: a figure's cells do not depend
// on what the process staged (bdb's staging store) or computed (taskrt's
// record store) before it. fig3a (Normal Sort: text streams and seq+gzip
// members), fig6a (K-means: vector files) and fig6b (Naive Bayes:
// labelled documents, and its counting jobs' shared map outputs), each
// run alone on empty stores, render the tables they render when they run
// again after themselves and other figures filled both stores, at seeds
// 1 and 5.
func TestFiguresAloneEqualFiguresAfterOthers(t *testing.T) {
	for _, seed := range []int64{1, 5} {
		opt := Options{Quick: true, Scale: coarse, Seed: seed}
		alone := map[string]string{}
		for _, id := range []string{"fig3a", "fig6a", "fig6b"} {
			func() {
				defer taskrt.EmptyStore()()
				defer bdb.EmptyStage()()
				alone[id] = runExp(t, id, opt).Render()
			}()
		}
		for _, id := range []string{"fig3a", "fig6a", "fig3c", "fig6b", "fig3a", "fig6a", "fig6b"} {
			got := runExp(t, id, opt).Render()
			if want, ok := alone[id]; ok && got != want {
				t.Fatalf("seed %d: %s after other figures:\n%s\nalone on empty stores:\n%s", seed, id, got, want)
			}
		}
	}
}
