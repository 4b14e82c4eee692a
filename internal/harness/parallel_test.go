package harness

import (
	"errors"
	"fmt"
	"testing"
)

// TestSweepOrderAndErrors pins the runner's contract: results come back
// in index order regardless of scheduling, and the reported error is the
// failing item with the smallest index.
func TestSweepOrderAndErrors(t *testing.T) {
	out, err := sweep(100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	_, err = sweep(10, func(i int) (int, error) {
		if i == 7 || i == 3 {
			return 0, fmt.Errorf("item %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "item 3 failed" {
		t.Fatalf("err = %v, want the smallest failing index (3)", err)
	}
	if _, err := sweep(0, func(i int) (int, error) { return 0, errors.New("never") }); err != nil {
		t.Fatalf("empty sweep errored: %v", err)
	}
}

// TestSweepWorkerCap checks SetWorkers clamping.
func TestSweepWorkerCap(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	if w := Workers(8); w != 2 {
		t.Fatalf("Workers(8) = %d with cap 2", w)
	}
	if w := Workers(1); w != 1 {
		t.Fatalf("Workers(1) = %d", w)
	}
	SetWorkers(0)
	if w := Workers(1); w != 1 {
		t.Fatalf("Workers(1) = %d with default cap", w)
	}
}

// TestParallelSweepByteIdentical is the determinism pin: a figure table
// and the fault sweep must render byte-identically with one worker (the
// sequential path) and with many. Options carry no memo here, so each
// Run measures into its own and the second run is a real second run.
func TestParallelSweepByteIdentical(t *testing.T) {
	defer SetWorkers(0)
	for _, id := range []string{"fig3b", "faultsweep"} {
		exp, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		SetWorkers(1)
		seq, err := exp.Run(Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		SetWorkers(8)
		par, err := exp.Run(Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if seq.Render() != par.Render() {
			t.Fatalf("%s diverges between 1 and 8 workers:\n--- sequential\n%s--- parallel\n%s",
				id, seq.Render(), par.Render())
		}
	}
}
