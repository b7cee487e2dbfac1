package report

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"ixplight/internal/ixpgen"
)

// TestExpAllParallelMatchesSequential pins the engine's central
// guarantee: the full `-exp all` battery over the seeded big-four
// workload produces byte-identical output from a 1-worker lab
// (experiments run one after another) and a 4-worker lab (experiment
// fan-out). The analyses themselves are pinned to the direct-classify
// oracle in internal/analysis (TestWrappersMatchOracle). `make check`
// runs this under -race, so it also exercises the index and pool
// concurrently.
func TestExpAllParallelMatchesSequential(t *testing.T) {
	// Scale keeps the two full `-exp all` batteries (with table4's
	// 84-day series per IXP) affordable under -race.
	const (
		seed  = 42
		scale = 0.004
	)
	profiles := ixpgen.BigFour()
	seqLab, err := NewLabParallel(profiles, seed, scale, 1)
	if err != nil {
		t.Fatalf("sequential lab: %v", err)
	}
	seqOuts, err := seqLab.RunMany(ExperimentNames)
	if err != nil {
		t.Fatalf("sequential RunMany: %v", err)
	}

	parLab, err := NewLabParallel(profiles, seed, scale, 4)
	if err != nil {
		t.Fatalf("parallel lab: %v", err)
	}
	parOuts, err := parLab.RunMany(ExperimentNames)
	if err != nil {
		t.Fatalf("parallel RunMany: %v", err)
	}

	if len(seqOuts) != len(ExperimentNames) || len(parOuts) != len(ExperimentNames) {
		t.Fatalf("outputs: sequential %d, parallel %d, want %d",
			len(seqOuts), len(parOuts), len(ExperimentNames))
	}
	for i, name := range ExperimentNames {
		if len(seqOuts[i]) == 0 {
			t.Errorf("%s: empty sequential output", name)
		}
		if !bytes.Equal(seqOuts[i], parOuts[i]) {
			t.Errorf("%s: parallel output differs from sequential (%d vs %d bytes)",
				name, len(parOuts[i]), len(seqOuts[i]))
		}
	}
}

// TestRunPoolErrorSemantics pins the pool's sequential-compatible
// error behaviour: the lowest failing index wins regardless of worker
// count, and RunMany keeps exactly the outputs preceding it.
func TestRunPoolErrorSemantics(t *testing.T) {
	failAt := map[int]bool{3: true, 7: true}
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		idx, err := runPool(10, workers, func(i int) error {
			ran.Add(1)
			if failAt[i] {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if idx != 3 || err == nil || err.Error() != "task 3 failed" {
			t.Errorf("workers=%d: got (%d, %v), want lowest failure (3, task 3 failed)", workers, idx, err)
		}
		if workers == 1 && ran.Load() != 4 {
			t.Errorf("sequential pool ran %d tasks, want 4 (stop at first error)", ran.Load())
		}
	}

	if idx, err := runPool(0, 4, func(int) error { return errors.New("never") }); idx != 0 || err != nil {
		t.Errorf("empty pool: got (%d, %v)", idx, err)
	}
}

// TestRunManyTruncatesAtError checks the documented failure contract:
// outputs before the failing experiment survive, the rest are
// dropped.
func TestRunManyTruncatesAtError(t *testing.T) {
	l := testLab(t)
	outs, err := l.RunMany([]string{"fig1", "definitely-not-an-experiment", "fig2"})
	if err == nil {
		t.Fatal("want error for unknown experiment")
	}
	if len(outs) != 1 {
		t.Fatalf("got %d outputs, want 1 (only the experiment before the failure)", len(outs))
	}
	if len(outs[0]) == 0 {
		t.Error("fig1 output empty")
	}
}
