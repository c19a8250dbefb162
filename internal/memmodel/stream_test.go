package memmodel

import (
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
)

// TestStreamingMatchesMaterialize is the determinism contract of the
// streaming pipeline: the memo row on every catalog program and model.
// The memo-free two-phase reference collects the executions into a
// slice and analyzes them afterwards; every aggregated field of the
// verdict is a set merged by union and finished by a sort.
func TestStreamingMatchesMaterialize(t *testing.T) {
	checkRow(t, catalogPrograms(), memoMatchesTwoPhase)
}

// TestStreamingRecyclesExecutions pins the bounded-memory half of the
// Visit/Recycle contract: a consumer that hands each execution back via
// Recycle keeps the enumerator on a single Execution object regardless of
// how many executions the program has — no O(#executions) allocation.
func TestStreamingRecyclesExecutions(t *testing.T) {
	p := litmus.ByName("Flags_2")
	if p == nil {
		t.Fatal("no Flags_2 in suite")
	}
	seen := map[*Execution]bool{}
	visits := 0
	var spare *Execution
	_, err := Enumerate(p.Prog.Under(core.DRFrlx), EnumOptions{
		Quantum: true,
		Recycle: func() *Execution {
			ex := spare
			spare = nil
			return ex
		},
		Visit: func(ex *Execution) error {
			seen[ex] = true
			visits++
			spare = ex
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if visits < 2 {
		t.Fatalf("want multiple executions, got %d", visits)
	}
	if len(seen) != 1 {
		t.Errorf("recycling consumer saw %d distinct Executions over %d visits, want 1", len(seen), visits)
	}
}

// TestStreamingStopsOnErrStop: returning ErrStop from Visit ends
// enumeration cleanly after the current execution.
func TestStreamingStopsOnErrStop(t *testing.T) {
	p := litmus.ByName("IRIW")
	if p == nil {
		t.Fatal("no IRIW in suite")
	}
	visits := 0
	execs, err := Enumerate(p.Prog.Under(core.DRFrlx), EnumOptions{
		Quantum: true,
		Visit: func(ex *Execution) error {
			visits++
			if visits == 3 {
				return ErrStop
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("ErrStop must not surface as an error: %v", err)
	}
	if execs != nil {
		t.Errorf("streaming enumeration must not materialize executions, got %d", len(execs))
	}
	if visits != 3 {
		t.Errorf("visits after ErrStop: got %d, want 3", visits)
	}
}
