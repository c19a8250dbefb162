package memmodel

import (
	"strings"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
)

func TestFindWitnessDataRace(t *testing.T) {
	w, err := FindWitness(litmus.MPData(), core.DRF0)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("MPData must yield a witness")
	}
	if w.Kind != DataRace {
		t.Errorf("kind = %v", w.Kind)
	}
	out := w.String()
	for _, want := range []string{"data race", "witness SC execution", "X =", "Y =", "final state", "diagnosis"} {
		if !strings.Contains(out, want) {
			t.Errorf("witness missing %q:\n%s", want, out)
		}
	}
}

func TestFindWitnessLegalIsNil(t *testing.T) {
	w, err := FindWitness(litmus.WorkQueue(), core.DRFrlx)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Fatalf("legal program produced a witness: %v", w)
	}
}

func TestWitnessKindsAndDiagnoses(t *testing.T) {
	for _, tc := range []struct {
		prog     *litmus.Program
		kind     RaceKind
		diagnose string
	}{
		{litmus.EventCounterNonCommutative(), CommutativeRace, "do not commute"},
		{litmus.EventCounterObserved(), CommutativeRace, "observed"},
		{litmus.Figure2a(), NonOrderingRace, "ordering path"},
		{litmus.QuantumMixed(), QuantumRace, "quantum access"},
		{litmus.SeqlocksWW(), SpeculativeRace, "two racing stores"},
		{litmus.SeqlocksUnchecked(), SpeculativeRace, "observed"},
	} {
		w, err := FindWitness(tc.prog, core.DRFrlx)
		if err != nil {
			t.Fatal(err)
		}
		if w == nil {
			t.Errorf("%s: no witness", tc.prog.Name)
			continue
		}
		if w.Kind != tc.kind {
			t.Errorf("%s: kind %v, want %v", tc.prog.Name, w.Kind, tc.kind)
		}
		if !strings.Contains(w.String(), tc.diagnose) {
			t.Errorf("%s: diagnosis missing %q:\n%s", tc.prog.Name, tc.diagnose, w.String())
		}
	}
}

// TestWitnessPairReallyRaces: the reported pair must be conflicting,
// cross-thread, and hb1-unordered in the witness execution.
func TestWitnessPairReallyRaces(t *testing.T) {
	for _, prog := range []*litmus.Program{
		litmus.MPData(), litmus.Figure2a(), litmus.QuantumMixed(), litmus.SeqlocksWW(),
	} {
		w, err := FindWitness(prog, core.DRFrlx)
		if err != nil {
			t.Fatal(err)
		}
		if w == nil {
			t.Fatalf("%s: no witness", prog.Name)
		}
		r := new(analyzer).buildRelations(w.Exec)
		if !r.Race.Has(w.Pair[0], w.Pair[1]) {
			t.Errorf("%s: witness pair %v is not racing", prog.Name, w.Pair)
		}
	}
}

// TestClassicShapes: the new classic litmus entries behave as documented
// in the system-centric model, too.
func TestClassicShapes(t *testing.T) {
	// LB paired: r0=r1=1 impossible in both SC and system model.
	sys, err := systemSearch(litmus.LB("lb", core.Paired).Under(core.DRFrlx), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys.results["OUT0=1;OUT1=1;X=1;Y=1;"] {
		t.Error("paired LB produced the forbidden 1,1 outcome")
	}
	// 2+2W same-value commutative: final state unique regardless of order.
	v, err := CheckProgram(litmus.TwoPlusTwoW("w", core.Commutative, 7, 7), core.DRFrlx)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Legal {
		t.Error("same-value commutative stores must be legal")
	}
	if len(v.SCResults) != 1 {
		t.Errorf("same-value 2+2W has %d results, want 1", len(v.SCResults))
	}
}
