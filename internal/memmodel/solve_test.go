package memmodel

import (
	"reflect"
	"testing"
	"time"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel/telemetry"
)

// TestSolveContendedCompletesFast pins the solver's performance claim:
// the 7-thread contended program — whose interleaving count makes full
// enumeration intractable (it is the deadline-machinery worst case in
// exec_ctx_test.go) — must resolve through the solver in milliseconds
// with the exact verdict. The assertion bound is generous for CI noise;
// the bench suite carries the precise numbers.
func TestSolveContendedCompletesFast(t *testing.T) {
	p := contendedProgram(7, 3)
	start := time.Now()
	v, err := solveCheck(p, core.DRFrlx, CheckOptions{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Legal {
		t.Errorf("contended unpaired increments are race-free, got %s", v.Summary())
	}
	want := map[string]bool{"X=21;": true}
	if !reflect.DeepEqual(v.SCResults, want) {
		t.Errorf("SCResults: got %v, want %v", v.SCResults, want)
	}
	if elapsed > time.Second {
		t.Errorf("solve took %s on contended(7,3); want milliseconds", elapsed)
	}
	t.Logf("contended(7,3) solved in %s", elapsed)
}

// TestSolveSymmetrySoundness is the symmetry-reduction property test:
// permuting the threads of a program changes neither its canonical key
// nor any model-level fact the solver reports — legality, the per-kind
// race counts, and the SC result set (thread identity does not appear in
// final memory) must all be invariant.
func TestSolveSymmetrySoundness(t *testing.T) {
	base := func() *litmus.Program {
		p := litmus.New("sym")
		t0 := p.Thread("a")
		t0.Store("X", 1, core.Data)
		t0.Store("F", 1, core.Unpaired)
		t1 := p.Thread("b")
		r := t1.Load("F", core.Unpaired)
		t1.Use(r)
		d := t1.Load("X", core.Data)
		t1.Use(d)
		return p
	}
	permuted := func() *litmus.Program {
		p := litmus.New("sym_perm")
		t1 := p.Thread("b")
		r := t1.Load("F", core.Unpaired)
		t1.Use(r)
		d := t1.Load("X", core.Data)
		t1.Use(d)
		t0 := p.Thread("a")
		t0.Store("X", 1, core.Data)
		t0.Store("F", 1, core.Unpaired)
		return p
	}

	p1, p2 := base(), permuted()
	c1, err := Canonicalize(p1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Canonicalize(p2)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Key != c2.Key {
		t.Fatalf("thread permutation changed the canonical key:\n%q\n%q", c1.Key, c2.Key)
	}
	for _, m := range models {
		v1, err := solveCheck(p1, m, CheckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		v2, err := solveCheck(p2, m, CheckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if v1.Legal != v2.Legal {
			t.Errorf("%s: legality not permutation-invariant: %t vs %t", m, v1.Legal, v2.Legal)
		}
		for _, k := range RaceKinds() {
			if len(v1.Races[k]) != len(v2.Races[k]) {
				t.Errorf("%s/%s: race count not permutation-invariant: %d vs %d",
					m, k, len(v1.Races[k]), len(v2.Races[k]))
			}
		}
		if !reflect.DeepEqual(v1.SCResults, v2.SCResults) {
			t.Errorf("%s: SC results not permutation-invariant:\n%v\n%v", m, v1.SCResults, v2.SCResults)
		}
	}
	// Each verdict must also match the enumerator on its own program.
	checkRow(t, []*litmus.Program{p1, p2}, solveMatchesEnumerate)
}

// TestCheckProgramWithModeSolve runs the solve row, the dispatch path
// callers use, on the whole catalog.
func TestCheckProgramWithModeSolve(t *testing.T) {
	checkRow(t, catalogPrograms(), solveMatchesEnumerate)
}

// FuzzSolveMatchesEnumerate is the differential fuzz oracle the package
// doc promises: the solve row on randomProgram's programs under every
// model.
func FuzzSolveMatchesEnumerate(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 123, 346, 960, 5861} {
		for mi := range models {
			f.Add(seed, uint8(mi))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, modelIdx uint8) {
		m := models[int(modelIdx)%len(models)]
		c, err := newOracleCase(randomProgram(seed), m, nil)
		if err != nil {
			t.Skipf("enumerate: %v", err)
		}
		if err := solveMatchesEnumerate(c); err != nil {
			t.Errorf("seed %d/%s: %v", seed, m, err)
		}
	})
}

// TestSolveStateCountsPinned pins the exact telemetry counts of two
// phase-3 checks: the state engine's cost-cutting must leave the states
// it memoizes, and the order it meets them in, unchanged. Flags_4 has a
// singleton symmetry class per thread; contended(7,3) is one class of
// all seven threads.
func TestSolveStateCountsPinned(t *testing.T) {
	for _, c := range []struct {
		p    *litmus.Program
		m    core.Model
		want [5]int64 // transitions, decisions, propagations, conflicts, learned
	}{
		{litmus.Flags(4), core.DRF0, [5]int64{8036, 2229, 113, 5655, 2342}},
		{contendedProgram(7, 3), core.DRFrlx, [5]int64{630, 116, 3, 511, 119}},
	} {
		tel := telemetry.NewCheck(c.p.Name, c.m.String())
		if _, err := solveCheck(c.p, c.m, CheckOptions{Telemetry: tel}); err != nil {
			t.Fatal(err)
		}
		r := tel.Record()
		got := [5]int64{r.Transitions, r.SolveDecisions, r.SolvePropagations, r.SolveConflicts, r.SolveLearned}
		if got != c.want || r.Executions != 0 {
			t.Errorf("%s under %s: transitions/decisions/propagations/conflicts/learned = %v with %d executions, want %v with 0",
				c.p.Name, c.m, got, r.Executions, c.want)
		}
	}
}

// TestSolveTelemetryCounters: a solved check surfaces the DPLL-style
// counters on its telemetry record (and through the registry totals that
// feed the rats_check_solver_* metrics), while an enumeration-mode check
// of the same program leaves them zero — the omitempty contract that
// keeps enumeration-mode JSONL goldens unchanged.
func TestSolveTelemetryCounters(t *testing.T) {
	p := contendedProgram(4, 2)
	reg := telemetry.NewRegistry()

	tel := reg.NewCheck(p.Name, core.DRFrlx.String())
	if _, err := solveCheck(p, core.DRFrlx, CheckOptions{Telemetry: tel}); err != nil {
		t.Fatal(err)
	}
	rec := tel.Record()
	if rec.SolveLearned == 0 || rec.SolvePropagations == 0 {
		t.Errorf("solve record missing counters: %+v", rec)
	}
	if rec.SolveDecisions == 0 {
		t.Errorf("contended program must have branching states, got %+v", rec)
	}
	tot := reg.Totals()
	if tot.SolveLearned != rec.SolveLearned || tot.SolveDecisions != rec.SolveDecisions {
		t.Errorf("registry totals diverge from the record: %+v vs %+v", tot, rec)
	}

	etel := telemetry.NewCheck(p.Name, core.DRFrlx.String())
	if _, err := CheckProgramWith(p, core.DRFrlx, CheckOptions{Telemetry: etel}); err != nil {
		t.Fatal(err)
	}
	erec := etel.Record()
	if erec.SolveDecisions != 0 || erec.SolvePropagations != 0 || erec.SolveConflicts != 0 || erec.SolveLearned != 0 {
		t.Errorf("enumeration-mode record carries solver counters: %+v", erec)
	}
}
