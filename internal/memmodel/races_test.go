package memmodel

import (
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
)

// TestSuiteVerdicts checks every litmus-suite program against its expected
// legality under DRF0, DRF1, and DRFrlx — the core validation of the
// programmer-centric model.
func TestSuiteVerdicts(t *testing.T) {
	for _, tc := range litmus.Suite() {
		tc := tc
		t.Run(tc.Prog.Name, func(t *testing.T) {
			for i, m := range core.Models() {
				v, err := CheckProgram(tc.Prog, m)
				if err != nil {
					t.Fatalf("%s under %s: %v", tc.Prog.Name, m, err)
				}
				if v.Legal != tc.Legal[i] {
					t.Errorf("%s under %s: legal=%v, want %v (%s)",
						tc.Prog.Name, m, v.Legal, tc.Legal[i], v.Summary())
				}
			}
		})
	}
}

// raceKindsOf returns the set of race kinds a program exhibits under
// DRFrlx.
func raceKindsOf(t *testing.T, p *litmus.Program) map[RaceKind]bool {
	t.Helper()
	v, err := CheckProgram(p, core.DRFrlx)
	if err != nil {
		t.Fatal(err)
	}
	out := map[RaceKind]bool{}
	for k, rs := range v.Races {
		if len(rs) > 0 {
			out[k] = true
		}
	}
	return out
}

// TestRaceKindPrecision checks that each mislabeled variant is caught by
// exactly the detector the paper's model assigns to it.
func TestRaceKindPrecision(t *testing.T) {
	for _, tc := range []struct {
		prog *litmus.Program
		want RaceKind
	}{
		{litmus.MPData(), DataRace},
		{litmus.MP("mp_unpaired", core.Unpaired), DataRace},
		{litmus.EventCounterObserved(), CommutativeRace},
		{litmus.EventCounterNonCommutative(), CommutativeRace},
		{litmus.Figure2a(), NonOrderingRace},
		{litmus.NOFlagPublish(), NonOrderingRace},
		{litmus.QuantumMixed(), QuantumRace},
		{litmus.SeqlocksUnchecked(), SpeculativeRace},
		{litmus.SeqlocksWW(), SpeculativeRace},
	} {
		kinds := raceKindsOf(t, tc.prog)
		if !kinds[tc.want] {
			t.Errorf("%s: expected a %v, got %v", tc.prog.Name, tc.want, kinds)
		}
	}
}

// TestFigure2 reproduces the paper's Figure 2 at per-execution
// granularity: 2(a)'s execution has a non-ordering race; 2(b)'s shown
// execution (Z observed as 1) does not, because the paired path through Z
// is a valid ordering path.
func TestFigure2(t *testing.T) {
	// 2(a): some execution must exhibit the race.
	execsA, err := Enumerate(litmus.Figure2a(), EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ex := range execsA {
		a := Analyze(ex)
		if len(a.Races[NonOrderingRace]) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Error("Figure 2(a): no execution exhibits the non-ordering race")
	}

	// 2(b): executions where the reader observes Z=1 (the valid paired
	// path of the figure) must be race-free.
	execsB, err := Enumerate(litmus.Figure2b(), EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, ex := range execsB {
		var zLoaded int64 = -1
		for _, ev := range ex.Events {
			if ev.Thread == 1 && ev.Op.Loc == "Z" {
				zLoaded = ev.Loaded
			}
		}
		if zLoaded != 1 {
			continue
		}
		checked++
		a := Analyze(ex)
		if n := len(a.Races[NonOrderingRace]); n > 0 {
			t.Errorf("Figure 2(b): execution with Z=1 observed has %d non-ordering race(s)", n)
		}
	}
	if checked == 0 {
		t.Fatal("Figure 2(b): no execution observed Z=1")
	}
}

// TestUpgradeMonotonic: strengthening every relaxed atomic to paired never
// makes a DRFrlx-legal program illegal (quantum is the exception class in
// general, but after full strengthening no quantum accesses remain, so
// only data races matter — and those only shrink as hb1 grows).
func TestUpgradeMonotonic(t *testing.T) {
	for _, tc := range litmus.Suite() {
		v, err := CheckProgram(tc.Prog, core.DRFrlx)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Legal {
			continue
		}
		strengthened := tc.Prog.Relabel(func(c core.Class) core.Class {
			if c.IsAtomic() {
				return core.Paired
			}
			return c
		})
		strengthened.Name = tc.Prog.Name + "_allpaired"
		v2, err := CheckProgram(strengthened, core.DRFrlx)
		if err != nil {
			t.Fatal(err)
		}
		if !v2.Legal {
			t.Errorf("%s: legal under DRFrlx but illegal when all atomics strengthened to paired: %s",
				tc.Prog.Name, v2.Summary())
		}
	}
}

// TestLegalDRFrlxImpliesLegalDRF0: DRF0 collapses atomics to paired, which
// only adds so1 edges; data races can only disappear.
func TestLegalDRFrlxImpliesLegalDRF0(t *testing.T) {
	for _, tc := range litmus.Suite() {
		vR, err := CheckProgram(tc.Prog, core.DRFrlx)
		if err != nil {
			t.Fatal(err)
		}
		v0, err := CheckProgram(tc.Prog, core.DRF0)
		if err != nil {
			t.Fatal(err)
		}
		if vR.Legal && !v0.Legal {
			t.Errorf("%s: legal under DRFrlx but illegal under DRF0", tc.Prog.Name)
		}
	}
}

// TestSeqlockObservabilityIsDynamic: the misspeculated seqlock read is
// unobserved precisely because the guarded use is skipped; a static
// analysis would flag it.
func TestSeqlockObservabilityIsDynamic(t *testing.T) {
	execs, err := Enumerate(litmus.Seqlocks(), EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sawOverlap := false
	an := new(analyzer)
	for _, ex := range execs {
		a := an.Analyze(ex)
		if len(a.Races[SpeculativeRace]) > 0 {
			t.Fatalf("legal seqlock flagged with speculative race")
		}
		// Find an execution where a speculative load raced (hb1-unordered
		// with a spec store) — the misspeculation case.
		for _, pr := range an.rels.Race.Pairs() {
			ei := ex.Events[pr[0]]
			if ei.Op.Class == core.Speculative {
				sawOverlap = true
			}
		}
	}
	if !sawOverlap {
		t.Error("no execution exercised the speculative overlap")
	}
}

// TestWorkQueueUnpairedRaceIsBenign: the occupancy poll races but only
// with atomics, so no detector fires.
func TestWorkQueueUnpairedRaceIsBenign(t *testing.T) {
	execs, err := Enumerate(litmus.WorkQueue(), EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	raced := false
	an := new(analyzer)
	for _, ex := range execs {
		a := an.Analyze(ex)
		for _, k := range RaceKinds() {
			if len(a.Races[k]) > 0 {
				t.Fatalf("work queue flagged: %v", k)
			}
		}
		if an.rels.Race.Count() > 0 {
			raced = true
		}
	}
	if !raced {
		t.Error("occupancy poll never raced — test too weak")
	}
}

// TestVerdictSummary smoke-tests report strings.
func TestVerdictSummary(t *testing.T) {
	v, err := CheckProgram(litmus.MPData(), core.DRF0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Legal {
		t.Fatal("MPData must be illegal")
	}
	if s := v.Summary(); s == "" {
		t.Error("empty summary")
	}
	v2, err := CheckProgram(litmus.WorkQueue(), core.DRFrlx)
	if err != nil {
		t.Fatal(err)
	}
	if s := v2.Summary(); s == "" || !v2.Legal {
		t.Error("work queue summary/legality wrong")
	}
}

// TestSolvedSummaryCountsResults: the solver's static split decides two
// threads of disjoint stores without enumerating an execution, so the
// summary reports the SC result count, not "0 SC executions"; the
// enumerating check of the same program walks its one execution.
func TestSolvedSummaryCountsResults(t *testing.T) {
	p := litmus.New("disjoint")
	p.Thread("a").Store("X", 1, core.Data)
	p.Thread("b").Store("Y", 1, core.Data)
	for _, tc := range []struct {
		mode Mode
		want string
	}{
		{ModeEnumerate, "disjoint under DRFrlx: LEGAL (1 SC executions)"},
		{ModeSolve, "disjoint under DRFrlx: LEGAL (1 SC results, no execution enumerated)"},
	} {
		v, err := CheckProgramWith(p, core.DRFrlx, CheckOptions{Mode: tc.mode})
		if err != nil {
			t.Fatal(err)
		}
		if s := v.Summary(); s != tc.want {
			t.Errorf("mode %q: summary %q, want %q", tc.mode, s, tc.want)
		}
	}
}
