package memmodel

import (
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
)

// execWhere returns the first execution satisfying pred.
func execWhere(t *testing.T, p *litmus.Program, pred func(*Execution) bool) *Execution {
	t.Helper()
	execs, err := Enumerate(p, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range execs {
		if pred(ex) {
			return ex
		}
	}
	t.Fatal("no execution matches predicate")
	return nil
}

// eventAt finds the event for (thread, opIndex).
func eventAt(ex *Execution, thread, opIndex int) *Event {
	for i := range ex.Events {
		if ex.Events[i].Thread == thread && ex.Events[i].OpIndex == opIndex {
			return &ex.Events[i]
		}
	}
	return nil
}

func TestSO1AndHB1OnMP(t *testing.T) {
	p := litmus.MP("mp", core.Paired)
	// Execution where the consumer observes the flag.
	ex := execWhere(t, p, func(ex *Execution) bool {
		f := eventAt(ex, 1, 0)
		return f != nil && f.Loaded == 1
	})
	r := new(analyzer).buildRelations(ex)
	dStore := eventAt(ex, 0, 0).ID
	fStore := eventAt(ex, 0, 1).ID
	fLoad := eventAt(ex, 1, 0).ID
	dLoad := eventAt(ex, 1, 1).ID

	if !r.SO1.Has(fStore, fLoad) {
		t.Error("so1 edge missing between paired flag store and load")
	}
	if r.SO1.Has(fLoad, fStore) {
		t.Error("so1 must be directed")
	}
	if !r.HB1.Has(dStore, dLoad) {
		t.Error("hb1 must order payload store before guarded load")
	}
	if r.Race.Has(dStore, dLoad) || r.Race.Has(dLoad, dStore) {
		t.Error("ordered accesses must not race")
	}
	if !r.PO.Has(dStore, fStore) || r.PO.Has(fStore, dStore) {
		t.Error("program order wrong")
	}
	if !r.Conflict.Has(dStore, dLoad) || !r.Conflict.Has(dLoad, dStore) {
		t.Error("conflict must be symmetric")
	}
}

func TestConflictOrderFollowsT(t *testing.T) {
	p := litmus.New("co")
	p.Thread("a").Store("X", 1, core.Paired)
	p.Thread("b").Store("X", 2, core.Paired)
	execs, err := Enumerate(p, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range execs {
		r := new(analyzer).buildRelations(ex)
		first, second := ex.Order[0], ex.Order[1]
		if !r.CO.Has(first, second) || r.CO.Has(second, first) {
			t.Fatal("conflict order must follow T exactly")
		}
	}
}

func TestHB1IsTransitiveAndAcyclic(t *testing.T) {
	// The reduced enumerator keeps the whole catalog within the default
	// limit (one representative per trace suffices for these structural
	// invariants), so every program and every execution is checked — no
	// enumeration cap, no skip on blowup.
	for _, tc := range litmus.Suite() {
		execs, err := Enumerate(tc.Prog.Under(core.DRFrlx), EnumOptions{Quantum: true})
		if err != nil {
			t.Fatalf("%s: enumeration failed: %v", tc.Prog.Name, err)
		}
		for _, ex := range execs {
			r := new(analyzer).buildRelations(ex)
			// Transitivity: hb1;hb1 ⊆ hb1.
			if !r.HB1.Compose(r.HB1).Diff(r.HB1).Empty() {
				t.Fatalf("%s: hb1 not transitive", tc.Prog.Name)
			}
			if !r.HB1.Acyclic() {
				t.Fatalf("%s: hb1 cyclic", tc.Prog.Name)
			}
			// Race is symmetric and disjoint from hb1.
			if !r.Race.Diff(r.Race.Inverse()).Empty() {
				t.Fatalf("%s: race not symmetric", tc.Prog.Name)
			}
			if !r.Race.Inter(r.HB1).Empty() {
				t.Fatalf("%s: race overlaps hb1", tc.Prog.Name)
			}
		}
	}
}

func TestObservedSetGuardsAlwaysCount(t *testing.T) {
	// A load whose value only feeds a guard is still observed (control
	// dependency), even when the guarded op is skipped.
	p := litmus.New("g")
	th := p.Thread("t")
	r := th.Load("X", core.Speculative)
	th.WithGuards(litmus.EQConst(r, 99)) // never true
	th.Store("Y", 1, core.Data)
	th.EndGuards()
	execs, err := Enumerate(p, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel := new(analyzer).buildRelations(execs[0])
	if !rel.Observed[0] {
		t.Error("guard-feeding load must be observed")
	}
}

func TestObservedSetSkippedOperandUse(t *testing.T) {
	// A load whose value feeds only the operand of a skipped op is NOT
	// observed in that execution (the seqlock discard property).
	p := litmus.New("g2")
	th := p.Thread("t")
	g := th.Load("G", core.Paired) // guard register, reads 0
	d := th.Load("X", core.Speculative)
	th.WithGuards(litmus.NZ(g)) // fails: G is 0
	th.StoreExpr("Y", litmus.RegExpr(d), core.Data)
	th.EndGuards()
	execs, err := Enumerate(p, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel := new(analyzer).buildRelations(execs[0])
	if rel.Observed[1] {
		t.Error("speculative load observed despite its only use being skipped")
	}
}

// TestUpgradeSingleSiteKeepsLegal: for quantum-free legal programs,
// strengthening any one atomic site to paired preserves legality (the
// upgrade-safety property the paper states for non-quantum classes in
// Section 3.4.2).
func TestUpgradeSingleSiteKeepsLegal(t *testing.T) {
	for _, tc := range litmus.Suite() {
		if tc.Prog.HasClass(core.Quantum) {
			continue // quantum may not race with stronger classes
		}
		v, err := CheckProgram(tc.Prog, core.DRFrlx)
		if err != nil || !v.Legal {
			continue
		}
		for ti, th := range tc.Prog.Threads {
			for oi, op := range th.Ops {
				if op.IsBranch || !op.Class.IsAtomic() || op.Class == core.Paired {
					continue
				}
				q := tc.Prog.Relabel(func(c core.Class) core.Class { return c })
				q.Name = tc.Prog.Name + "_up"
				q.Threads[ti].Ops[oi].Class = core.Paired
				v2, err := CheckProgram(q, core.DRFrlx)
				if err != nil {
					t.Fatal(err)
				}
				if !v2.Legal {
					t.Errorf("%s: upgrading T%d.%d (%v) to paired broke legality: %s",
						tc.Prog.Name, ti, oi, op.Class, v2.Summary())
				}
			}
		}
	}
}
