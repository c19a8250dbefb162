package memmodel

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
)

// twoByTwo builds the minimal two-thread program: T0 stores X then Y,
// T1 stores Y then X (paired everywhere, so it is race-free trivially).
func twoByTwo() *litmus.Program {
	p := litmus.New("twoByTwo")
	t0 := p.Thread("t0")
	t0.Store("X", 1, core.Paired)
	t0.Store("Y", 1, core.Paired)
	t1 := p.Thread("t1")
	t1.Store("Y", 2, core.Paired)
	t1.Store("X", 2, core.Paired)
	return p
}

func TestEnumerateInterleavingCount(t *testing.T) {
	naive, err := Enumerate(twoByTwo(), EnumOptions{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	// C(4,2) = 6 interleavings of two 2-op threads.
	if len(naive) != 6 {
		t.Fatalf("got %d executions, want 6", len(naive))
	}
	// The reduced enumerator drops order-equivalent duplicates (the two
	// stores to different locations commute) but keeps every final state.
	por, err := Enumerate(twoByTwo(), EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(por) >= len(naive) || len(por) < 3 {
		t.Fatalf("POR kept %d of %d executions", len(por), len(naive))
	}
	for _, execs := range [][]*Execution{naive, por} {
		for _, ex := range execs {
			if len(ex.Order) != 4 {
				t.Fatalf("order length %d", len(ex.Order))
			}
			// T order must respect program order.
			for i := 0; i < len(ex.Order); i++ {
				for j := i + 1; j < len(ex.Order); j++ {
					ei, ej := ex.Events[ex.Order[i]], ex.Events[ex.Order[j]]
					if ei.Thread == ej.Thread && ei.OpIndex > ej.OpIndex {
						t.Fatal("T violates program order")
					}
				}
			}
		}
	}
}

func TestEnumerateValues(t *testing.T) {
	// MP with paired flag: when the consumer sees F=1 it must see D=1.
	execs, err := Enumerate(litmus.MP("mp", core.Paired), EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sawFlag := false
	for _, ex := range execs {
		var f, d *Event
		for i := range ex.Events {
			ev := &ex.Events[i]
			if ev.Thread == 1 && ev.Op.Loc == "F" {
				f = ev
			}
			if ev.Thread == 1 && ev.Op.Loc == "D" {
				d = ev
			}
		}
		if f == nil {
			t.Fatal("flag read missing")
		}
		if f.Loaded == 1 {
			sawFlag = true
			if d == nil || !ex.Present[d.ID] {
				t.Fatal("guarded data read should be present when flag seen")
			}
			if d.Loaded != 1 {
				t.Fatalf("SC violation: flag=1 but data=%d", d.Loaded)
			}
		} else if d != nil && ex.Present[d.ID] {
			t.Fatal("guarded data read present despite flag=0")
		}
	}
	if !sawFlag {
		t.Fatal("no execution observed the flag")
	}
}

func TestEnumerateFinalState(t *testing.T) {
	execs, err := Enumerate(twoByTwo(), EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	finals := map[string]bool{}
	for _, ex := range execs {
		finals[ex.ResultKey()] = true
	}
	// X=1,Y=2 requires X=2 <T X=1 and Y=1 <T Y=2, which together with
	// program order form a cycle — exactly 3 final states are
	// SC-reachable.
	want := []string{"X=1;Y=1;", "X=2;Y=2;", "X=2;Y=1;"}
	if len(finals) != len(want) {
		t.Fatalf("got %d distinct finals (%v), want %d", len(finals), finals, len(want))
	}
	for _, w := range want {
		if !finals[w] {
			t.Errorf("missing final state %q", w)
		}
	}
}

func TestEnumerateRMWAtomicity(t *testing.T) {
	// Two increments: the final value must always be 2 (no lost updates —
	// the RMW reads and writes atomically in one event).
	p := litmus.New("incinc")
	p.Thread("a").Inc("C", core.Paired)
	p.Thread("b").Inc("C", core.Paired)
	execs, err := Enumerate(p, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(execs) != 2 {
		t.Fatalf("got %d executions, want 2", len(execs))
	}
	for _, ex := range execs {
		if ex.Final["C"] != 2 {
			t.Fatalf("lost update: final C = %d", ex.Final["C"])
		}
	}
}

func TestEnumerateLimit(t *testing.T) {
	p := litmus.New("big")
	for i := 0; i < 3; i++ {
		th := p.Thread("t" + strconv.Itoa(i))
		for j := 0; j < 4; j++ {
			th.Store("X", int64(j), core.Paired)
		}
	}
	_, err := Enumerate(p, EnumOptions{Limit: 10})
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("want ErrLimit, got %v", err)
	}
}

func TestQuantumTransformation(t *testing.T) {
	// A quantum load with domain {0,1,2} must return every domain value
	// across executions, regardless of what is actually stored.
	p := litmus.New("q")
	p.QuantumDomain = []int64{0, 1, 2}
	t0 := p.Thread("t0")
	t0.RMWDiscard(core.OpAdd, "C", 1, core.Quantum)
	t1 := p.Thread("t1")
	r := t1.Load("C", core.Quantum)
	t1.StoreExpr("OUT", litmus.RegExpr(r), core.Data)

	execs, err := Enumerate(p, EnumOptions{Quantum: true})
	if err != nil {
		t.Fatal(err)
	}
	outs := map[int64]bool{}
	randomized := false
	for _, ex := range execs {
		outs[ex.Final["OUT"]] = true
		for _, ev := range ex.Events {
			if ev.Randomized {
				randomized = true
			}
		}
	}
	for _, v := range []int64{0, 1, 2} {
		if !outs[v] {
			t.Errorf("quantum load never returned %d: %v", v, outs)
		}
	}
	if !randomized {
		t.Error("no event marked Randomized")
	}

	// Without the quantum flag, values are the real ones.
	execs, err = Enumerate(p, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range execs {
		if out := ex.Final["OUT"]; out != 0 && out != 1 {
			t.Errorf("real execution produced OUT=%d", out)
		}
	}
}

func TestQuantumDomainDerivation(t *testing.T) {
	p := litmus.New("d")
	p.SetInit("X", 5)
	t0 := p.Thread("t0")
	t0.Store("X", 9, core.Quantum)
	dom := quantumDomain(p)
	want := map[int64]bool{0: true, 1: true, 5: true, 9: true}
	if len(dom) != len(want) {
		t.Fatalf("domain %v", dom)
	}
	for _, v := range dom {
		if !want[v] {
			t.Fatalf("unexpected domain value %d", v)
		}
	}
}

func TestGuardSkipsProduceNoEvents(t *testing.T) {
	p := litmus.New("g")
	t0 := p.Thread("t0")
	r := t0.Load("F", core.Paired)
	t0.WithGuards(litmus.NZ(r))
	t0.Store("X", 1, core.Data)
	t0.EndGuards()
	execs, err := Enumerate(p, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(execs) != 1 {
		t.Fatalf("got %d executions", len(execs))
	}
	ex := execs[0]
	if ex.Final["X"] != 0 {
		t.Error("guarded store executed despite failed guard")
	}
	if len(ex.Order) != 1 {
		t.Errorf("order %v should contain only the load", ex.Order)
	}
}

// resultKeyProgram stretches the enumerator's interned result keys past
// the catalog: negative and multi-digit values, and locations first used
// in non-lexical order (Y, X, AB). Under DRFrlx the quantum accesses take
// values from a domain with a negative member.
func resultKeyProgram() *litmus.Program {
	p := litmus.New("resultKeys")
	p.SetInit("Y", -12)
	p.QuantumDomain = []int64{-3, 0, 250}
	t0 := p.Thread("t0")
	t0.RMWDiscard(core.OpAdd, "Y", -100, core.Paired)
	t0.Store("X", 1000, core.Quantum)
	t1 := p.Thread("t1")
	r := t1.Load("X", core.Quantum)
	t1.StoreExpr("AB", litmus.RegExpr(r), core.Paired)
	t1.RMWDiscard(core.OpSub, "Y", 7, core.Paired)
	return p
}

// TestResultKeyMatchesFinal is the oracle for the enumerator's result-key
// interning: every delivered execution's ResultKey equals the key
// rendered independently from its Final map, for every catalog program
// and resultKeyProgram under every model, delivered through Visit and
// collected into a slice. It also pins the rendering itself on
// resultKeyProgram: names ascending, signed decimal values.
func TestResultKeyMatchesFinal(t *testing.T) {
	progs := []*litmus.Program{resultKeyProgram()}
	for _, tc := range litmus.Suite() {
		progs = append(progs, tc.Prog)
	}
	check := func(ex *Execution) error {
		if got, want := ex.ResultKey(), resultKey(ex.Final); got != want {
			return fmt.Errorf("result key %q, want %q", got, want)
		}
		return nil
	}
	for _, p := range progs {
		for _, m := range []core.Model{core.DRF0, core.DRF1, core.DRFrlx} {
			if _, err := Enumerate(p.Under(m), EnumOptions{Quantum: true, Visit: check}); err != nil {
				t.Fatalf("%s/%s walk: %v", p.Name, m, err)
			}
			execs, err := Enumerate(p.Under(m), EnumOptions{Quantum: true})
			if err != nil {
				t.Fatalf("%s/%s slice: %v", p.Name, m, err)
			}
			for _, ex := range execs {
				if err := check(ex); err != nil {
					t.Fatalf("%s/%s slice: %v", p.Name, m, err)
				}
			}
		}
	}
	v, err := CheckProgram(resultKeyProgram(), core.DRF0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"AB=0;X=1000;Y=-119;": true, "AB=1000;X=1000;Y=-119;": true}
	if !reflect.DeepEqual(v.SCResults, want) {
		t.Errorf("resultKeys/DRF0 SC results %v, want %v", v.SCResults, want)
	}
}
