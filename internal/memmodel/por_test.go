package memmodel

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
)

// execSignature fingerprints everything about an execution that is
// invariant under reordering commuting accesses — the final state, the
// reads-from function, the event values, the final registers, and the
// race verdicts. Two executions of the same Mazurkiewicz trace have the
// same signature, so the reduced enumerator must produce exactly the
// naive enumerator's signature set. an computes the race verdicts and
// is reused across executions.
func execSignature(an *analyzer, ex *Execution) string {
	var b strings.Builder
	b.WriteString(ex.ResultKey())
	fmt.Fprintf(&b, "|rf=%v|present=%v|regs=%v", ex.RF, ex.Present, ex.Regs)
	for _, ev := range ex.Events {
		fmt.Fprintf(&b, "|%d:%d,%d,%t", ev.ID, ev.Loaded, ev.Stored, ev.Randomized)
	}
	a := an.Analyze(ex)
	for _, k := range RaceKinds() {
		prs := append([][2]int(nil), a.Races[k]...)
		sort.Slice(prs, func(i, j int) bool {
			return prs[i][0] < prs[j][0] || (prs[i][0] == prs[j][0] && prs[i][1] < prs[j][1])
		})
		fmt.Fprintf(&b, "|%v:%v", k, prs)
	}
	return b.String()
}

// signatures fingerprints execs in order.
func signatures(execs []*Execution) []string {
	an := new(analyzer)
	sigs := make([]string, len(execs))
	for i, ex := range execs {
		sigs[i] = execSignature(an, ex)
	}
	return sigs
}

// porMatchesNaive is the soundness property of the reduced enumerator,
// over both of its delivery forms: the slice enumeration and the
// streaming walk the checker runs deliver the same executions in the
// same order, exactly the naive enumerator's set of execution
// signatures, and never more executions. limit bounds the naive
// enumeration (0 = DefaultLimit).
func porMatchesNaive(p *litmus.Program, quantum bool, limit int) error {
	naive, err := Enumerate(p, EnumOptions{Quantum: quantum, Naive: true, Limit: limit})
	if err != nil {
		return err
	}
	slice, err := Enumerate(p, EnumOptions{Quantum: quantum})
	if err != nil {
		return err
	}
	var walk []*Execution
	if _, err := Enumerate(p, EnumOptions{Quantum: quantum, Visit: func(ex *Execution) error {
		walk = append(walk, ex)
		return nil
	}}); err != nil {
		return err
	}
	if len(walk) > len(naive) {
		return fmt.Errorf("POR walked %d executions, naive %d", len(walk), len(naive))
	}
	if len(walk) != len(slice) {
		return fmt.Errorf("walk produced %d executions, slice %d", len(walk), len(slice))
	}
	for i := range walk {
		if !slices.Equal(walk[i].Order, slice[i].Order) {
			return fmt.Errorf("execution %d: walk order %v, slice order %v", i, walk[i].Order, slice[i].Order)
		}
	}
	sigs := signatures(walk)
	if !slices.Equal(sigs, signatures(slice)) {
		return fmt.Errorf("the slice's executions differ from the walk's")
	}
	got, want := map[string]bool{}, map[string]bool{}
	for _, sig := range sigs {
		got[sig] = true
	}
	for _, sig := range signatures(naive) {
		if want[sig] = true; !got[sig] {
			return fmt.Errorf("naive signature missing from POR's:\n%s", sig)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("POR reaches %d signatures, naive %d", len(got), len(want))
	}
	return nil
}

// TestPORMatchesNaiveOnCatalog runs porMatchesNaive on every catalog
// program, raw and in its DRFrlx quantum-equivalent form, with the
// naive enumeration unbounded. TestOracles runs it on generated
// programs.
func TestPORMatchesNaiveOnCatalog(t *testing.T) {
	for _, tc := range litmus.Suite() {
		tc := tc
		t.Run(tc.Prog.Name, func(t *testing.T) {
			if err := porMatchesNaive(tc.Prog, false, 0); err != nil {
				t.Errorf("raw: %v", err)
			}
			if err := porMatchesNaive(tc.Prog.Under(core.DRFrlx), true, 0); err != nil {
				t.Errorf("quantum-drfrlx: %v", err)
			}
		})
	}
}

// TestEnumerateDeterministic pins the slice enumeration's determinism:
// repeated runs must produce the identical ordered execution list, in
// the DFS's branch order.
func TestEnumerateDeterministic(t *testing.T) {
	progs := []*litmus.Program{
		twoByTwo(),
		litmus.IRIW(),
		litmus.MP("mp_det", core.Paired).Under(core.DRFrlx),
	}
	for _, p := range progs {
		base, err := Enumerate(p, EnumOptions{Quantum: true})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			got, err := Enumerate(p, EnumOptions{Quantum: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(base) {
				t.Fatalf("%s: run %d produced %d executions, first run %d",
					p.Name, trial, len(got), len(base))
			}
			for i := range got {
				if !slices.Equal(got[i].Order, base[i].Order) {
					t.Fatalf("%s: execution %d differs between runs", p.Name, i)
				}
			}
			if !slices.Equal(signatures(got), signatures(base)) {
				t.Fatalf("%s: run %d's executions differ from the first run's", p.Name, trial)
			}
		}
	}
}

// TestPORReducesIRIW pins that the reduction actually fires on the
// catalog's worst independence case (four threads, two locations).
func TestPORReducesIRIW(t *testing.T) {
	p := litmus.IRIW()
	naive, err := Enumerate(p, EnumOptions{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	por, err := Enumerate(p, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(naive) < 100*len(por) {
		t.Fatalf("expected >=100x reduction on IRIW, got naive=%d por=%d", len(naive), len(por))
	}
}
