package memmodel

import (
	"fmt"
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
// naive enumerator's signature set.
func execSignature(ex *Execution) string {
	var b strings.Builder
	b.WriteString(ex.ResultKey())
	fmt.Fprintf(&b, "|rf=%v|present=%v|regs=%v", ex.RF, ex.Present, ex.Regs)
	for _, ev := range ex.Events {
		fmt.Fprintf(&b, "|%d:%d,%d,%t", ev.ID, ev.Loaded, ev.Stored, ev.Randomized)
	}
	a := Analyze(ex)
	for _, k := range RaceKinds() {
		prs := append([][2]int(nil), a.Races[k]...)
		sort.Slice(prs, func(i, j int) bool {
			return prs[i][0] < prs[j][0] || (prs[i][0] == prs[j][0] && prs[i][1] < prs[j][1])
		})
		fmt.Fprintf(&b, "|%v:%v", k, prs)
	}
	return b.String()
}

func signatureSet(execs []*Execution) map[string]bool {
	set := make(map[string]bool, len(execs))
	for _, ex := range execs {
		set[execSignature(ex)] = true
	}
	return set
}

// resultSet is the set of execs' result keys.
func resultSet(execs []*Execution) map[string]bool {
	set := map[string]bool{}
	for _, ex := range execs {
		set[ex.ResultKey()] = true
	}
	return set
}

// TestPORMatchesNaiveOnCatalog is the soundness property of the reduced
// enumerator, over both of its delivery forms: the slice enumeration and
// the streaming (Visit) walk the checker runs. On every program of the
// litmus catalog (both the raw program and its DRFrlx quantum-equivalent
// form), each produces exactly the naive enumerator's set of execution
// signatures — same final states, reads-from choices, values, and race
// verdicts — while never producing more executions.
func TestPORMatchesNaiveOnCatalog(t *testing.T) {
	for _, tc := range litmus.Suite() {
		tc := tc
		t.Run(tc.Prog.Name, func(t *testing.T) {
			variants := []struct {
				name string
				prog *litmus.Program
				opts EnumOptions
			}{
				{"raw", tc.Prog, EnumOptions{}},
				{"quantum-drfrlx", tc.Prog.Under(core.DRFrlx), EnumOptions{Quantum: true}},
			}
			for _, v := range variants {
				naive, err := Enumerate(v.prog, EnumOptions{Quantum: v.opts.Quantum, Naive: true})
				if err != nil {
					t.Fatalf("%s: naive enumeration failed: %v", v.name, err)
				}
				slice, err := Enumerate(v.prog, v.opts)
				if err != nil {
					t.Fatalf("%s: reduced enumeration failed: %v", v.name, err)
				}
				var walk []*Execution
				wopts := v.opts
				wopts.Visit = func(ex *Execution) error {
					walk = append(walk, ex)
					return nil
				}
				if _, err := Enumerate(v.prog, wopts); err != nil {
					t.Fatalf("%s: reduced streaming walk failed: %v", v.name, err)
				}
				// The slice holds the walk's executions in the walk's order.
				if len(walk) != len(slice) {
					t.Fatalf("%s: walk produced %d executions, slice %d", v.name, len(walk), len(slice))
				}
				for i := range walk {
					if fmt.Sprint(walk[i].Order) != fmt.Sprint(slice[i].Order) {
						t.Fatalf("%s: execution %d: walk order %v, slice order %v", v.name, i, walk[i].Order, slice[i].Order)
					}
				}
				ns, nr := signatureSet(naive), resultSet(naive)
				for _, red := range []struct {
					name  string
					execs []*Execution
				}{{"slice", slice}, {"walk", walk}} {
					name := v.name + "/" + red.name
					if len(red.execs) > len(naive) {
						t.Fatalf("%s: POR produced %d executions, naive %d", name, len(red.execs), len(naive))
					}
					ps := signatureSet(red.execs)
					for sig := range ns {
						if !ps[sig] {
							t.Errorf("%s: naive signature missing from POR set:\n%s", name, sig)
						}
					}
					for sig := range ps {
						if !ns[sig] {
							t.Errorf("%s: POR produced a signature naive never does:\n%s", name, sig)
						}
					}
					// Results must agree as sets, not just signatures.
					pr := resultSet(red.execs)
					if len(nr) != len(pr) {
						t.Fatalf("%s: result sets differ: naive %d, POR %d", name, len(nr), len(pr))
					}
					for k := range nr {
						if _, ok := pr[k]; !ok {
							t.Errorf("%s: final state %q lost by POR", name, k)
						}
					}
				}
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
				if fmt.Sprint(got[i].Order) != fmt.Sprint(base[i].Order) ||
					execSignature(got[i]) != execSignature(base[i]) {
					t.Fatalf("%s: execution %d differs between runs", p.Name, i)
				}
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
