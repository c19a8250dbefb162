package memmodel

import (
	"fmt"
	"reflect"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
)

// orderStats streams the SC executions of p under m exactly as the
// checker enumerates them and counts executions and distinct total
// orders.
func orderStats(p *litmus.Program, m core.Model) (execs, orders int64, err error) {
	seen := map[string]bool{}
	_, err = Enumerate(p.Under(m), EnumOptions{
		Quantum: true,
		Visit: func(ex *Execution) error {
			execs++
			seen[fmt.Sprint(ex.Order)] = true
			return nil
		},
	})
	return execs, int64(len(seen)), err
}

// TestOrderDeterminesRaces is the order memo's premise: Analyze reads an
// execution's order and the Present set it fixes, never the values the
// quantum transformation chose, so every catalog execution that shares
// its Order with an earlier one has the same races.
func TestOrderDeterminesRaces(t *testing.T) {
	for _, tc := range litmus.Suite() {
		an := new(analyzer)
		first := map[string][NumRaceKinds][][2]int{}
		repeats := 0
		_, err := Enumerate(tc.Prog.Under(core.DRFrlx), EnumOptions{
			Quantum: true,
			Visit: func(ex *Execution) error {
				key := fmt.Sprint(ex.Order)
				var races [NumRaceKinds][][2]int
				for k, pairs := range an.Analyze(ex).Races {
					races[k] = append([][2]int{}, pairs...)
				}
				want, ok := first[key]
				if !ok {
					first[key] = races
					return nil
				}
				repeats++
				if !reflect.DeepEqual(races, want) {
					return fmt.Errorf("order %s: races %v, first execution of the order had %v", key, races, want)
				}
				return nil
			},
		})
		if err != nil {
			t.Errorf("%s: %v", tc.Prog.Name, err)
		}
		if newOrderMemo(tc.Prog.Under(core.DRFrlx)) == nil && repeats != 0 {
			t.Errorf("%s: no quantum ops, yet %d executions repeat an order", tc.Prog.Name, repeats)
		}
	}
}

// TestOrderMemoCap: the memo stops growing at orderMemoCap entries, so a
// check's memory stays bounded; orders beyond the cap are analyzed every
// time they recur, and memoized ones are still counted without analysis.
// It drives the enumerator's leaf hook directly with weighted leaves: a
// miss is an execution the enumerator would deliver for analysis, and
// the memo's shard counts every other execution the leaves stand for.
func TestOrderMemoCap(t *testing.T) {
	m := &orderMemo{seen: map[string]struct{}{}, skipped: newPartialVerdict()}
	const weight = 3
	analyzed := 0
	n := orderMemoCap + 10
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			if !m.repeat([]int{i / 256, i % 256}, "X=0;", weight) {
				analyzed++
			}
		}
	}
	if len(m.seen) != orderMemoCap {
		t.Errorf("memo holds %d orders, want the cap %d", len(m.seen), orderMemoCap)
	}
	if want := n + 10; analyzed != want {
		t.Errorf("analyzed %d executions, want %d (every order once, the 10 past the cap twice)", analyzed, want)
	}
	if want := 2*n*weight - analyzed; m.skipped.execs != want {
		t.Errorf("skipped %d executions, want %d (every execution not analyzed)", m.skipped.execs, want)
	}
	if !m.skipped.scResults["X=0;"] {
		t.Errorf("skipped executions lost their SC result: %v", m.skipped.scResults)
	}
}
