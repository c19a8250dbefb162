package memmodel

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel/telemetry"
)

// orderStats streams the SC executions of p under m exactly as the
// checker enumerates them and counts executions and distinct total
// orders.
func orderStats(t *testing.T, p *litmus.Program, m core.Model) (execs, orders int64) {
	t.Helper()
	seen := map[string]bool{}
	_, err := Enumerate(p.Under(m), EnumOptions{
		Quantum: true,
		Visit: func(ex *Execution) error {
			execs++
			seen[fmt.Sprint(ex.Order)] = true
			return nil
		},
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", p.Name, m, err)
	}
	return execs, int64(len(seen))
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

// randomQuantumProgram generates small random programs for the
// differential oracles: every class including Quantum, a quantum domain
// of three values, three locations, loads, stores, increments (half of
// them discarding the old value, which the checker walks weighted when
// quantum) and CAS, data and address dependencies, branches, and ops
// guarded on an earlier load's value, so quantum value choices both
// repeat orders and change which events are present. A thread after the
// first copies an earlier one with chance one in three, at most once per
// program, so thread-symmetry classes form without three identical
// threads piling up on one location.
func randomQuantumProgram(seed int64) *litmus.Program {
	rng := rand.New(rand.NewSource(seed))
	classes := core.Classes()
	locs := []litmus.Loc{"X", "Y", "Z"}
	p := litmus.New("quantum" + strconv.FormatInt(seed, 10))
	p.QuantumDomain = []int64{0, 1, 2}
	nThreads := 2 + rng.Intn(2)
	copied := false
	for t := 0; t < nThreads; t++ {
		th := p.Thread("t" + strconv.Itoa(t))
		if t > 0 && !copied && rng.Intn(3) == 0 {
			src := p.Threads[rng.Intn(t)]
			th.Ops = append([]litmus.Op(nil), src.Ops...)
			th.SetNumRegs(src.NumRegs())
			copied = true
			continue
		}
		last := litmus.NoReg
		nOps := 2 + rng.Intn(2)
		for i := 0; i < nOps; i++ {
			c := classes[rng.Intn(len(classes))]
			loc := locs[rng.Intn(len(locs))]
			guarded := last != litmus.NoReg && rng.Intn(2) == 0
			if guarded {
				th.WithGuards(litmus.EQConst(last, int64(rng.Intn(3))))
			}
			// Kinds 4 and 5 depend on the last loaded register; without
			// one they fall back to a store and a load.
			switch k := rng.Intn(6); {
			case k == 0 || k == 5 && last == litmus.NoReg:
				last = th.Load(loc, c)
			case k == 1 || k == 4 && last == litmus.NoReg:
				th.Store(loc, int64(rng.Intn(3)), c)
			case k == 2 && rng.Intn(2) == 0:
				th.Inc(loc, c)
			case k == 2:
				last = th.RMW(core.OpInc, loc, 0, c)
			case k == 3:
				last = th.CAS(loc, int64(rng.Intn(2)), int64(1+rng.Intn(2)), c)
			case k == 4: // data dependency
				th.StoreExpr(loc, litmus.RegExpr(last), c)
			default: // address dependency
				last = th.LoadDep(loc, last, c)
			}
			if guarded {
				th.EndGuards()
			}
			if last != litmus.NoReg && rng.Intn(4) == 0 {
				th.Use(last) // a branch: later ops are control-dependent
			}
		}
	}
	return p
}

// TestStreamingMatchesMaterializeRandom extends the streaming pipeline's
// determinism contract past the catalog: on seeded random programs, the
// memo-free two-phase reference and the checker agree under every model,
// and the checks build and analyze exactly one execution per distinct
// order. A weighted walk (a quantum read into no register) must reach
// the same verdict, executions and analyzed count as the reference; its
// telemetry record may differ only by fewer transitions and no more
// sleep-set skips.
func TestStreamingMatchesMaterializeRandom(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 50
	}
	memoized, weighted := 0, 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		p := randomQuantumProgram(seed)
		for _, m := range []core.Model{core.DRF0, core.DRF1, core.DRFrlx} {
			ref := telemetry.NewCheck(p.Name, m.String())
			want, err := checkTwoPhase(p, m, ref)
			if err != nil {
				t.Fatalf("seed %d/%s two-phase: %v", seed, m, err)
			}
			execs, orders := orderStats(t, p, m)
			if execs > orders {
				memoized++
			}
			c := telemetry.NewCheck(p.Name, m.String())
			got, err := CheckProgramWith(p, m, CheckOptions{Telemetry: c})
			if err != nil {
				t.Fatalf("seed %d/%s: %v", seed, m, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d/%s: verdict diverges\n got: %+v\nwant: %+v", seed, m, got, want)
			}
			s := c.Snapshot()
			if s.Executions != execs || s.Analyzed != orders {
				t.Errorf("seed %d/%s: %d executions, %d analyzed; want %d, %d",
					seed, m, s.Executions, s.Analyzed, execs, orders)
			}
			// Memo hits are counted at the leaf, never materialized.
			if s.Recycled+s.Allocated != s.Analyzed {
				t.Errorf("seed %d/%s: %d recycled + %d allocated executions, want one per analysis (%d)",
					seed, m, s.Recycled, s.Allocated, s.Analyzed)
			}
			// The weighted walk is a subtree of the reference's: it differs
			// only in the transitions and sleep-set skips it never took.
			rec, wantRec := c.Record(), ref.Record()
			if rec.Transitions < wantRec.Transitions {
				if m == core.DRFrlx {
					weighted++
				}
				if rec.SleepSkips > wantRec.SleepSkips {
					t.Errorf("seed %d/%s: weighted walk has %d sleep-set skips, more than the reference's %d",
						seed, m, rec.SleepSkips, wantRec.SleepSkips)
				}
				rec.Transitions, rec.SleepSkips, rec.PrunedPct = wantRec.Transitions, wantRec.SleepSkips, wantRec.PrunedPct
			}
			if rec != wantRec {
				t.Errorf("seed %d/%s: record = %+v, want %+v", seed, m, c.Record(), wantRec)
			}
		}
	}
	// Guard against a generator that stops exercising the memo or the
	// weighted walk.
	if memoized < seeds/4 {
		t.Errorf("only %d of %d seed/model checks repeat an order", memoized, 3*seeds)
	}
	if weighted < seeds/30 {
		t.Errorf("only %d of %d seeds walk a weighted path under DRFrlx", weighted, seeds)
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
