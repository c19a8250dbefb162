package memmodel

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel/telemetry"
)

// referenceSystemResults is the system model's search without the state
// engine's reductions: a DFS over preservedPO-enabled events memoized on
// the exact (run set, memory, registers) state, in which an op whose
// guards fail runs as an ordinary no-op move. It also returns the real
// values the Quantum-class accesses loaded or stored.
func referenceSystemResults(p *litmus.Program) (results map[string]bool, qvals map[int64]bool) {
	lay := layout(p)
	ppo := preservedPO(p)
	type event struct {
		t     int
		op    *litmus.Op
		preds []int
	}
	evs := make([]event, lay.n)
	for t, th := range p.Threads {
		for i := range th.Ops {
			if id := lay.id[t][i]; id >= 0 {
				evs[id] = event{t: t, op: &th.Ops[i]}
			}
		}
	}
	ppo.ForEach(func(i, j int) { evs[j].preds = append(evs[j].preds, i) })
	locs := p.Locs()
	mem := map[litmus.Loc]int64{}
	for _, l := range locs {
		mem[l] = p.Init[l]
	}
	regs := make([][]int64, len(p.Threads))
	for t, th := range p.Threads {
		regs[t] = make([]int64, th.NumRegs())
	}
	done := make([]bool, lay.n)
	seen := map[string]bool{}
	results, qvals = map[string]bool{}, map[int64]bool{}
	var step func(nDone int)
	step = func(nDone int) {
		if nDone == lay.n {
			results[resultKey(mem)] = true
			return
		}
		key := make([]byte, len(done))
		for i, d := range done {
			if key[i] = '0'; d {
				key[i] = '1'
			}
		}
		for _, l := range locs {
			key = strconv.AppendInt(append(key, ','), mem[l], 10)
		}
		for _, r := range regs {
			for _, v := range r {
				key = strconv.AppendInt(append(key, ','), v, 10)
			}
		}
		if seen[string(key)] {
			return
		}
		seen[string(key)] = true
	next:
		for i, ev := range evs {
			if done[i] {
				continue
			}
			for _, j := range ev.preds {
				if !done[j] {
					continue next
				}
			}
			op, r := ev.op, regs[ev.t]
			oldMem, oldReg := mem[op.Loc], int64(0)
			ran := op.GuardsHold(r)
			if ran {
				if op.Dst != litmus.NoReg {
					oldReg, r[op.Dst] = r[op.Dst], oldMem
				}
				if op.Writes() {
					mem[op.Loc] = op.AOp.Apply(oldMem, op.Operand.Eval(r), op.Expected.Eval(r))
				}
				if op.Class == core.Quantum {
					if op.Reads() {
						qvals[oldMem] = true
					}
					if op.Writes() {
						qvals[mem[op.Loc]] = true
					}
				}
			}
			done[i] = true
			step(nDone + 1)
			done[i] = false
			mem[op.Loc] = oldMem
			if ran && op.Dst != litmus.NoReg {
				r[op.Dst] = oldReg
			}
		}
	}
	step(0)
	return results, qvals
}

// longThreadProgram has two identical threads of 66 events, so a done
// set spans more than one machine word and symmetric sub-keys compare
// across it. In program order, every path on which t2's store of X
// precedes a thread's store of X 1 passes through a state that differs
// from a later one only in that thread's done flag 64, so a key that
// dropped flags past the first word would merge the two and lose a final
// memory. The system may run the store of X 1 before the last four loads
// of W, which leaves done flags 60-63 clear while flag 64 is set; the
// paired loads before them keep the search small.
func longThreadProgram() *litmus.Program {
	p := litmus.New("long")
	for _, name := range []string{"t0", "t1"} {
		th := p.Thread(name)
		for i := 0; i < 64; i++ {
			c := core.Paired
			if i >= 60 {
				c = core.Data
			}
			th.LoadDiscard("W", c)
		}
		th.Store("X", 1, core.Unpaired)
		th.Store("Y", 1, core.Paired)
	}
	p.Thread("t2").Store("X", 0, core.Unpaired)
	return p
}

// engineOraclePrograms are the state engine's differential-test inputs:
// the catalog, randomQuantumProgram's first seeds, and longThreadProgram.
func engineOraclePrograms(t *testing.T) []*litmus.Program {
	var progs []*litmus.Program
	for _, tc := range litmus.Suite() {
		progs = append(progs, tc.Prog)
	}
	seeds := 1100
	if testing.Short() {
		seeds = 100
	}
	symmetric := 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		p := randomQuantumProgram(seed)
		if _, classes := symmetryClasses(p); len(classes) < len(p.Threads) {
			symmetric++
		}
		progs = append(progs, p)
	}
	// Guard against a generator that stops forming symmetry classes.
	if symmetric < seeds/10 {
		t.Fatalf("only %d of %d random programs have identical threads", symmetric, seeds)
	}
	return append(progs, longThreadProgram())
}

// TestSystemMatchesReference: the state engine's system instance, with
// its symmetry-canonical memo keys and guard skipping, reaches exactly
// the final memories and quantum values of the reduction-free reference
// search, on every oracle program under every model's labelling.
func TestSystemMatchesReference(t *testing.T) {
	for _, p := range engineOraclePrograms(t) {
		for _, m := range []core.Model{core.DRF0, core.DRF1, core.DRFrlx} {
			q := p.Under(m)
			e, err := systemSearch(q, 0, nil)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			want, wantVals := referenceSystemResults(q)
			if !reflect.DeepEqual(e.results, want) {
				t.Errorf("%s: system results %v, reference %v", q.Name, e.results, want)
			}
			if !reflect.DeepEqual(e.qvals, wantVals) {
				t.Errorf("%s: quantum values %v, reference %v", q.Name, e.qvals, wantVals)
			}
		}
	}
}

// TestSCStatesMatchesEnumeration: the state engine's SC instance finds
// exactly enumeration's SC result set on every oracle program under
// every model.
func TestSCStatesMatchesEnumeration(t *testing.T) {
	for _, p := range engineOraclePrograms(t) {
		for _, m := range []core.Model{core.DRF0, core.DRF1, core.DRFrlx} {
			v, err := CheckProgram(p, m)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, m, err)
			}
			q := p.Under(m)
			_, classes := symmetryClasses(q)
			got, _, err := scStates(q, CheckOptions{}, classes)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, m, err)
			}
			if !reflect.DeepEqual(got, v.SCResults) {
				t.Errorf("%s/%s: state engine %v, enumeration %v", p.Name, m, got, v.SCResults)
			}
		}
	}
}

// TestSCStatesBudgetAndCancel: the SC instance's transition budget and
// cancellation surface as the solver's phase "solve" errors, the budget's
// with the telemetry record at trip time.
func TestSCStatesBudgetAndCancel(t *testing.T) {
	p := contendedProgram(7, 3).Under(core.DRFrlx)
	_, classes := symmetryClasses(p)
	tel := telemetry.NewCheck(p.Name, "solve")
	_, _, err := scStates(p, CheckOptions{TransitionLimit: checkStride, Telemetry: tel}, classes)
	var le *LimitError
	if !errors.As(err, &le) || le.Phase != "solve" || le.Limit != checkStride {
		t.Fatalf("budget: got %v, want a phase solve *LimitError", err)
	}
	if le.Telemetry == nil || le.Telemetry.Transitions == 0 {
		t.Errorf("budget trip carries telemetry %+v", le.Telemetry)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = scStates(p, CheckOptions{Ctx: ctx}, classes)
	var ce *CancelError
	if !errors.As(err, &ce) || ce.Phase != "solve" || !errors.Is(err, context.Canceled) {
		t.Errorf("cancel: got %v, want a phase solve *CancelError", err)
	}
}
