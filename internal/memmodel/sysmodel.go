package memmodel

import (
	"fmt"
	"slices"
	"sort"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel/rel"
	"rats/internal/memmodel/telemetry"
)

// The system-centric model (Section 3.8): it enumerates every execution a
// straightforward compliant DRFrlx system may produce. The system
// preserves, per thread:
//
//   - per-location program order (per-location SC / cache coherence),
//   - syntactic address/data/control dependencies,
//   - the pairs of the ordering rule core.Model.Keeps: acquire read →
//     anything later, anything earlier → release write, and any atomic →
//     later paired, unpaired, acquire or release atomic (successive
//     unpaired accesses occur in program order, and a relaxed atomic
//     does not overtake a later unpaired one),
//
// and reorders everything else freely. Executions are total orders
// consistent with this preserved program order, with loads reading the
// latest store. The state engine (states.go) searches them as its system
// instance; comparing the reachable final states against the SC states of
// the quantum-equivalent program, the engine's SC instance, validates
// Theorem 3.1 on litmus tests.

// preservedPO computes a DRFrlx system's preserved-program-order relation
// over a program's events. On a program relabelled for model m
// (Program.Under), DRFrlx's rule is m's.
func preservedPO(p *litmus.Program) rel.Rel {
	lay := layout(p)
	ppo := rel.New(lay.n)
	for t, th := range p.Threads {
		// defs[r] = op index that defined register r.
		defs := map[litmus.Reg]int{}
		// ctrlFrom: first op index after which all ops are
		// control-dependent on the defining ops in ctrlDefs.
		type ctrlDep struct {
			after int
			def   int
		}
		var ctrls []ctrlDep
		for i, op := range th.Ops {
			if op.IsBranch {
				for _, rg := range op.Cond.Regs {
					if d, ok := defs[rg]; ok {
						ctrls = append(ctrls, ctrlDep{after: i, def: d})
					}
				}
				continue
			}
			idI := lay.id[t][i]
			// Dependencies: operand/expected/address/guard registers.
			depRegs := [][]litmus.Reg{op.Operand.Regs, op.Expected.Regs, op.AddrDeps}
			for _, g := range op.Guards {
				depRegs = append(depRegs, g.Regs())
			}
			for _, regs := range depRegs {
				for _, rg := range regs {
					if d, ok := defs[rg]; ok {
						ppo.Set(lay.id[t][d], idI)
					}
				}
			}
			// Control dependencies from earlier branches.
			for _, c := range ctrls {
				if c.after < i {
					ppo.Set(lay.id[t][c.def], idI)
				}
			}
			// Ordering against earlier memory ops: per-location SC, and
			// the ordering rule between locations.
			acc := op.Access()
			for j := 0; j < i; j++ {
				pj := th.Ops[j]
				if !pj.IsBranch && (pj.Loc == op.Loc || core.DRFrlx.Keeps(pj.Access(), acc)) {
					ppo.Set(lay.id[t][j], idI)
				}
			}
			if op.Dst != litmus.NoReg {
				defs[op.Dst] = i
			}
		}
	}
	return ppo
}

// systemSearch enumerates every final memory state a straightforward
// DRFrlx system may produce for the program (quantum accesses execute
// with their real values — this models the machine, not the
// quantum-equivalent program). limit bounds the number of explored
// executions (0 = DefaultLimit). The telemetry check (nil = disabled)
// counts completed system executions, moves and memo hits, and is marked
// Begin/Finish around the search. The search is the state engine's
// system instance, so executions that converge on one state up to thread
// symmetry complete once. The finished engine's results hold the final
// memories and its qvals the real values its quantum accesses took.
func systemSearch(p *litmus.Program, limit int, tel *telemetry.Check) (*stateEngine, error) {
	if err := p.Validate(); err != nil {
		tel.Begin(int64(limit))
		tel.Finish(telemetry.StateFailed)
		return nil, err
	}
	if limit == 0 {
		limit = DefaultLimit
	}
	tel.Begin(int64(limit))
	_, classes := symmetryClasses(p)
	e := newStateEngine(p, preservedPO(p), nil, classes)
	e.limit, e.tel, e.phase = int64(limit), tel, "system model"
	if _, _, err := e.search(); err != nil {
		tel.Finish(telemetry.StateLimit)
		return nil, err
	}
	tel.Finish(telemetry.StateDone)
	return e, nil
}

// TheoremReport is the outcome of validating Theorem 3.1 on one program:
// whether every result the system model can produce is an SC result of
// the quantum-equivalent program.
type TheoremReport struct {
	Prog string
	// Legal is the DRFrlx verdict of the programmer-centric model.
	Legal bool
	// SystemSC reports whether system results ⊆ SC(quantum-equivalent)
	// results.
	SystemSC bool
	// NonSCResults lists system-producible results outside the SC set.
	NonSCResults []string
	SystemCount  int
	SCCount      int
}

// ValidateTheorem runs both models on a program under DRFrlx and compares
// result sets. Theorem 3.1 requires SystemSC whenever Legal.
func ValidateTheorem(p *litmus.Program) (*TheoremReport, error) {
	return ValidateTheoremWith(p, CheckOptions{}, nil)
}

// ValidateTheoremWith is ValidateTheorem with instrumentation: opts
// configures (and may instrument) the programmer-centric check, while
// sysTel instruments the system-model search as its own telemetry check.
func ValidateTheoremWith(p *litmus.Program, opts CheckOptions, sysTel *telemetry.Check) (*TheoremReport, error) {
	verdict, err := CheckProgramWith(p, core.DRFrlx, opts)
	if err != nil {
		return nil, err
	}
	return ValidateTheoremVerdict(p, verdict, opts.Limit, sysTel)
}

// ValidateTheoremVerdict validates Theorem 3.1 against verdict, an
// already computed DRFrlx verdict of p (from CheckProgramWith in any
// mode), so a caller that checked p under DRFrlx anyway pays only for
// the system-model search. limit bounds that search (0 = DefaultLimit)
// and sysTel instruments it. If a system result is missing from the
// verdict's SC set while the system's quantum accesses took values
// outside quantumDomain(p), the report compares against the SC set of
// p with the domain widened by those values.
func ValidateTheoremVerdict(p *litmus.Program, verdict *Verdict, limit int, sysTel *telemetry.Check) (*TheoremReport, error) {
	if verdict.Model != core.DRFrlx {
		return nil, fmt.Errorf("memmodel: Theorem 3.1 needs the DRFrlx verdict of %s, got %s", p.Name, verdict.Model)
	}
	q := p.Under(core.DRFrlx)
	sys, err := systemSearch(q, limit, sysTel)
	if err != nil {
		return nil, err
	}
	sc := verdict.SCResults
	for k := range sys.results {
		if sc[k] {
			continue
		}
		// In the quantum-equivalent program a quantum access may read or
		// write any value, but the SC side drew them from a finite
		// domain. A larger domain only adds SC results.
		dom := quantumDomain(q)
		n := len(dom)
		for v := range sys.qvals {
			if !slices.Contains(dom[:n], v) {
				dom = append(dom, v)
			}
		}
		if len(dom) > n {
			q.QuantumDomain = dom
			if sc, _, err = scStates(q, CheckOptions{}, sys.classes); err != nil {
				return nil, err
			}
		}
		break
	}
	rep := &TheoremReport{
		Prog: p.Name, Legal: verdict.Legal, SystemSC: true,
		SystemCount: len(sys.results), SCCount: len(sc),
	}
	for k := range sys.results {
		if !sc[k] {
			rep.SystemSC = false
			rep.NonSCResults = append(rep.NonSCResults, k)
		}
	}
	sort.Strings(rep.NonSCResults)
	return rep, nil
}
