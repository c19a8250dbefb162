package memmodel

import (
	"fmt"
	"sort"
	"strconv"
	"time"

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
//   - paired-read → anything-later (acquire),
//   - anything-earlier → paired-write (release),
//   - program order between paired/unpaired atomics (successive unpaired
//     accesses occur in program order),
//
// and reorders everything else freely. Executions are total orders
// consistent with this preserved program order, with loads reading the
// latest store. Comparing the reachable final states against the SC
// states of the quantum-equivalent program validates Theorem 3.1 on
// litmus tests.

// PreservedPO computes the preserved-program-order relation over a
// program's events under the given model's effective labelling.
func PreservedPO(p *litmus.Program) rel.Rel {
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
			// Ordering against earlier memory ops.
			for j := 0; j < i; j++ {
				pj := th.Ops[j]
				if pj.IsBranch {
					continue
				}
				idJ := lay.id[t][j]
				switch {
				case pj.Loc == op.Loc:
					// Per-location SC.
					ppo.Set(idJ, idI)
				case (pj.Class == core.Paired || pj.Class == core.Acquire) && pj.Reads():
					// Acquire: the read is ordered before all later ops.
					ppo.Set(idJ, idI)
				case (op.Class == core.Paired || op.Class == core.Release) && op.Writes():
					// Release: all earlier ops ordered before the write.
					ppo.Set(idJ, idI)
				case isOrderedAtomic(pj.Class) && isOrderedAtomic(op.Class):
					// Paired/unpaired (and acquire/release) atomics
					// respect program order among themselves.
					ppo.Set(idJ, idI)
				}
			}
			if op.Dst != litmus.NoReg {
				defs[op.Dst] = i
			}
		}
	}
	return ppo
}

// isOrderedAtomic reports whether a class keeps program order with other
// atomics (overlap at most atomic-serial).
func isOrderedAtomic(c core.Class) bool {
	return c == core.Paired || c == core.Unpaired || c == core.Acquire || c == core.Release
}

// SystemResults enumerates every final memory state a straightforward
// DRFrlx system may produce for the program (quantum accesses execute
// with their real values — this models the machine, not the
// quantum-equivalent program). limit bounds the number of explored
// executions (0 = DefaultLimit).
func SystemResults(p *litmus.Program, limit int) (map[string]bool, error) {
	return SystemResultsWith(p, limit, nil)
}

// SystemResultsWith is SystemResults with instrumentation: the telemetry
// check (nil = disabled) counts completed system executions, DFS
// transitions, and seen-state memo hits, and is marked Begin/Finish
// around the search.
func SystemResultsWith(p *litmus.Program, limit int, tel *telemetry.Check) (map[string]bool, error) {
	if err := p.Validate(); err != nil {
		tel.Begin(int64(limit))
		tel.Finish(telemetry.StateFailed)
		return nil, err
	}
	if limit == 0 {
		limit = DefaultLimit
	}
	tel.Begin(int64(limit))
	start := time.Now()
	lay := layout(p)
	ppo := PreservedPO(p)

	// Per-event static info.
	type evInfo struct {
		thread, opIndex int
		op              litmus.Op
	}
	evs := make([]evInfo, lay.n)
	preds := make([][]int, lay.n)
	for t, th := range p.Threads {
		for i, op := range th.Ops {
			id := lay.id[t][i]
			if id < 0 {
				continue
			}
			evs[id] = evInfo{thread: t, opIndex: i, op: op}
		}
	}
	for i := 0; i < lay.n; i++ {
		for j := 0; j < lay.n; j++ {
			if ppo.Has(j, i) {
				preds[i] = append(preds[i], j)
			}
		}
	}

	results := map[string]bool{}
	mem := map[litmus.Loc]int64{}
	locs := p.Locs()
	for _, l := range locs {
		mem[l] = p.Init[l]
	}
	regs := make([][]int64, len(p.Threads))
	for t, th := range p.Threads {
		regs[t] = make([]int64, th.NumRegs())
	}
	done := make([]bool, lay.n)
	nDone := 0
	count := 0

	// Seen-state memoization: the search state is fully determined by
	// (done set, memory, register files) — the preds relation is static —
	// and nDone strictly increases along any path, so the state graph is
	// a DAG. Once a state has been explored, every final result reachable
	// from it is already in the results set, and revisiting it (different
	// interleavings of commuting prefixes converge on the same state)
	// would only re-derive them. This collapses the factorially redundant
	// part of the search, which is what makes the exhaustive theorem
	// fuzzer run without an execution-count escape hatch.
	seen := map[string]bool{}
	var keyBuf []byte
	stateKey := func() string {
		b := keyBuf[:0]
		for i := 0; i < lay.n; i++ {
			if done[i] {
				b = append(b, '1')
			} else {
				b = append(b, '0')
			}
		}
		for _, l := range locs {
			b = strconv.AppendInt(b, mem[l], 10)
			b = append(b, ',')
		}
		for t := range regs {
			for _, v := range regs[t] {
				b = strconv.AppendInt(b, v, 10)
				b = append(b, ',')
			}
		}
		keyBuf = b
		return string(b)
	}

	var step func() error
	step = func() error {
		if nDone == lay.n {
			count++
			if count > limit {
				return newLimitError(p.Name, "system model", limit, int64(count-1), start, tel)
			}
			tel.IncEnumerated()
			results[resultKey(mem)] = true
			return nil
		}
		k := stateKey()
		if seen[k] {
			tel.AddMemoHits(1)
			return nil
		}
		seen[k] = true
		tel.IncTransition()
	next:
		for i := 0; i < lay.n; i++ {
			if done[i] {
				continue
			}
			for _, pr := range preds[i] {
				if !done[pr] {
					continue next
				}
			}
			e := evs[i]
			op := e.op
			if !op.GuardsHold(regs[e.thread]) {
				// Skipped guarded op: executes as a no-op.
				done[i] = true
				nDone++
				if err := step(); err != nil {
					return err
				}
				done[i] = false
				nDone--
				continue
			}
			oldMem := mem[op.Loc]
			var oldReg int64
			if op.Dst != litmus.NoReg {
				oldReg = regs[e.thread][op.Dst]
				regs[e.thread][op.Dst] = oldMem
			}
			if op.Writes() {
				operand := op.Operand.Eval(regs[e.thread])
				expected := op.Expected.Eval(regs[e.thread])
				mem[op.Loc] = op.AOp.Apply(oldMem, operand, expected)
			}
			done[i] = true
			nDone++
			if err := step(); err != nil {
				return err
			}
			done[i] = false
			nDone--
			mem[op.Loc] = oldMem
			if op.Dst != litmus.NoReg {
				regs[e.thread][op.Dst] = oldReg
			}
		}
		return nil
	}
	if err := step(); err != nil {
		tel.Finish(telemetry.StateLimit)
		return nil, err
	}
	tel.Finish(telemetry.StateDone)
	return results, nil
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
// and sysTel instruments it.
func ValidateTheoremVerdict(p *litmus.Program, verdict *Verdict, limit int, sysTel *telemetry.Check) (*TheoremReport, error) {
	if verdict.Model != core.DRFrlx {
		return nil, fmt.Errorf("memmodel: Theorem 3.1 needs the DRFrlx verdict of %s, got %s", p.Name, verdict.Model)
	}
	sys, err := SystemResultsWith(p.Under(core.DRFrlx), limit, sysTel)
	if err != nil {
		return nil, err
	}
	rep := &TheoremReport{
		Prog: p.Name, Legal: verdict.Legal, SystemSC: true,
		SystemCount: len(sys), SCCount: len(verdict.SCResults),
	}
	for k := range sys {
		if !verdict.SCResults[k] {
			rep.SystemSC = false
			rep.NonSCResults = append(rep.NonSCResults, k)
		}
	}
	sort.Strings(rep.NonSCResults)
	return rep, nil
}
