// The constraint solver is the checker behind CheckOptions.Mode "solve":
// instead of enumerating every SC execution and classifying races per
// execution, it treats the check as a constraint problem over the static
// event tables of the analysis arena and solves for racy executions.
//
// The pipeline has three phases:
//
//  1. Static propagation (solve.static): candidate race pairs — cross
//     thread, same location, at least one write — are derived from the
//     static tables the analysis arena computes once per program (its
//     ensure), using the same word-parallel rel kernels the
//     per-execution analysis uses. A static happens-before over-approximation
//     maxHB = (po ∪ pw×pr∩sameloc)⁺ then splits every per-kind
//     candidate three ways: pairs whose race conditions hold in every
//     execution are implied (unit propagation), pairs whose kind
//     conditions can never hold are refuted (conflicts), and the
//     residue stays undecided.
//  2. Confirmation search (solve.search): only when undecided pairs
//     remain, a sequential POR enumeration runs with an early-stop
//     visitor — each confirmed pair is closed under the program's
//     thread automorphisms (symmetry reduction: identical threads
//     confirm each other's orbits), and the search stops as soon as
//     every undecided pair is confirmed. If it instead runs to
//     exhaustion, the verdict is still exact (the POR union equals the
//     full union) and the visited executions double as the SC result
//     set.
//  3. State search (solve.states): the SC result set, when phase 2 did
//     not already produce it, comes from scStates, the SC
//     instance of the state engine the system model also runs: a
//     memoized DFS over (events run, memory, registers) states of the
//     quantum-equivalent program with thread-symmetry-canonical memo
//     keys. Its decision/propagation/conflict/learned counters map onto
//     DPLL vocabulary (branching states, forced moves, memo hits,
//     memoized states).
//
// The solver is verdict-only and exact: it checks the program as given
// (the canonical form of canon.go is only the checking service's cache
// key) and reports precisely the race pairs and SC results the
// enumerator would, while heavily contended programs whose interleaving
// count is intractable resolve statically or stop early. The enumerator
// remains the differential oracle (FuzzSolveMatchesEnumerate).

package memmodel

import (
	"sort"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel/rel"
	"rats/internal/memmodel/telemetry"
)

// solveCheck is CheckProgramWith's ModeSolve: the three phases above on
// p0 under m.
func solveCheck(p0 *litmus.Program, m core.Model, opts CheckOptions) (*Verdict, error) {
	if err := p0.Validate(); err != nil {
		return nil, err
	}
	p := p0.Under(m)

	tel := opts.Telemetry
	effLimit := opts.Limit
	if effLimit == 0 {
		effLimit = DefaultLimit
	}
	tel.Begin(int64(effLimit))
	if opts.Ctx != nil {
		if cerr := opts.Ctx.Err(); cerr != nil {
			tel.Finish(telemetry.StateStopped)
			return nil, &CancelError{Prog: p.Name, Phase: "solve", Err: cerr}
		}
	}
	sp := opts.Span

	an := new(analyzer)
	stSpan := sp.Child("solve.static")
	cs := buildConstraints(an, p, m)
	stSpan.SetInt("implied", cs.nImplied)
	stSpan.SetInt("refuted", cs.nRefuted)
	stSpan.SetInt("undecided", cs.nUndecided)
	stSpan.End()

	// Phase 2: confirmation search for the undecided residue. The
	// visitor collects SC result keys as it goes: if the search runs to
	// exhaustion (no early stop), those keys are the full SC result set
	// and phase 3 is skipped.
	execs := 0
	var scResults map[string]bool
	exhaustive := false
	if cs.nUndecided > 0 {
		se := sp.Child("solve.search")
		tel.SetSpan(se)
		collected := map[string]bool{}
		stopped := false
		// Each analyzed execution goes back to the enumerator, which
		// refills it for the next leaf, as in CheckProgramWith.
		var spare *Execution
		eo := EnumOptions{
			Quantum: true, Limit: opts.Limit, Ctx: opts.Ctx,
			TransitionLimit: opts.TransitionLimit,
			Telemetry:       tel,
			Recycle: func() *Execution {
				ex := spare
				spare = nil
				return ex
			},
			Visit: func(ex *Execution) error {
				execs++
				collected[ex.ResultKey()] = true
				a := an.Analyze(ex)
				spare = ex
				for _, k := range cs.kinds {
					if len(cs.undecided[k]) == 0 {
						continue
					}
					for _, pr := range a.Races[k] {
						cs.confirm(k, pr)
					}
				}
				if cs.nUndecided == 0 {
					stopped = true
					return ErrStop
				}
				return nil
			},
		}
		_, serr := Enumerate(p, eo)
		tel.SetSpan(nil)
		se.SetInt("executions", int64(execs))
		se.SetInt("confirmed", cs.nConfirmed)
		se.End()
		if serr != nil {
			tel.Finish(stateForErr(serr))
			return nil, serr
		}
		if !stopped {
			scResults = collected
			exhaustive = true
		}
	}

	// Phase 3: the state engine's SC instance for the SC result set.
	var st stateCounts
	if !exhaustive {
		ss := sp.Child("solve.states")
		var serr error
		scResults, st, serr = scStates(p, opts, cs.classThreads)
		ss.SetInt("states", st.Learned)
		ss.SetInt("memo_hits", st.MemoHits)
		ss.End()
		if serr != nil {
			tel.Finish(stateForErr(serr))
			return nil, serr
		}
	}
	tel.AddSolve(st.Decisions, st.Propagations+cs.nImplied, st.MemoHits+cs.nRefuted, st.Learned)

	v := &Verdict{
		Prog: p0.Name, Model: m, Legal: true,
		Races:     map[RaceKind][]string{},
		SCResults: scResults,
		Execs:     execs,
	}
	var distinct int64
	for _, k := range cs.kinds {
		pairs := append(cs.implied[k], cs.confirmed[k]...)
		if len(pairs) == 0 {
			continue
		}
		descs := make([]string, 0, len(pairs))
		for _, pr := range pairs {
			descs = append(descs, cs.desc(pr))
		}
		sort.Strings(descs)
		v.Races[k] = descs
		v.Legal = false
		distinct += int64(len(descs))
	}
	tel.SetUnion(distinct, distinct, int64(len(scResults)))
	tel.Finish(telemetry.StateDone)
	return v, nil
}

// constraints is the solver's static decision state: per race kind, the
// candidate pairs split into implied (race in every execution), refuted
// (race in no execution), and undecided (needs the confirmation search).
type constraints struct {
	kinds []RaceKind

	// Event tables for descriptions and orbit closure. thread/class
	// alias the analyzer arena (valid while the program is unchanged);
	// id is the arena's thread-major event numbering.
	thread []int
	opIdx  []int
	class  []core.Class
	id     [][]int

	// Thread-symmetry classes: threads with identical op lists are
	// interchangeable by a program automorphism, so a confirmed race
	// pair confirms its whole orbit.
	classOf      []int
	classThreads [][]int

	implied   map[RaceKind][][2]int
	confirmed map[RaceKind][][2]int
	undecided map[RaceKind]map[[2]int]bool

	nImplied, nRefuted, nUndecided, nConfirmed int64
}

// desc renders a pair with pairDesc; event IDs are thread-major, so
// i < j already is the canonical (thread, opIndex)-lexicographic
// orientation.
func (cs *constraints) desc(pr [2]int) string {
	i, j := pr[0], pr[1]
	return pairDesc(cs.thread[i], cs.opIdx[i], cs.class[i], cs.thread[j], cs.opIdx[j], cs.class[j])
}

// confirm moves a witnessed pair (and its thread-symmetry orbit) from
// undecided to confirmed. Identical threads induce program
// automorphisms, and the union race set is automorphism-closed, so one
// witness confirms every image of the pair under permutations of its
// endpoints' thread classes.
func (cs *constraints) confirm(k RaceKind, pr [2]int) {
	und := cs.undecided[k]
	if und == nil || !und[pr] {
		return
	}
	i, j := pr[0], pr[1]
	t1, o1 := cs.thread[i], cs.opIdx[i]
	t2, o2 := cs.thread[j], cs.opIdx[j]
	for _, a := range cs.classThreads[cs.classOf[t1]] {
		for _, b := range cs.classThreads[cs.classOf[t2]] {
			if a == b {
				continue
			}
			x, y := cs.id[a][o1], cs.id[b][o2]
			if x > y {
				x, y = y, x
			}
			q := [2]int{x, y}
			if und[q] {
				delete(und, q)
				cs.nUndecided--
				cs.nConfirmed++
				cs.confirmed[k] = append(cs.confirmed[k], q)
			}
		}
	}
}

// buildConstraints computes the static constraint store for p under m:
// the per-kind candidate pairs and their implied/refuted/undecided
// split. It reuses the analyzer arena's static tables as-is and builds
// the candidate and ordering relations with the rel kernels.
func buildConstraints(an *analyzer, p *litmus.Program, m core.Model) *constraints {
	an.ensure(p)
	n := an.n
	nT := len(p.Threads)

	cs := &constraints{
		thread:    an.evThread,
		class:     an.evClass,
		id:        an.lay.id,
		implied:   map[RaceKind][][2]int{},
		confirmed: map[RaceKind][][2]int{},
		undecided: map[RaceKind]map[[2]int]bool{},
	}
	cs.kinds = forbiddenKinds(m)

	// Per-event op facts the kind conditions need: op index, guard-free
	// presence (threads run to completion, so guards are the only
	// absence source), and the pairwise-commutativity inputs (Analyze
	// passes Operand.Const regardless of registers, so the mirror here
	// is exact, not an approximation).
	cs.opIdx = make([]int, n)
	always := make([]bool, n)
	aop := make([]core.AtomicOp, n)
	operand := make([]int64, n)
	for t := range p.Threads {
		ops := p.Threads[t].Ops
		for oi := range ops {
			op := &ops[oi]
			id := an.lay.id[t][oi]
			if id < 0 {
				continue
			}
			cs.opIdx[id] = oi
			always[id] = len(op.Guards) == 0
			aop[id] = op.AOp
			operand[id] = op.Operand.Const
		}
	}

	// Thread-symmetry classes by semantic op-list identity (constants,
	// guards and dependencies included, not just Op.String's summary).
	cs.classOf, cs.classThreads = symmetryClasses(p)

	// Static event-set masks and relations, mirroring buildRelations'
	// per-execution construction without the Present mask.
	threadSets := rel.MakeBitsSlab(n, nT)
	locSets := rel.MakeBitsSlab(n, len(an.lay.locs))
	for i := 0; i < n; i++ {
		threadSets[an.evThread[i]].Set(i)
		locSets[an.evLoc[i]].Set(i)
	}
	writes := rel.BitsFromBools(an.evWrites)
	rels := rel.NewSlab(n, 6)
	sameLoc, cand, maxHB, unord, tmp, kindRel := rels[0], rels[1], rels[2], rels[3], rels[4], rels[5]
	for i := 0; i < n; i++ {
		sl := sameLoc.Row(i)
		sl.CopyFrom(locSets[an.evLoc[i]])
		sl.Unset(i)
		// Candidate: conflicting (same loc, ≥1 write) and cross-thread.
		cr := cand.Row(i)
		cr.CopyFrom(sl)
		if !an.evWrites[i] {
			cr.AndIn(writes)
		}
		cr.AndNotIn(threadSets[an.evThread[i]])
		// Static program order: later events of i's thread.
		pr := maxHB.Row(i)
		pr.CopyFrom(threadSets[an.evThread[i]])
		pr.KeepAbove(i)
	}
	// maxHB = (po ∪ (pw × pr ∩ sameloc))⁺ over-approximates hb1 of every
	// execution: execution po rows are Present-masked subsets of the
	// static rows, and so1 ⊆ pw×pr ∩ CO ⊆ pw×pr ∩ sameloc. Hence pairs
	// unordered by maxHB are hb1-unordered — i.e. they race — in every
	// execution in which both events are present.
	tmp.CrossIn(an.pwStatic, an.prStatic)
	tmp.InterIn(sameLoc)
	maxHB.UnionIn(tmp)
	maxHB.TransCloseIn()
	unord.CopyFrom(cand)
	tmp.CopyFrom(cand)
	tmp.InterIn(maxHB)
	unord.DiffIn(maxHB)
	tmp.ForEach(func(i, j int) { unord.Clear(j, i) })

	// Kind observability mirrors of relations.go's observedInto:
	// possiblyObs(x) — the loaded value can be observed in some
	// execution; obsAlways(x) — it is observed in every execution.
	possiblyObs := func(x int) bool {
		return an.evReads[x] && (an.obsAlways[x] || len(an.obsUse[x]) > 0)
	}
	obsAlways := func(x int) bool {
		if !an.evReads[x] || !always[x] {
			return false
		}
		if an.obsAlways[x] {
			return true
		}
		for _, u := range an.obsUse[x] {
			if always[u] {
				return true
			}
		}
		return false
	}

	for _, k := range cs.kinds {
		switch k {
		case DataRace:
			kindRel.InterAloInto(cand, an.classBits[core.Data])
		case CommutativeRace:
			kindRel.InterAloInto(cand, an.classBits[core.Commutative])
		case NonOrderingRace:
			kindRel.InterAloInto(cand, an.classBits[core.NonOrdering])
			kindRel.RestrictToIn(an.atomicStatic)
		case QuantumRace:
			kindRel.InterAloInto(cand, an.classBits[core.Quantum])
			tmp.CrossIn(an.classBits[core.Quantum], an.classBits[core.Quantum])
			kindRel.DiffIn(tmp)
		case SpeculativeRace:
			kindRel.InterAloInto(cand, an.classBits[core.Speculative])
		}
		kindRel.ForEach(func(i, j int) {
			if i >= j {
				return
			}
			// guaranteed: both events present and racing in every
			// execution — the precondition for implying a pair.
			guaranteed := always[i] && always[j] && unord.Has(i, j)
			switch k {
			case DataRace, QuantumRace:
				// No extra dynamic condition beyond being a race.
				if guaranteed {
					cs.imply(k, i, j)
				} else {
					cs.defer_(k, i, j)
				}
			case CommutativeRace:
				pairwise := core.Commutes(aop[i], operand[i], aop[j], operand[j])
				switch {
				case pairwise && !possiblyObs(i) && !possiblyObs(j):
					// Commutative and never observed: not a
					// commutative race in any execution.
					cs.nRefuted++
				case guaranteed && (!pairwise || obsAlways(i) || obsAlways(j)):
					cs.imply(k, i, j)
				default:
					cs.defer_(k, i, j)
				}
			case SpeculativeRace:
				bothW := an.evWrites[i] && an.evWrites[j]
				switch {
				case !bothW && !possiblyObs(i) && !possiblyObs(j):
					cs.nRefuted++
				case guaranteed && (bothW || obsAlways(i) || obsAlways(j)):
					cs.imply(k, i, j)
				default:
					cs.defer_(k, i, j)
				}
			case NonOrderingRace:
				// The non-ordering condition (a CO-oriented edge
				// carrying unique ordering responsibility, minus the
				// per-execution data/commutative overlap) is inherently
				// dynamic: never implied, decided by confirmation.
				cs.defer_(k, i, j)
			}
		})
	}
	return cs
}

// imply records a pair proven to race in every execution.
func (cs *constraints) imply(k RaceKind, i, j int) {
	cs.implied[k] = append(cs.implied[k], [2]int{i, j})
	cs.nImplied++
}

// defer_ records a pair the static split cannot decide.
func (cs *constraints) defer_(k RaceKind, i, j int) {
	if cs.undecided[k] == nil {
		cs.undecided[k] = map[[2]int]bool{}
	}
	cs.undecided[k][[2]int{i, j}] = true
	cs.nUndecided++
}
