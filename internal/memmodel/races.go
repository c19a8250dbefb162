package memmodel

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel/rel"
	"rats/internal/memmodel/telemetry"
	"rats/internal/rtrace"
)

// RaceKind is one of the paper's illegal race categories.
type RaceKind uint8

const (
	DataRace RaceKind = iota
	CommutativeRace
	NonOrderingRace
	QuantumRace
	SpeculativeRace

	// NumRaceKinds bounds the RaceKind enum for array indexing.
	NumRaceKinds = 5
)

func (k RaceKind) String() string {
	switch k {
	case DataRace:
		return "data race"
	case CommutativeRace:
		return "commutative race"
	case NonOrderingRace:
		return "non-ordering race"
	case QuantumRace:
		return "quantum race"
	case SpeculativeRace:
		return "speculative race"
	}
	return fmt.Sprintf("RaceKind(%d)", uint8(k))
}

// RaceKinds lists all kinds in precedence order.
func RaceKinds() []RaceKind {
	return []RaceKind{DataRace, CommutativeRace, NonOrderingRace, QuantumRace, SpeculativeRace}
}

// forbiddenKinds lists the race kinds model m forbids: DRF0 and DRF1
// forbid data races only, DRFrlx all five kinds.
func forbiddenKinds(m core.Model) []RaceKind {
	if m == core.DRFrlx {
		return RaceKinds()
	}
	return []RaceKind{DataRace}
}

// Analysis holds the per-execution race analysis: for each kind, the
// unordered event pairs (i < j) that form such a race, sorted
// lexicographically.
type Analysis struct {
	Exec  *Execution
	Races [NumRaceKinds][][2]int
}

// canonicalInto folds a symmetric relation to unordered (i<j) pairs,
// appending into buf (a reused arena buffer sliced to [:0]). Race
// relations are sparse, so it extracts the set pairs with the word-
// skipping AppendPairs kernel and sorted-insertes the normalized pairs
// (deduplicating the two orientations of a symmetric pair) rather than
// probing all n² cells.
func (a *analyzer) canonicalInto(buf [][2]int, r rel.Rel) [][2]int {
	a.pairBuf = r.AppendPairs(a.pairBuf[:0])
	for _, p := range a.pairBuf {
		i, j := p[0], p[1]
		if i > j {
			i, j = j, i
		}
		k := len(buf)
		for k > 0 && (buf[k-1][0] > i || (buf[k-1][0] == i && buf[k-1][1] > j)) {
			k--
		}
		if (k > 0 && buf[k-1] == [2]int{i, j}) || (k < len(buf) && buf[k] == [2]int{i, j}) {
			continue
		}
		buf = append(buf, [2]int{})
		copy(buf[k+1:], buf[k:])
		buf[k] = [2]int{i, j}
	}
	return buf
}

// Analyze runs the programmer-centric model of Listing 7 on one SC
// execution in a fresh arena. Callers analyzing many executions should
// use one analyzer's Analyze method instead.
func Analyze(ex *Execution) *Analysis {
	return new(analyzer).Analyze(ex)
}

// Analyze runs the programmer-centric model of Listing 7 on one SC
// execution: it computes data, commutative, non-ordering, quantum, and
// speculative races. The returned *Analysis borrows the arena and is
// valid until the next buildRelations/Analyze call on this analyzer.
func (a *analyzer) Analyze(ex *Execution) *Analysis {
	r := a.buildRelations(ex)

	// classBits are static per program (ensure filled them); only the
	// atomic mask depends on which events executed.
	a.atomicBits.CopyFrom(a.atomicStatic)
	a.atomicBits.AndIn(a.present)

	// data-race = race & (at-least-one Data)
	a.dRel.InterAloInto(r.Race, a.classBits[core.Data])

	// Commutative race (Section 3.2.3): race with at least one commutative
	// access where (a) the accesses are not pairwise commutative, or
	// (b) either access's loaded value is observed.
	a.cRel.ClearAll()
	a.tmp1.InterAloInto(r.Race, a.classBits[core.Commutative])
	a.tmp1.ForEach(func(i, j int) {
		ei, ej := &ex.Events[i], &ex.Events[j]
		pairwise := core.Commutes(ei.Op.AOp, ei.Op.Operand.Const, ej.Op.AOp, ej.Op.Operand.Const)
		observed := (r.IsR[i] && r.Observed[i]) || (r.IsR[j] && r.Observed[j])
		if !pairwise || observed {
			a.cRel.Set(i, j)
		}
	})

	// Non-ordering race (Section 3.3.3): a racing atomic pair (X, Y) with
	// at least one non-ordering access, whose conflict-order edge lies on
	// an ordering path from some conflicting (A, B) that has no valid
	// ordering path. Per Listing 7, pairs already flagged as data or
	// commutative races are excluded.
	a.nRel.ClearAll()
	a.tmp1.InterAloInto(r.Race, a.classBits[core.NonOrdering])
	a.tmp1.RestrictToIn(a.atomicBits)
	a.tmp1.DiffIn(a.dRel)
	a.tmp1.DiffIn(a.cRel)
	if !a.tmp1.Empty() {
		a.invReach.InverseInto(r.Reach)
		a.tmp1.ForEach(func(x, y int) {
			// Consider the T-ordered direction only.
			if r.CO.Has(x, y) && a.noPathIsUnique(r, x, y) {
				a.nRel.Set(x, y)
			}
		})
	}

	// Quantum race (Section 3.4.3): race between a quantum access and a
	// non-quantum access.
	a.qRel.InterAloInto(r.Race, a.classBits[core.Quantum])
	a.tmp1.CrossIn(a.classBits[core.Quantum], a.classBits[core.Quantum])
	a.qRel.DiffIn(a.tmp1)

	// Speculative race (Section 3.5.3): race with at least one speculative
	// access where both are writes, or the racy load's value is observed.
	a.sRel.ClearAll()
	a.tmp1.InterAloInto(r.Race, a.classBits[core.Speculative])
	a.tmp1.ForEach(func(i, j int) {
		bothWrites := r.IsW[i] && r.IsW[j]
		observed := (r.IsR[i] && r.Observed[i]) || (r.IsR[j] && r.Observed[j])
		if bothWrites || observed {
			a.sRel.Set(i, j)
		}
	})

	an := &a.analysis
	an.Exec = ex
	an.Races[DataRace] = a.canonicalInto(an.Races[DataRace][:0], a.dRel)
	an.Races[CommutativeRace] = a.canonicalInto(an.Races[CommutativeRace][:0], a.cRel)
	an.Races[NonOrderingRace] = a.canonicalInto(an.Races[NonOrderingRace][:0], a.nRel)
	an.Races[QuantumRace] = a.canonicalInto(an.Races[QuantumRace][:0], a.qRel)
	an.Races[SpeculativeRace] = a.canonicalInto(an.Races[SpeculativeRace][:0], a.sRel)
	return an
}

// noPathIsUnique reports whether the conflict-order edge (x → y) lies on
// an ordering path from some conflicting pair (A, B) that has no valid
// ordering path — i.e. the non-ordering edge carries ordering
// responsibility it is not allowed to carry.
//
// Bitset form of the quantified original: for each A with Reach(A, x),
// candidate B's are CO.Row(A) \ ValidPath.Row(A) ∩ Reach.Row(y), further
// intersected with POPath.Row(y) when the A-side lacks a po edge
// (POPath(A, x) fails); any surviving bit witnesses the race. CO is
// irreflexive, so A ≠ B needs no explicit mask. Requires a.invReach to
// hold the inverse of r.Reach.
func (a *analyzer) noPathIsUnique(r *relations, x, y int) bool {
	found := false
	a.invReach.Row(x).ForEach(func(src int) {
		if found {
			return
		}
		s := a.scr
		s.CopyFrom(r.CO.Row(src))
		s.AndNotIn(r.ValidPath.Row(src))
		s.AndIn(r.Reach.Row(y))
		if !r.POPath.Has(src, x) {
			s.AndIn(r.POPath.Row(y))
		}
		if s.Any() {
			found = true
		}
	})
	return found
}

// Verdict is the program-level outcome of checking every SC execution of
// the (quantum-equivalent) program.
type Verdict struct {
	Prog  string
	Model core.Model
	// Legal reports whether the program is race-free under the model
	// (a "DRF0/DRF1/DRFrlx program" per the respective definitions).
	Legal bool
	// Races collects, per kind, the distinct racy op pairs found across
	// executions, described as "thread.opindex" strings.
	Races map[RaceKind][]string
	// Execs is the number of SC executions checked (an execution whose
	// order was already analyzed counts without being built or analyzed
	// again, and one walked leaf counts once per load choice of the
	// quantum accesses on its path that read into no register: those
	// choices reach the same state, so the checker walks only the first).
	// The enumerator applies partial-order reduction, so this counts one
	// representative per trace of commuting accesses, not every
	// interleaving. In ModeSolve it counts the executions the solver's
	// confirmation search (phase 2 of solve.go) walked on the program as
	// given: 0 when the static split decided every pair.
	Execs int
	// SCResults is the set of final memory states over all SC executions
	// of the (quantum-equivalent) program.
	SCResults map[string]bool
}

// Mode selects the analysis backend CheckProgramWith runs.
type Mode string

const (
	// ModeEnumerate is the default: enumerate every SC execution (with
	// partial-order reduction) and classify races per execution.
	ModeEnumerate Mode = ""
	// ModeSolve routes the check through the constraint solver
	// (solve.go): race candidates are decided statically where possible
	// and only the residue is searched, so heavily contended programs
	// whose interleaving count is intractable still get exact verdicts.
	ModeSolve Mode = "solve"
)

// CheckOptions configures CheckProgram's analysis pipeline.
type CheckOptions struct {
	// Mode selects the backend: ModeEnumerate (default) enumerates and
	// classifies every SC execution; ModeSolve solves for racy executions
	// instead.
	Mode Mode
	// Limit overrides the enumerator's execution limit; 0 means the
	// enumerator default.
	Limit int
	// TransitionLimit, when positive, bounds the total DFS transitions
	// the check walks (EnumOptions.TransitionLimit): a work budget that
	// also caps searches whose interleavings mostly dead-end before
	// recording an execution. Load choices the checker counts without
	// walking them (see Verdict.Execs) take none of it. Tripping it
	// returns a *LimitError with Phase "transitions".
	TransitionLimit int64
	// Ctx, when non-nil, cancels the check: deadlines and client
	// disconnects stop the enumeration promptly and surface as a
	// *CancelError wrapping the context's error.
	Ctx context.Context
	// Telemetry, when non-nil, receives the check's live engine counters
	// (enumeration, pruning, analysis, verdict merge) and its lifecycle
	// transitions. nil disables instrumentation at zero cost.
	Telemetry *telemetry.Check
	// Span, when non-nil, is the request-trace parent for this check:
	// the pipeline opens "enumerate" (enumeration with the inline
	// analysis) and "merge" children under it, and links the enumerate
	// child onto Telemetry (telemetry.Check.SetSpan) for the engine's own
	// events — so the engine-internal "enumerated" annotation needs
	// Telemetry set too. nil disables tracing at zero cost.
	Span *rtrace.Span
}

// CheckProgram enumerates the SC executions of the program's
// quantum-equivalent form (as model m distinguishes its accesses) and
// classifies every race. DRF0 and DRF1 forbid data races only; DRFrlx
// forbids all five categories. The returned verdict aggregates races
// across executions. Each execution is analyzed as the enumerator
// delivers it, on the enumerating goroutine, so memory stays bounded
// regardless of how many executions the program has.
func CheckProgram(p0 *litmus.Program, m core.Model) (*Verdict, error) {
	return CheckProgramWith(p0, m, CheckOptions{})
}

// CheckProgramWith is CheckProgram with an explicit pipeline
// configuration. The verdict is deterministic: every aggregated field is
// an order-independent set union finished by a sort.
func CheckProgramWith(p0 *litmus.Program, m core.Model, opts CheckOptions) (*Verdict, error) {
	if opts.Mode == ModeSolve {
		return solveCheck(p0, m, opts)
	}
	if opts.Mode != ModeEnumerate {
		return nil, fmt.Errorf("memmodel: unknown CheckOptions.Mode %q", opts.Mode)
	}
	p := p0.Under(m)
	kinds := forbiddenKinds(m)
	tel := opts.Telemetry
	effLimit := opts.Limit
	if effLimit == 0 {
		effLimit = DefaultLimit
	}
	tel.Begin(int64(effLimit))
	sp := opts.Span
	// The analysis runs inline in the Visit callback: no channel, no
	// goroutine hand-off, and one Execution recycled for every delivery,
	// so memory is O(1) in the number of executions. Visit runs on the
	// enumerating goroutine, so the enumerator can consult the order memo
	// at every leaf: a repeat of an analyzed order is counted into the
	// memo's shard without being built.
	pv := newPartialVerdict()
	an := new(analyzer)
	w := tel.Worker()
	memo := newOrderMemo(p)
	var spare *Execution
	eo := EnumOptions{
		Quantum: true, Limit: opts.Limit, Telemetry: tel,
		Ctx: opts.Ctx, TransitionLimit: opts.TransitionLimit,
		Recycle: func() *Execution {
			ex := spare
			spare = nil
			return ex
		},
		Visit: func(ex *Execution) error {
			pv.add(an.Analyze(ex), kinds)
			w.IncAnalyzed()
			spare = ex
			return nil
		},
		memo: memo,
	}
	// Enumeration and analysis interleave on one goroutine, so a single
	// span covers both.
	en := sp.Child("enumerate")
	tel.SetSpan(en)
	_, err := Enumerate(p, eo)
	tel.SetSpan(nil)
	en.End()
	if err != nil {
		tel.Finish(stateForErr(err))
		return nil, err
	}
	mg := sp.Child("merge")
	v := finishVerdict(p0.Name, m, memo.shards([]*partialVerdict{pv}), tel)
	mg.End()
	tel.Finish(telemetry.StateDone)
	return v, nil
}

// orderMemoCap bounds the order memo, so a check's memory stays bounded
// however many distinct orders its program has. Orders first seen after
// the memo is full are analyzed every time they recur.
const orderMemoCap = 1 << 14

// orderMemo lets the streaming pipeline analyze each SC total order once.
// Analyze reads an execution's Order and the Present set it fixes (plus
// the program's static ops), never the values moved, so executions that
// share an order share their races. The quantum transformation repeats
// every order once per choice of domain values; a repeat adds only its
// execution count and SC result to the verdict, so the enumerator
// consults the memo at its leaf (EnumOptions.memo) and never builds the
// repeat.
type orderMemo struct {
	seen map[string]struct{}
	key  []byte
	// skipped is the verdict shard of the executions the memo kept from
	// analysis.
	skipped *partialVerdict
}

// newOrderMemo returns the memo for p under its model, or nil when p has
// no Quantum-class ops: without value choices the sleep-set enumerator
// never produces the same order twice.
func newOrderMemo(p *litmus.Program) *orderMemo {
	for _, th := range p.Threads {
		for i := range th.Ops {
			if !th.Ops[i].IsBranch && th.Ops[i].Class == core.Quantum {
				return &orderMemo{seen: map[string]struct{}{}, skipped: newPartialVerdict()}
			}
		}
	}
	return nil
}

// repeat reports whether an execution with this total order was already
// analyzed in this check; if so it counts the leaf's weight executions
// (EnumOptions.memo) and their SC result (key) into the memo's shard. A
// new order is remembered while the memo is under its cap, and all but
// the one execution left to analyze go to the shard. A nil memo reports
// no repeats.
func (m *orderMemo) repeat(order []int, key string, weight int64) bool {
	if m == nil {
		return false
	}
	m.key = m.key[:0]
	for _, id := range order {
		m.key = binary.AppendUvarint(m.key, uint64(id))
	}
	if _, ok := m.seen[string(m.key)]; ok {
		m.skipped.count(key, int(weight))
		return true
	}
	if len(m.seen) < orderMemoCap {
		m.seen[string(m.key)] = struct{}{}
	}
	if weight > 1 {
		m.skipped.count(key, int(weight-1))
	}
	return false
}

// shards adds the memo's shard to the analyzed executions' verdict
// shards (none for a nil memo).
func (m *orderMemo) shards(parts []*partialVerdict) []*partialVerdict {
	if m == nil {
		return parts
	}
	return append(parts, m.skipped)
}

// stateForErr maps a check error onto its terminal telemetry state.
func stateForErr(err error) telemetry.CheckState {
	var ce *CancelError
	switch {
	case errors.Is(err, ErrLimit):
		return telemetry.StateLimit
	case errors.Is(err, ErrStop), errors.As(err, &ce):
		return telemetry.StateStopped
	}
	return telemetry.StateFailed
}

// partialVerdict is one shard of the verdict: the analyzed executions',
// or those the order memo counted without analysis. All fields are sets
// (or counts), so merging shards is order-independent.
type partialVerdict struct {
	execs     int
	scResults map[string]bool
	races     [NumRaceKinds]map[string]bool
	// descCache memoizes pair descriptions: the same racy pair recurs in
	// many executions, and its description depends only on static event
	// identity.
	descCache map[[2]int]string
}

func newPartialVerdict() *partialVerdict {
	return &partialVerdict{scResults: map[string]bool{}}
}

// count adds the part of n executions' contribution that needs no
// analysis: the executions themselves and their SC result key.
func (pv *partialVerdict) count(key string, n int) {
	pv.execs += n
	pv.scResults[key] = true
}

func (pv *partialVerdict) add(a *Analysis, kinds []RaceKind) {
	ex := a.Exec
	pv.count(ex.ResultKey(), 1)
	for _, k := range kinds {
		for _, pr := range a.Races[k] {
			desc, ok := pv.descCache[pr]
			if !ok {
				ei, ej := &ex.Events[pr[0]], &ex.Events[pr[1]]
				desc = pairDesc(ei.Thread, ei.OpIndex, ei.Op.Class, ej.Thread, ej.OpIndex, ej.Op.Class)
				if pv.descCache == nil {
					pv.descCache = map[[2]int]string{}
				}
				pv.descCache[pr] = desc
			}
			if pv.races[k] == nil {
				pv.races[k] = map[string]bool{}
			}
			pv.races[k][desc] = true
		}
	}
}

// pairDesc renders a racy pair as Verdict.Races lists it: thread, op
// index and class of each event, the (thread, op index)-earlier first.
func pairDesc(t1, o1 int, c1 core.Class, t2, o2 int, c2 core.Class) string {
	return fmt.Sprintf("T%d.%d(%s)~T%d.%d(%s)", t1, o1, c1, t2, o2, c2)
}

// finishVerdict merges verdict shards into the final verdict. Set union
// followed by a sort makes the result independent of how executions were
// partitioned across shards and of delivery order. The telemetry check
// (when instrumented) records the merge shape: distinct racy pairs and
// SC results, plus the shard-set entries fed into the union (which
// depend on that partition).
func finishVerdict(name string, m core.Model, parts []*partialVerdict, tel *telemetry.Check) *Verdict {
	v := &Verdict{
		Prog: name, Model: m, Legal: true,
		Races:     map[RaceKind][]string{},
		SCResults: map[string]bool{},
	}
	var merged [NumRaceKinds]map[string]bool
	var mergeInputs int64
	for _, pv := range parts {
		v.Execs += pv.execs
		for k := range pv.scResults {
			v.SCResults[k] = true
		}
		mergeInputs += int64(len(pv.scResults))
		for ki, set := range pv.races {
			mergeInputs += int64(len(set))
			for d := range set {
				if merged[ki] == nil {
					merged[ki] = map[string]bool{}
				}
				merged[ki][d] = true
			}
		}
	}
	var distinct int64
	for ki, set := range merged {
		if len(set) == 0 {
			continue
		}
		distinct += int64(len(set))
		v.Legal = false
		descs := make([]string, 0, len(set))
		for d := range set {
			descs = append(descs, d)
		}
		sort.Strings(descs)
		v.Races[RaceKind(ki)] = descs
	}
	tel.SetUnion(distinct, mergeInputs, int64(len(v.SCResults)))
	return v
}

// Summary renders the verdict as a one-line description for reports.
func (v *Verdict) Summary() string {
	if v.Legal && v.Execs == 0 {
		return fmt.Sprintf("%s under %s: LEGAL (%d SC results, no execution enumerated)", v.Prog, v.Model, len(v.SCResults))
	}
	if v.Legal {
		return fmt.Sprintf("%s under %s: LEGAL (%d SC executions)", v.Prog, v.Model, v.Execs)
	}
	var parts []string
	for _, k := range RaceKinds() {
		if n := len(v.Races[k]); n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s(s)", n, k))
		}
	}
	return fmt.Sprintf("%s under %s: ILLEGAL — %s", v.Prog, v.Model, strings.Join(parts, ", "))
}
