package memmodel

import (
	"fmt"
	"strings"

	"rats/internal/core"
	"rats/internal/litmus"
)

// Witness is a concrete SC execution exhibiting an illegal race, with
// enough detail to explain the verdict to a programmer: the interleaving,
// the values transferred, and the racing access pair per category.
type Witness struct {
	Exec *Execution
	Kind RaceKind
	// Pair is the racing event pair (event IDs).
	Pair [2]int
}

// FindWitness searches the SC executions of the (quantum-equivalent)
// program for the first illegal race under the model and returns a
// witness, or nil if the program is legal. Executions stream through a
// sequential enumeration with an early stop, so the search uses bounded
// memory, ends at the first racy execution, and deterministically
// returns the same witness every run (the first in the reduced
// enumerator's branch order).
func FindWitness(p *litmus.Program, m core.Model) (*Witness, error) {
	return FindWitnessWith(p, m, EnumOptions{})
}

// FindWitnessWith is FindWitness with caller-supplied enumeration
// bounds: opts.Ctx, Limit, and TransitionLimit are honored, so a witness
// search on hostile input stays as bounded as the check that preceded
// it. The search-shape fields (Quantum, Visit) are owned by the witness
// search and overridden.
func FindWitnessWith(p *litmus.Program, m core.Model, opts EnumOptions) (*Witness, error) {
	kinds := forbiddenKinds(m)
	var w *Witness
	an := new(analyzer)
	opts.Quantum = true
	opts.Visit = func(ex *Execution) error {
		a := an.Analyze(ex)
		for _, k := range kinds {
			if prs := a.Races[k]; len(prs) > 0 {
				w = &Witness{Exec: ex, Kind: k, Pair: prs[0]}
				return ErrStop
			}
		}
		return nil
	}
	_, err := Enumerate(p.Under(m), opts)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// describeEvent renders one event with thread, op, and values.
func describeEvent(ex *Execution, id int) string {
	ev := ex.Events[id]
	var val string
	switch {
	case ev.Op.Reads() && ev.Op.Writes():
		val = fmt.Sprintf(" (read %d, wrote %d)", ev.Loaded, ev.Stored)
	case ev.Op.Reads():
		val = fmt.Sprintf(" (read %d)", ev.Loaded)
	case ev.Op.Writes():
		val = fmt.Sprintf(" (wrote %d)", ev.Stored)
	}
	rand := ""
	if ev.Randomized {
		rand = " [quantum-randomized]"
	}
	return fmt.Sprintf("T%d: %v%s%s", ev.Thread, ev.Op, val, rand)
}

// String renders the witness: the SC total order with the racing pair
// marked, the final state, and a one-line diagnosis.
func (w *Witness) String() string {
	var b strings.Builder
	ex := w.Exec
	fmt.Fprintf(&b, "%v between:\n", w.Kind)
	fmt.Fprintf(&b, "  X = %s\n", describeEvent(ex, w.Pair[0]))
	fmt.Fprintf(&b, "  Y = %s\n", describeEvent(ex, w.Pair[1]))
	b.WriteString("witness SC execution (total order):\n")
	for pos, id := range ex.Order {
		mark := "   "
		if id == w.Pair[0] {
			mark = " X "
		}
		if id == w.Pair[1] {
			mark = " Y "
		}
		fmt.Fprintf(&b, "  %2d%s%s\n", pos, mark, describeEvent(ex, id))
	}
	fmt.Fprintf(&b, "final state: %s\n", ex.ResultKey())
	b.WriteString(w.diagnosis())
	return b.String()
}

// diagnosis explains, per race kind, which condition of the paper's
// definition fired.
func (w *Witness) diagnosis() string {
	ex := w.Exec
	x, y := ex.Events[w.Pair[0]], ex.Events[w.Pair[1]]
	switch w.Kind {
	case DataRace:
		return "diagnosis: conflicting accesses unordered by happens-before-1, at least one distinguished as data\n"
	case CommutativeRace:
		if !core.Commutes(x.Op.AOp, x.Op.Operand.Const, y.Op.AOp, y.Op.Operand.Const) {
			return fmt.Sprintf("diagnosis: racing %v and %v do not commute\n", x.Op.AOp, y.Op.AOp)
		}
		return "diagnosis: a racing commutative access's return value is observed by a later instruction\n"
	case NonOrderingRace:
		return "diagnosis: the racy non-ordering edge lies on an ordering path between other conflicting accesses with no valid alternative path\n"
	case QuantumRace:
		q, other := x, y
		if q.Op.Class != core.Quantum {
			q, other = y, x
		}
		return fmt.Sprintf("diagnosis: quantum access to %s races with non-quantum %v access\n", q.Op.Loc, other.Op.Class)
	case SpeculativeRace:
		if x.Op.Writes() && y.Op.Writes() {
			return "diagnosis: two racing stores involve a speculative access\n"
		}
		return "diagnosis: a racy speculative load's value is observed by a later instruction\n"
	}
	return ""
}
