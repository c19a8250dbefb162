package core

import "fmt"

// Model is one of the three consistency models the paper evaluates.
type Model uint8

const (
	// DRF0 treats every atomic as paired (SC atomic).
	DRF0 Model = iota
	// DRF1 distinguishes paired from unpaired atomics; everything that is
	// not paired behaves as unpaired (Adve & Hill's DRF1, Section 2.3).
	DRF1
	// DRFrlx is the paper's model: paired, unpaired, and the four relaxed
	// classes each get their own treatment.
	DRFrlx
)

// Models lists the three models in evaluation order.
func Models() []Model { return []Model{DRF0, DRF1, DRFrlx} }

func (m Model) String() string {
	switch m {
	case DRF0:
		return "DRF0"
	case DRF1:
		return "DRF1"
	case DRFrlx:
		return "DRFrlx"
	}
	return fmt.Sprintf("Model(%d)", uint8(m))
}

// ParseModel converts a model name ("DRF0", "DRF1", "DRFrlx", case as
// written in the paper) to a Model.
func ParseModel(s string) (Model, error) {
	switch s {
	case "DRF0", "drf0":
		return DRF0, nil
	case "DRF1", "drf1":
		return DRF1, nil
	case "DRFrlx", "drfrlx", "DRFRLX":
		return DRFrlx, nil
	}
	return DRF0, fmt.Errorf("core: unknown model %q", s)
}

// Overlap describes how much memory-level parallelism the system may
// extract for an atomic under a given model (the third row of Table 4).
type Overlap uint8

const (
	// OverlapNone: the atomic may not be outstanding concurrently with
	// any other memory operation of its thread (SC atomic behaviour).
	OverlapNone Overlap = iota
	// OverlapAtomicSerial: the atomic may overlap with data operations
	// but must stay in program order with other atomics (unpaired).
	OverlapAtomicSerial
	// OverlapFree: the atomic may overlap with anything (relaxed).
	OverlapFree
)

func (o Overlap) String() string {
	switch o {
	case OverlapNone:
		return "none"
	case OverlapAtomicSerial:
		return "atomic-serial"
	case OverlapFree:
		return "free"
	}
	return fmt.Sprintf("Overlap(%d)", uint8(o))
}

// Behavior is the set of consistency actions a system must take for one
// memory operation under one model. It encodes Table 4 of the paper.
type Behavior struct {
	// InvalidateOnLoad: an atomic load with this behaviour is an acquire:
	// the L1 must self-invalidate (potentially) stale data before
	// subsequent reads.
	InvalidateOnLoad bool
	// FlushOnStore: an atomic store with this behaviour is a release: the
	// store buffer must be flushed (all prior writes made visible) before
	// the store performs.
	FlushOnStore bool
	// Overlap bounds the memory-level parallelism available to the
	// operation.
	Overlap Overlap
}

// pairedBehavior is the SC-atomic treatment.
var pairedBehavior = Behavior{InvalidateOnLoad: true, FlushOnStore: true, Overlap: OverlapNone}

// unpairedBehavior removes acquire/release actions but keeps atomics in
// program order with each other.
var unpairedBehavior = Behavior{Overlap: OverlapAtomicSerial}

// relaxedBehavior removes all constraints (bounded only by hardware
// resources such as MSHRs).
var relaxedBehavior = Behavior{Overlap: OverlapFree}

// Effective maps a programmer-annotated class to the class the model
// actually distinguishes. DRF0 collapses every atomic to paired; DRF1
// collapses the relaxed classes to unpaired; DRFrlx keeps all classes.
//
// This mirrors how the paper's benchmark variants were built: the same
// annotated source is run under each model with weaker annotations
// conservatively strengthened.
func (m Model) Effective(c Class) Class {
	if c == Data {
		return Data
	}
	switch m {
	case DRF0:
		return Paired
	case DRF1:
		// Acquire/release order data accesses, so DRF1 (which has no such
		// category) must keep them paired; everything else relaxes to
		// unpaired.
		if c.OrdersLikePaired() {
			return Paired
		}
		return Unpaired
	default: // DRFrlx
		return c
	}
}

// acquireBehavior invalidates on loads but permits atomic-serial overlap
// (no full SC fence) — the Section 7 release-acquire extension.
var acquireBehavior = Behavior{InvalidateOnLoad: true, Overlap: OverlapAtomicSerial}

// releaseBehavior flushes on stores but permits atomic-serial overlap.
var releaseBehavior = Behavior{FlushOnStore: true, Overlap: OverlapAtomicSerial}

// Behavior returns the consistency actions required for an operation of
// class c under model m.
func (m Model) Behavior(c Class) Behavior {
	switch eff := m.Effective(c); {
	case eff == Data:
		return relaxedBehavior // data ops are unconstrained between syncs
	case eff == Paired:
		return pairedBehavior
	case eff == Unpaired:
		return unpairedBehavior
	case eff == Acquire:
		return acquireBehavior
	case eff == Release:
		return releaseBehavior
	default: // the four relaxed classes under DRFrlx
		return relaxedBehavior
	}
}

// Access is what the ordering rule reads of one memory access: its
// class, and whether it reads and whether it writes its location (an RMW
// does both).
type Access struct {
	Class         Class
	Reads, Writes bool
}

// Acquires reports whether a is an acquire under m: a read whose
// behaviour self-invalidates the L1 (paired, or the §7 acquire class).
func (m Model) Acquires(a Access) bool { return a.Reads && m.Behavior(a.Class).InvalidateOnLoad }

// Releases reports whether a is a release under m: a write whose
// behaviour flushes the store buffer (paired, or the §7 release class).
func (m Model) Releases(a Access) bool { return a.Writes && m.Behavior(a.Class).FlushOnStore }

// Keeps is the ordering rule of a system compliant with m (§3.8 with the
// §7 extension): whether an access a must stay before a later access b
// of its thread, where a and b are on different locations and b does not
// depend on a (per-location order and dependencies are kept anyway). An
// acquire stays before everything later, everything earlier stays before
// a release, and every atomic stays before a later atomic that is not
// free to overlap (paired, unpaired, acquire or release). The system
// model (memmodel) reorders everything else, so the simulated CU must
// keep at least these pairs for Theorem 3.1 to speak for it.
func (m Model) Keeps(a, b Access) bool {
	return m.Acquires(a) || m.Releases(b) ||
		a.Class.IsAtomic() && m.Behavior(b.Class).Overlap != OverlapFree
}

// Benefit is one row of Table 4.
type Benefit struct {
	Name string
	// Has[m] reports whether model m provides the benefit (for its
	// weakest applicable atomic class).
	Has [3]bool
}

// BenefitsTable reproduces Table 4 of the paper programmatically from the
// Behavior definitions, so the table can never drift from the simulator's
// actual policies.
func BenefitsTable() []Benefit {
	weakest := map[Model]Class{DRF0: Paired, DRF1: Unpaired, DRFrlx: Commutative}
	rows := []struct {
		name string
		has  func(b Behavior) bool
	}{
		{"Avoid cache invalidations at atomic loads", func(b Behavior) bool { return !b.InvalidateOnLoad }},
		{"Avoid store buffer flushes at atomic stores", func(b Behavior) bool { return !b.FlushOnStore }},
		{"Overlap atomics in the memory system", func(b Behavior) bool { return b.Overlap == OverlapFree }},
	}
	out := make([]Benefit, 0, len(rows))
	for _, r := range rows {
		var ben Benefit
		ben.Name = r.name
		for i, m := range Models() {
			ben.Has[i] = r.has(m.Behavior(weakest[m]))
		}
		out = append(out, ben)
	}
	return out
}
