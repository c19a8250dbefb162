// Package core defines the DRFrlx memory-model taxonomy from the paper
// "Chasing Away RAts: Semantics and Evaluation for Relaxed Atomics on
// Heterogeneous Systems" (ISCA 2017): the classes that every memory
// operation must be distinguished as (data, paired, unpaired, commutative,
// non-ordering, quantum, speculative), the three consistency models the
// paper evaluates (DRF0, DRF1, DRFrlx), and the behaviour each model
// assigns to each class (Table 4).
//
// The rest of the repository builds on this package: the litmus engine
// (internal/memmodel) uses the classes to detect the paper's five illegal
// race categories, and the timing simulator (internal/sim) uses the model
// policies to decide when to self-invalidate caches, flush store buffers,
// and overlap atomics. Model.Keeps is the one ordering rule that the race
// checker, the system model and the simulated CU share.
package core

import "fmt"

// Class distinguishes a memory operation to the system, per DRFrlx
// (Section 3.6 of the paper). Data is the default for unannotated
// accesses; all other classes are atomics.
type Class uint8

const (
	// Data is an ordinary, non-atomic access. Data accesses may never
	// race in any legal program under any of the DRF models.
	Data Class = iota
	// Paired is an SC atomic (C++ memory_order_seq_cst). Paired atomics
	// are the only accesses that create happens-before (so1) edges.
	Paired
	// Unpaired is a DRF1 unpaired atomic: it may race with other atomics
	// but is never used to order data accesses. It may be reordered with
	// respect to data, but stays in program order with other atomics.
	Unpaired
	// Commutative marks racy read-modify-writes whose racing interactions
	// commute (e.g. histogram increments) and whose return values are
	// unobserved (Section 3.2).
	Commutative
	// NonOrdering marks racy atomics that never occur on a unique
	// ordering path between other conflicting accesses (Section 3.3).
	NonOrdering
	// Quantum marks accesses whose values the program is resilient to:
	// reasoning is performed on the quantum-equivalent program in which
	// quantum loads/stores use random values (Section 3.4).
	Quantum
	// Speculative marks racy loads whose misspeculated values are
	// discarded (seqlocks), and the stores that race only with such
	// loads (Section 3.5).
	Speculative
	// Acquire is the Section 7 extension: a load with acquire ordering —
	// it self-invalidates like a paired load and holds every later access
	// of its thread, without a paired load's full SC fence. The race
	// checker makes it an so1 target, like a paired read (sound on a
	// multi-copy-atomic machine like the simulated one). A store labelled
	// acquire is no acquire: it orders like an unpaired atomic
	// (Model.Keeps), and the race checker treats it as neither an so1
	// endpoint nor paired or unpaired.
	Acquire
	// Release is the Section 7 extension: a store with release ordering —
	// it flushes the store buffer like a paired store and waits for every
	// earlier access of its thread, without the full SC fence. The race
	// checker makes it an so1 source, like a paired write. A load labelled
	// release is no release: it orders like an unpaired atomic, and the
	// race checker treats it as neither an so1 endpoint nor paired or
	// unpaired.
	Release

	numClasses = int(Release) + 1
)

// Classes lists every class in declaration order, for iteration in tests
// and table generation.
func Classes() []Class {
	return []Class{Data, Paired, Unpaired, Commutative, NonOrdering, Quantum, Speculative, Acquire, Release}
}

// IsAtomic reports whether the class is any flavour of atomic.
func (c Class) IsAtomic() bool { return c != Data }

// OrdersLikePaired reports whether the class synchronizes (creates
// happens-before edges) like a paired access: paired itself, plus the
// acquire/release extension classes.
func (c Class) OrdersLikePaired() bool {
	return c == Paired || c == Acquire || c == Release
}

// Valid reports whether c is one of the defined classes.
func (c Class) Valid() bool { return int(c) < numClasses }

func (c Class) String() string {
	switch c {
	case Data:
		return "data"
	case Paired:
		return "paired"
	case Unpaired:
		return "unpaired"
	case Commutative:
		return "commutative"
	case NonOrdering:
		return "non-ordering"
	case Quantum:
		return "quantum"
	case Speculative:
		return "speculative"
	case Acquire:
		return "acquire"
	case Release:
		return "release"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// ParseClass converts a keyword (as introduced in Section 3.6) back to a
// Class. It accepts the paper's five new keywords plus "data" and
// "paired"/"seq_cst".
func ParseClass(s string) (Class, error) {
	switch s {
	case "data":
		return Data, nil
	case "paired", "seq_cst", "sc":
		return Paired, nil
	case "unpaired":
		return Unpaired, nil
	case "commutative":
		return Commutative, nil
	case "non-ordering", "nonordering", "non_ordering":
		return NonOrdering, nil
	case "quantum":
		return Quantum, nil
	case "speculative":
		return Speculative, nil
	case "acquire":
		return Acquire, nil
	case "release":
		return Release, nil
	}
	return Data, fmt.Errorf("core: unknown access class %q", s)
}
