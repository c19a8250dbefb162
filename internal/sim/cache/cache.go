// Package cache provides the storage structures the simulated memory
// system is built from: set-associative arrays with LRU replacement and
// per-line coherence state, MSHR tables with same-address coalescing, and
// a store buffer. The coherence *policies* live in internal/sim/memsys;
// this package only manages state.
package cache

import "fmt"

// State is a cache line's coherence state.
type State uint8

const (
	// Invalid: the line holds nothing.
	Invalid State = iota
	// Valid: a clean, readable copy (may be self-invalidated at
	// acquires).
	Valid
	// Owned: a registered, writable copy (DeNovo ownership); survives
	// self-invalidation.
	Owned
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Valid:
		return "V"
	case Owned:
		return "O"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Line is one cache line's metadata.
type Line struct {
	Tag   uint64
	State State
	Dirty bool
	lru   uint64
}

// Array is a set-associative cache array indexed by line address (byte
// address >> lineShift performed by the caller — the array works in units
// of line numbers).
type Array struct {
	sets  int
	ways  int
	lines []Line
	tick  uint64
}

// NewArray builds an array with the given geometry.
func NewArray(sets, ways int) *Array {
	if sets <= 0 || ways <= 0 {
		panic("cache: non-positive geometry")
	}
	return &Array{sets: sets, ways: ways, lines: make([]Line, sets*ways)}
}

func (a *Array) set(lineAddr uint64) []Line {
	s := int(lineAddr % uint64(a.sets))
	return a.lines[s*a.ways : (s+1)*a.ways]
}

// Lookup returns the line's state (Invalid if absent) and touches LRU on
// hit.
func (a *Array) Lookup(lineAddr uint64) State {
	set := a.set(lineAddr)
	for i := range set {
		if set[i].State != Invalid && set[i].Tag == lineAddr {
			a.tick++
			set[i].lru = a.tick
			return set[i].State
		}
	}
	return Invalid
}

// Peek returns the state without touching LRU.
func (a *Array) Peek(lineAddr uint64) State {
	set := a.set(lineAddr)
	for i := range set {
		if set[i].State != Invalid && set[i].Tag == lineAddr {
			return set[i].State
		}
	}
	return Invalid
}

// Victim describes an evicted line.
type Victim struct {
	LineAddr uint64
	State    State
	Dirty    bool
}

// Insert fills lineAddr with the given state, returning the victim if a
// valid line had to be evicted. Inserting over an existing copy updates
// its state in place.
func (a *Array) Insert(lineAddr uint64, st State, dirty bool) (Victim, bool) {
	set := a.set(lineAddr)
	a.tick++
	// In-place update.
	for i := range set {
		if set[i].State != Invalid && set[i].Tag == lineAddr {
			set[i].State = st
			set[i].Dirty = set[i].Dirty || dirty
			set[i].lru = a.tick
			return Victim{}, false
		}
	}
	// Free way.
	for i := range set {
		if set[i].State == Invalid {
			set[i] = Line{Tag: lineAddr, State: st, Dirty: dirty, lru: a.tick}
			return Victim{}, false
		}
	}
	// Evict LRU.
	vi := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	v := Victim{LineAddr: set[vi].Tag, State: set[vi].State, Dirty: set[vi].Dirty}
	set[vi] = Line{Tag: lineAddr, State: st, Dirty: dirty, lru: a.tick}
	return v, true
}

// SetDirty marks an existing line dirty.
func (a *Array) SetDirty(lineAddr uint64) {
	set := a.set(lineAddr)
	for i := range set {
		if set[i].State != Invalid && set[i].Tag == lineAddr {
			set[i].Dirty = true
			return
		}
	}
}

// Invalidate drops a single line, returning its previous state.
func (a *Array) Invalidate(lineAddr uint64) State {
	set := a.set(lineAddr)
	for i := range set {
		if set[i].State != Invalid && set[i].Tag == lineAddr {
			st := set[i].State
			set[i] = Line{}
			return st
		}
	}
	return Invalid
}

// FlashInvalidate drops every line for which keep returns false and
// returns the number of lines dropped. A nil keep drops everything.
// This is the self-invalidation mechanism of GPU coherence (drop all)
// and DeNovo (keep owned lines).
func (a *Array) FlashInvalidate(keep func(Line) bool) int {
	n := 0
	for i := range a.lines {
		if a.lines[i].State == Invalid {
			continue
		}
		if keep != nil && keep(a.lines[i]) {
			continue
		}
		a.lines[i] = Line{}
		n++
	}
	return n
}

// CountState returns how many lines are in the given state.
func (a *Array) CountState(st State) int {
	n := 0
	for i := range a.lines {
		if a.lines[i].State == st {
			n++
		}
	}
	return n
}
