// Package trace defines the intermediate representation between workloads
// and the timing simulator: per-warp (and per-CPU-thread) streams of
// warp-level operations. A workload generator (internal/workloads) emits a
// Trace; the simulator (internal/sim/system) executes it under a chosen
// coherence protocol and consistency model.
//
// The representation is trace-driven: control flow is resolved at
// generation time (the paper's benchmarks are likewise run to completion
// per configuration; the access pattern, not the values, determines the
// timing differences between configurations). Atomic values are still
// computed functionally by the simulator so workloads can verify results.
package trace

import (
	"fmt"

	"rats/internal/core"
)

// Kind is the kind of a warp-level operation.
type Kind uint8

const (
	// Compute occupies the warp for Cycles cycles (ALU work).
	Compute Kind = iota
	// Load is a (possibly divergent) global memory read.
	Load
	// Store is a global memory write.
	Store
	// Atomic is a global read-modify-write (or atomic load/store,
	// depending on AOp).
	Atomic
	// ScratchLoad reads the CU-local scratchpad.
	ScratchLoad
	// ScratchStore writes the CU-local scratchpad.
	ScratchStore
	// Barrier is a device-wide synchronization point: every warp (and
	// CPU thread) must arrive before any proceeds. Barriers carry paired
	// (SC) semantics under every model.
	Barrier
	// Join stalls the warp until all its outstanding memory operations
	// complete — a register dependency on earlier loads/atomics.
	Join
)

func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Load:
		return "load"
	case Store:
		return "store"
	case Atomic:
		return "atomic"
	case ScratchLoad:
		return "scratch-load"
	case ScratchStore:
		return "scratch-store"
	case Barrier:
		return "barrier"
	case Join:
		return "join"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsMem reports whether the op touches the global memory system.
func (k Kind) IsMem() bool { return k == Load || k == Store || k == Atomic }

// Scope is the HRF-style synchronization scope of an atomic (the
// comparison point the paper discusses in Section 7: HSA/OpenCL/HRF
// mitigate atomic costs with scoped synchronization; DeNovo makes scopes
// unnecessary). Global is the default.
type Scope uint8

const (
	// ScopeGlobal synchronizes across the whole device.
	ScopeGlobal Scope = iota
	// ScopeLocal synchronizes only within the issuing CU (an HRF
	// work-group scope): no L1 invalidation or store-buffer flush is
	// needed, and the atomic may execute at the L1 without ownership —
	// the programmer guarantees no other CU touches the location between
	// global synchronizations.
	ScopeLocal
)

// Op is one warp-level operation.
type Op struct {
	Kind Kind
	// Scope is the synchronization scope (atomics only; default global).
	Scope Scope
	// Cycles is the duration of a Compute op.
	Cycles int
	// Class distinguishes the access to the memory model (loads/stores
	// default to Data; atomics carry one of the atomic classes).
	Class core.Class
	// AOp is the atomic flavour (Atomic ops only).
	AOp core.AtomicOp
	// Operand is the atomic operand (uniform across lanes).
	Operand int64
	// Operands, if non-nil, gives a per-lane operand (len == len(Addrs)),
	// overriding Operand — e.g. a histogram merge adding a different
	// local count to each bin.
	Operands []int64
	// Addrs holds the per-lane byte addresses (IsMem ops). The coalescer
	// groups them into line transactions; atomics issue per lane.
	Addrs []uint64
}

// Access is a memory op's shape for the ordering rule (core.Model.Keeps):
// a load reads, a store writes, and an atomic does what its AOp does.
func (op *Op) Access() core.Access {
	st := op.Kind == Store
	return core.Access{Class: op.Class, Reads: op.AOp.Reads() && !st, Writes: op.AOp.Writes() || st}
}

// Warp is one warp's (or CPU thread's) operation stream, statically
// placed on a compute unit.
type Warp struct {
	// CU is the compute-unit index the warp runs on; CPU threads use the
	// CPU node and are marked by IsCPU.
	CU    int
	IsCPU bool
	Ops   []Op
}

// Trace is a complete workload: warps plus initial memory values and
// metadata used by the harness.
type Trace struct {
	Name  string
	Warps []*Warp
	// Init seeds the functional value layer (word addresses).
	Init map[uint64]int64
	// FinalCheck, if non-nil, validates the functional result after
	// simulation (given read access to final memory values).
	FinalCheck func(read func(addr uint64) int64) error
}

// New creates an empty trace.
func New(name string) *Trace {
	return &Trace{Name: name, Init: map[uint64]int64{}}
}

// AddWarp appends a GPU warp on the given CU and returns it.
func (t *Trace) AddWarp(cu int) *Warp {
	w := &Warp{CU: cu}
	t.Warps = append(t.Warps, w)
	return w
}

// AddCPUThread appends a CPU thread and returns it.
func (t *Trace) AddCPUThread() *Warp {
	w := &Warp{IsCPU: true}
	t.Warps = append(t.Warps, w)
	return w
}

// NumOps returns the total op count for reporting.
func (t *Trace) NumOps() int {
	n := 0
	for _, w := range t.Warps {
		n += len(w.Ops)
	}
	return n
}

// Compute appends a compute delay.
func (w *Warp) Compute(cycles int) *Warp {
	w.Ops = append(w.Ops, Op{Kind: Compute, Cycles: cycles})
	return w
}

// Load appends a global load of the given lane addresses.
func (w *Warp) Load(class core.Class, addrs ...uint64) *Warp {
	w.Ops = append(w.Ops, Op{Kind: Load, Class: class, AOp: core.OpLoad, Addrs: addrs})
	return w
}

// Store appends a global store of the given lane addresses.
func (w *Warp) Store(class core.Class, addrs ...uint64) *Warp {
	w.Ops = append(w.Ops, Op{Kind: Store, Class: class, AOp: core.OpStore, Addrs: addrs})
	return w
}

// Atomic appends an atomic op over the given lane addresses.
func (w *Warp) Atomic(class core.Class, aop core.AtomicOp, operand int64, addrs ...uint64) *Warp {
	w.Ops = append(w.Ops, Op{Kind: Atomic, Class: class, AOp: aop, Operand: operand, Addrs: addrs})
	return w
}

// AtomicScoped appends an atomic with an explicit HRF scope.
func (w *Warp) AtomicScoped(scope Scope, class core.Class, aop core.AtomicOp, operand int64, addrs ...uint64) *Warp {
	w.Ops = append(w.Ops, Op{Kind: Atomic, Scope: scope, Class: class, AOp: aop, Operand: operand, Addrs: addrs})
	return w
}

// AtomicLanes appends an atomic op with per-lane operands.
func (w *Warp) AtomicLanes(class core.Class, aop core.AtomicOp, addrs []uint64, operands []int64) *Warp {
	if len(addrs) != len(operands) {
		panic("trace: AtomicLanes length mismatch")
	}
	w.Ops = append(w.Ops, Op{Kind: Atomic, Class: class, AOp: aop, Addrs: addrs, Operands: operands})
	return w
}

// AtomicLoad appends an atomic load (one lane).
func (w *Warp) AtomicLoad(class core.Class, addr uint64) *Warp {
	return w.Atomic(class, core.OpLoad, 0, addr)
}

// AtomicStore appends an atomic store (one lane).
func (w *Warp) AtomicStore(class core.Class, addr uint64, val int64) *Warp {
	return w.Atomic(class, core.OpStore, val, addr)
}

// ScratchAccess appends n scratchpad accesses (modelled as fixed-latency
// local operations).
func (w *Warp) ScratchAccess(kind Kind, n int) *Warp {
	for i := 0; i < n; i++ {
		w.Ops = append(w.Ops, Op{Kind: kind, Cycles: 1})
	}
	return w
}

// Barrier appends a device-wide barrier.
func (w *Warp) Barrier() *Warp {
	w.Ops = append(w.Ops, Op{Kind: Barrier})
	return w
}

// Join appends a dependency stall on all outstanding memory operations.
func (w *Warp) Join() *Warp {
	w.Ops = append(w.Ops, Op{Kind: Join})
	return w
}
