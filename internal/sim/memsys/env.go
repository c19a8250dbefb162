package memsys

import (
	"rats/internal/core"
	"rats/internal/fault"
	"rats/internal/probe"
	"rats/internal/sim/noc"
	"rats/internal/sim/sched"
	"rats/internal/stats"
)

// Env bundles the shared infrastructure every memory-system component
// uses: the interconnect, the statistics sink, the global functional
// value layer, and the clock (At) that Memory steps.
type Env struct {
	Cfg   *Config
	Mesh  *noc.Mesh
	Stats *stats.Stats
	// Values is the functional value layer, keyed by word address.
	// Atomic operations read-modify-write it at the point (and simulated
	// time) they perform — at the L2 bank under GPU coherence, at the
	// owning L1 under DeNovo — so workload functional checks hold under
	// every configuration.
	Values map[uint64]int64
	// Probe is the observability hub, or nil when disabled. Emission
	// sites guard with a nil check so disabled runs pay nothing.
	Probe *probe.Hub
	// Fault is the fault injector, or nil when disabled. Injection sites
	// guard with a nil check so clean runs pay nothing.
	Fault *fault.Injector
	// WarpSeq numbers warps globally in placement order (probe warp
	// ids).
	WarpSeq int
	// TxnSeq numbers transactions globally in issue order (the last id
	// handed out; ids start at 1).
	TxnSeq int64

	// now is the cycle Memory.Step last processed; events holds the
	// continuations At scheduled.
	now    int64
	events sched.Queue[Deferred]
}

// At schedules a deferred continuation to fire at the given cycle. A
// cycle at or before the one being processed is clamped to the next
// cycle, so handlers never re-enter the current cycle's processing;
// continuations for the same cycle fire in scheduling order (FIFO) —
// protocol handlers rely on it.
func (e *Env) At(cycle int64, d Deferred) {
	if cycle <= e.now {
		cycle = e.now + 1
	}
	e.events.Push(cycle, d)
}

// ApplyAtomic performs an atomic on the value layer and returns the old
// value.
func (e *Env) ApplyAtomic(addr uint64, aop core.AtomicOp, operand int64) int64 {
	w := e.Cfg.WordAddr(addr)
	old := e.Values[w]
	e.Values[w] = aop.Apply(old, operand, 0)
	return old
}

// Read returns the current functional value of a word.
func (e *Env) Read(addr uint64) int64 { return e.Values[e.Cfg.WordAddr(addr)] }

// Txn is one memory transaction handed from a compute unit to its L1:
// either a coalesced per-line load, a coalesced per-line store, or a
// per-lane atomic.
type Txn struct {
	ID      int64
	Kind    TxnKind
	Addr    uint64 // byte address (line-representative for loads/stores)
	Class   core.Class
	AOp     core.AtomicOp
	Operand int64
	// Warp is the issuing warp's global id (probe attribution); -1 for
	// transactions not tied to a warp.
	Warp int
	// LocalScope marks an HRF work-group-scoped atomic: it may perform at
	// the L1 without coherence actions (the programmer guarantees no
	// cross-CU access between global synchronizations).
	LocalScope bool
	// Done receives the completion callback exactly once; value is
	// meaningful for atomics. An interface rather than a func so issuers
	// can register themselves (a pointer — no per-transaction closure).
	Done Completer
	// Owner and Group are opaque completion bookkeeping for the issuing
	// compute unit (which instruction this transaction belongs to).
	Owner any
	Group int32
}

// Completer receives a transaction's completion.
type Completer interface {
	// TxnDone is invoked exactly once when t completes; value is
	// meaningful for atomics. The transaction may be recycled by its
	// issuer once TxnDone returns — no component may retain t past it.
	TxnDone(t *Txn, cycle, value int64)
}

// DoneFunc adapts a plain function to Completer (tests and ad-hoc
// issuers).
type DoneFunc func(cycle, value int64)

// TxnDone implements Completer.
func (f DoneFunc) TxnDone(_ *Txn, cycle, value int64) { f(cycle, value) }

// TxnKind distinguishes transaction types at the L1.
type TxnKind uint8

const (
	// TxnLoad is a coalesced data load of one line.
	TxnLoad TxnKind = iota
	// TxnStore is a coalesced data store to one line.
	TxnStore
	// TxnAtomic is a single-lane atomic operation.
	TxnAtomic
)

func (k TxnKind) String() string {
	switch k {
	case TxnLoad:
		return "load"
	case TxnStore:
		return "store"
	default:
		return "atomic"
	}
}
