package memsys

import "rats/internal/sim/noc"

// deferKind selects what a Deferred does when it fires.
type deferKind uint8

const (
	// deferFn invokes an arbitrary callback (cold paths: injected L2
	// stall storms, deferred ownership yields).
	deferFn deferKind = iota
	// deferComplete completes txn at l1 with the recorded value.
	deferComplete
	// deferCompleteRead completes txn at l1 with the functional value of
	// its address read at fire time (load completions).
	deferCompleteRead
	// deferLocalAtomic performs a DeNovo/local-scope atomic at l1.
	deferLocalAtomic
	// deferL2Atomic performs a GPU-coherence atomic at the l2 bank.
	deferL2Atomic
)

// Deferred is a scheduled continuation handed to Env.At. The hot-path
// continuations — transaction completions and atomic performs — are
// expressed as tagged fields on this by-value struct instead of
// closures, so scheduling them allocates nothing; only the cold paths
// (fault-injected stalls, ownership-yield races) pay for a closure via
// the fn case. Memory.Step fires each one at its scheduled cycle.
type Deferred struct {
	kind  deferKind
	fn    func(int64)
	l1    *L1
	l2    *L2Bank
	txn   *Txn
	value int64
	pkt   noc.Payload
}

// fire runs the continuation at the given cycle.
func (d *Deferred) fire(cycle int64) {
	switch d.kind {
	case deferFn:
		d.fn(cycle)
	case deferComplete:
		d.l1.complete(cycle, d.txn, d.value)
	case deferCompleteRead:
		d.l1.complete(cycle, d.txn, d.l1.env.Read(d.txn.Addr))
	case deferLocalAtomic:
		d.l1.fireLocalAtomic(cycle, d.txn)
	case deferL2Atomic:
		d.l2.fireAtomic(cycle, d.pkt)
	}
}

// deferCall wraps a plain callback (cold paths only — it allocates the
// closure like any func value).
func deferCall(fn func(int64)) Deferred { return Deferred{kind: deferFn, fn: fn} }
