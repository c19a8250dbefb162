package memsys

import "rats/internal/sim/noc"

// Network message kinds, carried in noc.Payload.Kind. The payload is a
// by-value union (no per-message boxing on the Send path); the field
// mapping per kind is:
//
//	Line      — the line address (the word address for atomics)
//	Requester — the node a response (or three-hop forward) routes back to
//	Txn       — the originating transaction's id (0 when none, e.g.
//	            store-buffer drains whose transaction already completed);
//	            doubles as the atomic request id
//	Op        — the core.AtomicOp for atomic requests
//	Operand   — the atomic operand (requests) or old value (responses)
const (
	// pkReadReq asks the home L2 bank for a readable copy of a line.
	pkReadReq uint8 = iota + 1
	// pkReadResp delivers a readable copy (from the L2 bank or, under
	// DeNovo, directly from a remote owning L1).
	pkReadResp
	// pkOwnReq asks the home L2 bank for ownership of a line (DeNovo
	// stores and atomics).
	pkOwnReq
	// pkOwnResp grants ownership (from the bank or the previous owner).
	pkOwnResp
	// pkFwdRead asks a remote owning L1 to send a copy to the requester
	// (the owner keeps its registration).
	pkFwdRead
	// pkFwdOwn asks a remote owning L1 to yield ownership to the
	// requester.
	pkFwdOwn
	// pkWtReq is a GPU-coherence write-through of one line's dirty words.
	pkWtReq
	// pkWtAck acknowledges a write-through (store-buffer flush
	// accounting).
	pkWtAck
	// pkWbReq writes an evicted owned line back to the L2 (DeNovo),
	// clearing the registration.
	pkWbReq
	// pkAtomicReq performs an atomic at the home L2 bank (GPU coherence).
	pkAtomicReq
	// pkAtomicResp returns the atomic's old value.
	pkAtomicResp
)

// isL2Request reports whether a network payload is served by the L2 bank
// (as opposed to an L1 controller).
func isL2Request(p noc.Payload) bool {
	switch p.Kind {
	case pkReadReq, pkOwnReq, pkWtReq, pkWbReq, pkAtomicReq:
		return true
	}
	return false
}

// payloadName renders a payload kind for liveness diagnostics (registered
// with the mesh by NewMemory). The names match the concrete payload types
// this package used before the by-value union.
func payloadName(p noc.Payload) string {
	switch p.Kind {
	case pkReadReq:
		return "memsys.readReq"
	case pkReadResp:
		return "memsys.readResp"
	case pkOwnReq:
		return "memsys.ownReq"
	case pkOwnResp:
		return "memsys.ownResp"
	case pkFwdRead:
		return "memsys.fwdRead"
	case pkFwdOwn:
		return "memsys.fwdOwn"
	case pkWtReq:
		return "memsys.wtReq"
	case pkWtAck:
		return "memsys.wtAck"
	case pkWbReq:
		return "memsys.wbReq"
	case pkAtomicReq:
		return "memsys.atomicReq"
	case pkAtomicResp:
		return "memsys.atomicResp"
	}
	return ""
}
