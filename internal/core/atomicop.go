package core

import "fmt"

// AtomicOp is the read-modify-write function of an atomic operation. Plain
// atomic loads and stores use OpLoad / OpStore; everything else is an RMW.
type AtomicOp uint8

const (
	// OpLoad is a plain atomic load.
	OpLoad AtomicOp = iota
	// OpStore is a plain atomic store (exchange without reading).
	OpStore
	// OpAdd is fetch_add.
	OpAdd
	// OpSub is fetch_sub.
	OpSub
	// OpInc is fetch_add(1).
	OpInc
	// OpDec is fetch_sub(1).
	OpDec
	// OpAnd is fetch_and.
	OpAnd
	// OpOr is fetch_or.
	OpOr
	// OpXor is fetch_xor.
	OpXor
	// OpMin is fetch_min.
	OpMin
	// OpMax is fetch_max.
	OpMax
	// OpExchange is atomic exchange (returns old value, stores operand).
	OpExchange
	// OpCAS is compare-and-swap.
	OpCAS
)

func (op AtomicOp) String() string {
	switch op {
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpAdd:
		return "add"
	case OpSub:
		return "sub"
	case OpInc:
		return "inc"
	case OpDec:
		return "dec"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpXor:
		return "xor"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpExchange:
		return "xchg"
	case OpCAS:
		return "cas"
	}
	return fmt.Sprintf("AtomicOp(%d)", uint8(op))
}

// Writes reports whether the operation may modify its location. OpCAS
// conservatively counts as writing.
func (op AtomicOp) Writes() bool { return op != OpLoad }

// Reads reports whether the operation observes its location's old value.
func (op AtomicOp) Reads() bool { return op != OpStore }

// Apply evaluates the RMW function: given the location's old value and the
// operation's operand(s), it returns the new value stored. For OpCAS,
// operand is the desired new value and expected the comparison value.
func (op AtomicOp) Apply(old, operand, expected int64) int64 {
	switch op {
	case OpLoad:
		return old
	case OpStore, OpExchange:
		return operand
	case OpAdd:
		return old + operand
	case OpSub:
		return old - operand
	case OpInc:
		return old + 1
	case OpDec:
		return old - 1
	case OpAnd:
		return old & operand
	case OpOr:
		return old | operand
	case OpXor:
		return old ^ operand
	case OpMin:
		if operand < old {
			return operand
		}
		return old
	case OpMax:
		if operand > old {
			return operand
		}
		return old
	case OpCAS:
		if old == expected {
			return operand
		}
		return old
	}
	return old
}

// commuteGroup assigns each modifying operation to an algebraic group such
// that any two operations in the same group commute for all operands.
// Additive ops (add/sub/inc/dec) form one group; each of and/or/xor/min/max
// forms its own group (xor commutes with xor, etc.). Store, exchange, and
// CAS commute with nothing (not even themselves, in general).
func commuteGroup(op AtomicOp) int {
	switch op {
	case OpAdd, OpSub, OpInc, OpDec:
		return 1
	case OpAnd:
		return 2
	case OpOr:
		return 3
	case OpXor:
		return 4
	case OpMin:
		return 5
	case OpMax:
		return 6
	}
	return 0 // no group
}

// Commutes implements the paper's Commutativity definition (Section 3.2.3):
// two stores or RMWs to a single location are commutative with respect to
// each other if performing them in either order yields the same final
// value for the location. Loads never participate (commutativity is
// defined only between modifying operations). Two plain stores of the
// same value commute; otherwise commutativity is decided by algebraic
// group membership, which is sound for all operand values.
func Commutes(opX AtomicOp, operandX int64, opY AtomicOp, operandY int64) bool {
	if !opX.Writes() || !opY.Writes() {
		return false
	}
	if (opX == OpStore || opX == OpExchange) && (opY == OpStore || opY == OpExchange) {
		return operandX == operandY
	}
	gx, gy := commuteGroup(opX), commuteGroup(opY)
	return gx != 0 && gx == gy
}
