// Package litmus represents small concurrent test programs ("litmus
// tests") in the style used by the Herd tool and by Listing 7 of the RAts
// paper. A program is a set of straight-line threads of memory operations
// over named shared locations, with per-thread registers. Syntactic
// dependencies (address, data, control) are tracked so the race detectors
// in internal/memmodel can approximate observability exactly the way the
// paper's Herd model does.
//
// Loops and real control flow are intentionally absent: as in Herd, racy
// idioms are expressed as straight-line unrollings with explicit
// dependency markers.
package litmus

import (
	"fmt"
	"sort"

	"rats/internal/core"
)

// Loc names a shared memory location.
type Loc string

// Reg identifies a per-thread register. NoReg means the operation
// discards its loaded value.
type Reg int8

// NoReg marks the absence of a destination register.
const NoReg Reg = -1

// Expr is a linear expression over a thread's registers:
// Const + sum(registers). It is the only value form litmus programs need:
// rich enough to express data dependencies, simple enough to enumerate.
type Expr struct {
	Const int64
	Regs  []Reg
}

// ConstExpr returns an expression with a fixed value.
func ConstExpr(v int64) Expr { return Expr{Const: v} }

// RegExpr returns an expression equal to a register's value.
func RegExpr(r Reg) Expr { return Expr{Regs: []Reg{r}} }

// Eval computes the expression over a register file.
func (e Expr) Eval(rf []int64) int64 {
	v := e.Const
	for _, r := range e.Regs {
		v += rf[r]
	}
	return v
}

// DependsOn reports whether the expression reads register r.
func (e Expr) DependsOn(r Reg) bool {
	for _, x := range e.Regs {
		if x == r {
			return true
		}
	}
	return false
}

// GuardOp compares two expressions in a guard.
type GuardOp uint8

const (
	// GuardEQ: A == B.
	GuardEQ GuardOp = iota
	// GuardNE: A != B.
	GuardNE
	// GuardEven: A == B and A is even (seqlock sequence check).
	GuardEQEven
)

// Guard is a condition on an operation: the operation executes only when
// every guard of the op holds. Guards model the conditional control flow
// of the paper's use cases (dequeue only when occupancy > 0, seqlock
// retry, refcount reaching zero) while keeping threads straight-line.
type Guard struct {
	A, B Expr
	Op   GuardOp
}

// Holds evaluates the guard over a register file.
func (g Guard) Holds(rf []int64) bool {
	a, b := g.A.Eval(rf), g.B.Eval(rf)
	switch g.Op {
	case GuardEQ:
		return a == b
	case GuardNE:
		return a != b
	case GuardEQEven:
		return a == b && a%2 == 0
	}
	return false
}

// Regs returns the registers the guard reads.
func (g Guard) Regs() []Reg {
	return append(append([]Reg(nil), g.A.Regs...), g.B.Regs...)
}

// Op is a single operation of a thread: either a memory operation or a
// branch marker (a control-dependency sink, carrying no memory effect).
type Op struct {
	// IsBranch marks a control-flow marker. Only Cond is meaningful.
	IsBranch bool
	// Cond is the branch condition (branch ops only).
	Cond Expr

	// Guards condition the op's execution: if any guard fails (evaluated
	// against the thread's registers when the op is reached), the op is
	// skipped and produces no event. Guard registers are always read
	// (control dependency) whether or not the op executes.
	Guards []Guard

	// Class distinguishes the operation to the system (Section 3.6).
	Class core.Class
	// AOp is the access kind (load/store/RMW flavour).
	AOp core.AtomicOp
	// Loc is the shared location accessed.
	Loc Loc
	// Dst receives the loaded value (loads and RMWs); NoReg discards it.
	Dst Reg
	// Operand is the stored value (stores) or RMW operand.
	Operand Expr
	// Expected is the comparison value for CAS.
	Expected Expr
	// AddrDeps lists registers the effective address depends on. The
	// address itself is static (Loc); AddrDeps exist purely so the
	// dependency analysis can model address dependencies.
	AddrDeps []Reg
}

// Reads reports whether the op observes a memory value.
func (o Op) Reads() bool { return !o.IsBranch && o.AOp.Reads() }

// Writes reports whether the op may modify memory.
func (o Op) Writes() bool { return !o.IsBranch && o.AOp.Writes() }

// Access is the op's shape for the ordering rule (core.Model.Keeps).
func (o Op) Access() core.Access {
	return core.Access{Class: o.Class, Reads: o.Reads(), Writes: o.Writes()}
}

// UsesReg reports whether the op's inputs (operand, expected, address,
// guards, branch condition) read register r.
func (o Op) UsesReg(r Reg) bool {
	if o.IsBranch {
		return o.Cond.DependsOn(r)
	}
	if o.Operand.DependsOn(r) || o.Expected.DependsOn(r) {
		return true
	}
	for _, a := range o.AddrDeps {
		if a == r {
			return true
		}
	}
	return o.GuardUsesReg(r)
}

// GuardUsesReg reports whether the op's guards read register r. Guard
// registers are observed even when the op is skipped.
func (o Op) GuardUsesReg(r Reg) bool {
	for _, g := range o.Guards {
		for _, gr := range g.Regs() {
			if gr == r {
				return true
			}
		}
	}
	return false
}

// GuardsHold evaluates every guard of the op.
func (o Op) GuardsHold(rf []int64) bool {
	for _, g := range o.Guards {
		if !g.Holds(rf) {
			return false
		}
	}
	return true
}

func (o Op) String() string {
	if o.IsBranch {
		return fmt.Sprintf("branch(%v)", o.Cond.Regs)
	}
	dst := ""
	if o.Dst != NoReg {
		dst = fmt.Sprintf("r%d = ", o.Dst)
	}
	return fmt.Sprintf("%s%s.%s[%s]", dst, o.AOp, o.Class, o.Loc)
}

// Thread is a straight-line sequence of operations.
type Thread struct {
	Name string
	Ops  []Op
	// nregs is the number of registers allocated so far.
	nregs int
	// pending guards are attached to every subsequently appended op
	// (an open "if" block); see WithGuards / EndGuards.
	pending []Guard
}

// NZ builds a guard requiring register r to be non-zero.
func NZ(r Reg) Guard { return Guard{A: RegExpr(r), B: ConstExpr(0), Op: GuardNE} }

// EQZ builds a guard requiring register r to be zero.
func EQZ(r Reg) Guard { return Guard{A: RegExpr(r), B: ConstExpr(0), Op: GuardEQ} }

// EQConst builds a guard requiring register r to equal a constant.
func EQConst(r Reg, c int64) Guard { return Guard{A: RegExpr(r), B: ConstExpr(c), Op: GuardEQ} }

// EQReg builds a guard requiring two registers to be equal.
func EQReg(a, b Reg) Guard { return Guard{A: RegExpr(a), B: RegExpr(b), Op: GuardEQ} }

// EQEvenReg builds a guard requiring two registers to be equal and even
// (the seqlock sequence check).
func EQEvenReg(a, b Reg) Guard { return Guard{A: RegExpr(a), B: RegExpr(b), Op: GuardEQEven} }

// Program is a complete litmus test.
type Program struct {
	Name    string
	Threads []*Thread
	// Init gives initial values for locations (default 0).
	Init map[Loc]int64
	// QuantumDomain is the value set quantum accesses range over when the
	// quantum-equivalent program is enumerated. If empty, a domain is
	// derived from the constants appearing in the program.
	QuantumDomain []int64
}

// New creates an empty program.
func New(name string) *Program {
	return &Program{Name: name, Init: map[Loc]int64{}}
}

// Thread appends a new empty thread and returns it.
func (p *Program) Thread(name string) *Thread {
	t := &Thread{Name: name}
	p.Threads = append(p.Threads, t)
	return t
}

// SetInit sets a location's initial value.
func (p *Program) SetInit(loc Loc, v int64) { p.Init[loc] = v }

// Locs returns every location touched by the program, sorted.
func (p *Program) Locs() []Loc {
	// Programs touch a handful of locations: a linear-scan dedup into one
	// small slice beats a map and avoids copying each Op to inspect it.
	out := make([]Loc, 0, len(p.Init))
	add := func(l Loc) {
		for _, x := range out {
			if x == l {
				return
			}
		}
		out = append(out, l)
	}
	for l := range p.Init {
		add(l)
	}
	for t := range p.Threads {
		ops := p.Threads[t].Ops
		for i := range ops {
			if !ops[i].IsBranch {
				add(ops[i].Loc)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumOps returns the total operation count across threads.
func (p *Program) NumOps() int {
	n := 0
	for _, t := range p.Threads {
		n += len(t.Ops)
	}
	return n
}

// HasClass reports whether any operation carries the given class.
func (p *Program) HasClass(c core.Class) bool {
	for _, t := range p.Threads {
		for _, o := range t.Ops {
			if !o.IsBranch && o.Class == c {
				return true
			}
		}
	}
	return false
}

// Validate checks structural sanity: thread names are unique, the
// program performs at least one operation, register uses precede
// definitions and stay within the thread's register file, classes are
// valid, CAS ops have expected values.
func (p *Program) Validate() error {
	if len(p.Threads) == 0 {
		return fmt.Errorf("litmus %s: no threads", p.Name)
	}
	names := make(map[string]bool, len(p.Threads))
	for _, t := range p.Threads {
		if t.Name == "" {
			continue
		}
		if names[t.Name] {
			return fmt.Errorf("litmus %s: duplicate thread name %q", p.Name, t.Name)
		}
		names[t.Name] = true
	}
	if p.NumOps() == 0 {
		return fmt.Errorf("litmus %s: no operations", p.Name)
	}
	for ti, t := range p.Threads {
		defined := map[Reg]bool{}
		for oi, o := range t.Ops {
			if o.IsBranch {
				for _, r := range o.Cond.Regs {
					if !defined[r] {
						return fmt.Errorf("litmus %s: thread %d op %d branches on undefined r%d", p.Name, ti, oi, r)
					}
				}
				continue
			}
			if !o.Class.Valid() {
				return fmt.Errorf("litmus %s: thread %d op %d has invalid class", p.Name, ti, oi)
			}
			if o.Loc == "" {
				return fmt.Errorf("litmus %s: thread %d op %d has empty location", p.Name, ti, oi)
			}
			deps := [][]Reg{o.Operand.Regs, o.Expected.Regs, o.AddrDeps}
			for _, g := range o.Guards {
				deps = append(deps, g.Regs())
			}
			for _, regs := range deps {
				for _, r := range regs {
					if !defined[r] {
						return fmt.Errorf("litmus %s: thread %d op %d uses undefined r%d", p.Name, ti, oi, r)
					}
				}
			}
			if o.Dst != NoReg {
				if !o.Reads() {
					return fmt.Errorf("litmus %s: thread %d op %d writes register but does not read memory", p.Name, ti, oi)
				}
				if o.Dst < 0 || int(o.Dst) >= t.nregs {
					return fmt.Errorf("litmus %s: thread %d op %d destination r%d out of range (thread declares %d registers)",
						p.Name, ti, oi, o.Dst, t.nregs)
				}
				defined[o.Dst] = true
			}
		}
	}
	return nil
}

// Relabel returns a deep copy of the program with every op's class mapped
// through f. It is used to derive DRF0/DRF1 variants and mislabeled
// litmus tests from a single annotated source.
func (p *Program) Relabel(f func(core.Class) core.Class) *Program {
	q := New(p.Name)
	for l, v := range p.Init {
		q.Init[l] = v
	}
	q.QuantumDomain = append([]int64(nil), p.QuantumDomain...)
	for _, t := range p.Threads {
		nt := q.Thread(t.Name)
		nt.nregs = t.nregs
		nt.Ops = make([]Op, len(t.Ops))
		copy(nt.Ops, t.Ops)
		for i := range nt.Ops {
			if !nt.Ops[i].IsBranch {
				nt.Ops[i].Class = f(nt.Ops[i].Class)
			}
		}
	}
	return q
}

// Under returns the program as model m distinguishes it (e.g. Under(DRF0)
// turns every atomic into a paired atomic).
func (p *Program) Under(m core.Model) *Program {
	q := p.Relabel(m.Effective)
	q.Name = fmt.Sprintf("%s@%s", p.Name, m)
	return q
}

// WithGuards opens a guarded region: every op appended until EndGuards is
// conditioned on all the given guards (an "if" block).
func (t *Thread) WithGuards(gs ...Guard) *Thread {
	t.pending = append(t.pending, gs...)
	return t
}

// EndGuards closes all open guarded regions.
func (t *Thread) EndGuards() { t.pending = nil }

// attach adds the op, applying any pending guards.
func (t *Thread) attach(o Op) {
	if len(t.pending) > 0 && !o.IsBranch {
		o.Guards = append([]Guard(nil), t.pending...)
	}
	t.Ops = append(t.Ops, o)
}

// newReg allocates a fresh register.
func (t *Thread) newReg() Reg {
	r := Reg(t.nregs)
	t.nregs++
	return r
}

// NumRegs returns the number of registers the thread uses.
func (t *Thread) NumRegs() int { return t.nregs }

// SetNumRegs records the thread's register count for threads whose Ops
// are built directly (program transforms, deep copies) rather than
// through the builder helpers, which maintain the count via newReg.
func (t *Thread) SetNumRegs(n int) { t.nregs = n }

// Load appends an atomic/data load and returns its destination register.
func (t *Thread) Load(loc Loc, c core.Class) Reg {
	r := t.newReg()
	t.attach(Op{Class: c, AOp: core.OpLoad, Loc: loc, Dst: r})
	return r
}

// LoadDiscard appends a load whose value is discarded.
func (t *Thread) LoadDiscard(loc Loc, c core.Class) {
	t.attach(Op{Class: c, AOp: core.OpLoad, Loc: loc, Dst: NoReg})
}

// Store appends a store of a constant.
func (t *Thread) Store(loc Loc, v int64, c core.Class) {
	t.StoreExpr(loc, ConstExpr(v), c)
}

// StoreExpr appends a store of an expression (creating data dependencies
// on the expression's registers).
func (t *Thread) StoreExpr(loc Loc, e Expr, c core.Class) {
	t.attach(Op{Class: c, AOp: core.OpStore, Loc: loc, Dst: NoReg, Operand: e})
}

// RMW appends a read-modify-write with a constant operand, returning the
// register holding the old value.
func (t *Thread) RMW(op core.AtomicOp, loc Loc, operand int64, c core.Class) Reg {
	r := t.newReg()
	t.attach(Op{Class: c, AOp: op, Loc: loc, Dst: r, Operand: ConstExpr(operand)})
	return r
}

// RMWDiscard appends a read-modify-write whose old value is discarded
// (e.g. a histogram increment).
func (t *Thread) RMWDiscard(op core.AtomicOp, loc Loc, operand int64, c core.Class) {
	t.attach(Op{Class: c, AOp: op, Loc: loc, Dst: NoReg, Operand: ConstExpr(operand)})
}

// Inc appends a fetch-increment whose value is discarded.
func (t *Thread) Inc(loc Loc, c core.Class) { t.RMWDiscard(core.OpInc, loc, 0, c) }

// Dec appends a fetch-decrement returning the old value.
func (t *Thread) Dec(loc Loc, c core.Class) Reg { return t.RMW(core.OpDec, loc, 0, c) }

// CAS appends a compare-and-swap (expected, desired constants), returning
// the register holding the old value.
func (t *Thread) CAS(loc Loc, expected, desired int64, c core.Class) Reg {
	r := t.newReg()
	t.attach(Op{
		Class: c, AOp: core.OpCAS, Loc: loc, Dst: r,
		Operand: ConstExpr(desired), Expected: ConstExpr(expected),
	})
	return r
}

// Branch appends a control-dependency marker on the expression: every
// later op of the thread becomes control-dependent on the expression's
// registers.
func (t *Thread) Branch(e Expr) {
	t.attach(Op{IsBranch: true, Cond: e})
}

// Use marks a register's value as observed (a branch depending on it).
// This is how litmus tests express "the program later uses r".
func (t *Thread) Use(r Reg) { t.Branch(RegExpr(r)) }

// LoadDep appends a load whose address depends on register dep (an
// address dependency, for observability analysis).
func (t *Thread) LoadDep(loc Loc, dep Reg, c core.Class) Reg {
	r := t.newReg()
	t.attach(Op{Class: c, AOp: core.OpLoad, Loc: loc, Dst: r, AddrDeps: []Reg{dep}})
	return r
}
