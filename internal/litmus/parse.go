package litmus

import (
	"fmt"
	"strconv"
	"strings"

	"rats/internal/core"
)

// This file implements a small Herd-style text format for litmus tests,
// so tests can be written as files and fed to cmd/ratslitmus:
//
//	litmus "MP_paired"
//	init D=0 F=0
//	quantum-domain 0 1 2
//
//	thread producer
//	  store D 1 data
//	  store F 1 paired
//
//	thread consumer
//	  r0 = load F paired
//	  if r0 != 0 {
//	    r1 = load D data
//	  }
//	  use r1
//
// Statements, one per line:
//
//	rX = load LOC CLASS            atomic/data load into a register
//	load LOC CLASS                 load, value discarded
//	store LOC EXPR CLASS           store of an expression
//	rX = OP LOC EXPR CLASS         RMW (OP: add sub inc dec and or xor min max xchg)
//	OP LOC EXPR CLASS              RMW, old value discarded
//	rX = cas LOC EXPECTED DESIRED CLASS
//	if COND [&& COND]... {         guarded block (conditions: rX != 0,
//	  ...                          rX == 0, rX == N, rX == rY,
//	}                              rX == rY even)
//	use rX                         observe a register (control dependency)
//	branch EXPR                    explicit branch marker
//
// A load, store, RMW or CAS may end in `addr rX [rY]...`, which makes
// its address depend on those registers (an address dependency), e.g.
// `r1 = load Y release addr r0`.
//
// EXPR is an integer, a register, or a '+'-joined sum of them (e.g.
// r1+r2+3). Lines starting with // or # are comments.

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("litmus: line %d: %s", e.Line, e.Msg)
}

type parser struct {
	prog   *Program
	thread *Thread
	// regs maps register names to indices for the current thread.
	regs map[string]Reg
	// guards is the flattened stack of open guards; blockSizes records
	// how many guards each open if-block pushed (so } pops the right
	// number).
	guards     []Guard
	blockSizes []int
	line       int
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

// Parse reads a litmus program from its textual form.
func Parse(src string) (*Program, error) {
	p := &parser{prog: New("unnamed")}
	for i, raw := range strings.Split(src, "\n") {
		p.line = i + 1
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "//") || strings.HasPrefix(line, "#") {
			continue
		}
		if err := p.statement(line); err != nil {
			return nil, err
		}
	}
	if len(p.blockSizes) > 0 {
		return nil, p.errf("unclosed if-block at end of input")
	}
	if err := p.prog.Validate(); err != nil {
		return nil, err
	}
	return p.prog, nil
}

func (p *parser) statement(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "litmus":
		name := strings.TrimSpace(strings.TrimPrefix(line, "litmus"))
		p.prog.Name = strings.Trim(name, `"`)
		return nil
	case "init":
		for _, kv := range fields[1:] {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				return p.errf("bad init %q (want LOC=VAL)", kv)
			}
			v, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil {
				return p.errf("bad init value %q", parts[1])
			}
			p.prog.SetInit(Loc(parts[0]), v)
		}
		return nil
	case "quantum-domain":
		for _, f := range fields[1:] {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return p.errf("bad domain value %q", f)
			}
			p.prog.QuantumDomain = append(p.prog.QuantumDomain, v)
		}
		return nil
	case "thread":
		if len(fields) != 2 {
			return p.errf("thread wants a name")
		}
		if len(p.blockSizes) > 0 {
			return p.errf("unclosed if-block before new thread")
		}
		p.thread = p.prog.Thread(fields[1])
		p.regs = map[string]Reg{}
		return nil
	case "}":
		if len(p.blockSizes) == 0 {
			return p.errf("unmatched }")
		}
		n := p.blockSizes[len(p.blockSizes)-1]
		p.blockSizes = p.blockSizes[:len(p.blockSizes)-1]
		p.guards = p.guards[:len(p.guards)-n]
		p.thread.EndGuards()
		p.thread.WithGuards(p.guards...)
		return nil
	}
	if p.thread == nil {
		return p.errf("statement outside a thread")
	}
	if fields[0] == "if" {
		return p.ifBlock(line)
	}
	return p.op(fields)
}

// expr parses an integer / register / sum expression.
func (p *parser) expr(s string) (Expr, error) {
	var e Expr
	for _, term := range strings.Split(s, "+") {
		term = strings.TrimSpace(term)
		if r, ok := p.regs[term]; ok {
			e.Regs = append(e.Regs, r)
			continue
		}
		v, err := strconv.ParseInt(term, 10, 64)
		if err != nil {
			return Expr{}, p.errf("unknown term %q (not a register or integer)", term)
		}
		e.Const += v
	}
	return e, nil
}

func (p *parser) class(s string) (core.Class, error) {
	c, err := core.ParseClass(s)
	if err != nil {
		return 0, p.errf("%v", err)
	}
	return c, nil
}

// defReg allocates (or reuses the name of) a destination register.
func (p *parser) defReg(name string) (Reg, error) {
	if _, exists := p.regs[name]; exists {
		return 0, p.errf("register %s redefined (use fresh names)", name)
	}
	r := p.thread.newReg()
	p.regs[name] = r
	return r, nil
}

// addrDeps splits a trailing `addr rX [rY]...` off an op's fields and
// returns the registers it names. The suffix starts at an "addr" right
// after the class, the op's last field, so a location or register named
// addr is never taken for it.
func (p *parser) addrDeps(fields []string) ([]string, []Reg, error) {
	for k := 3; k < len(fields); k++ {
		if fields[k] != "addr" {
			continue
		}
		if _, err := core.ParseClass(fields[k-1]); err != nil {
			continue
		}
		if k+1 == len(fields) {
			return nil, nil, p.errf("addr wants registers")
		}
		deps := make([]Reg, 0, len(fields)-k-1)
		for _, name := range fields[k+1:] {
			r, ok := p.regs[name]
			if !ok {
				return nil, nil, p.errf("address dependency on undefined register %s", name)
			}
			deps = append(deps, r)
		}
		return fields[:k], deps, nil
	}
	return fields, nil, nil
}

var rmwOps = map[string]core.AtomicOp{
	"add": core.OpAdd, "sub": core.OpSub, "inc": core.OpInc, "dec": core.OpDec,
	"and": core.OpAnd, "or": core.OpOr, "xor": core.OpXor,
	"min": core.OpMin, "max": core.OpMax, "xchg": core.OpExchange,
}

func (p *parser) op(fields []string) error {
	// Destination form: rX = ...
	dst := ""
	if len(fields) >= 2 && fields[1] == "=" {
		dst = fields[0]
		fields = fields[2:]
	}
	if len(fields) == 0 {
		return p.errf("empty statement")
	}
	fields, deps, err := p.addrDeps(fields)
	if err != nil {
		return err
	}
	switch fields[0] {
	case "load":
		if len(fields) != 3 {
			return p.errf("load wants: load LOC CLASS")
		}
		c, err := p.class(fields[2])
		if err != nil {
			return err
		}
		o := Op{Class: c, AOp: core.OpLoad, Loc: Loc(fields[1]), Dst: NoReg, AddrDeps: deps}
		if dst != "" {
			r, err := p.defReg(dst)
			if err != nil {
				return err
			}
			o.Dst = r
		}
		p.thread.attach(o)
		return nil
	case "store":
		if dst != "" {
			return p.errf("store has no destination")
		}
		if len(fields) != 4 {
			return p.errf("store wants: store LOC EXPR CLASS")
		}
		e, err := p.expr(fields[2])
		if err != nil {
			return err
		}
		c, err := p.class(fields[3])
		if err != nil {
			return err
		}
		p.thread.attach(Op{Class: c, AOp: core.OpStore, Loc: Loc(fields[1]), Dst: NoReg, Operand: e, AddrDeps: deps})
		return nil
	case "cas":
		if len(fields) != 5 {
			return p.errf("cas wants: cas LOC EXPECTED DESIRED CLASS")
		}
		exp, err := p.expr(fields[2])
		if err != nil {
			return err
		}
		des, err := p.expr(fields[3])
		if err != nil {
			return err
		}
		c, err := p.class(fields[4])
		if err != nil {
			return err
		}
		o := Op{Class: c, AOp: core.OpCAS, Loc: Loc(fields[1]), Dst: NoReg, Operand: des, Expected: exp, AddrDeps: deps}
		if dst != "" {
			r, err := p.defReg(dst)
			if err != nil {
				return err
			}
			o.Dst = r
		}
		p.thread.attach(o)
		return nil
	case "use":
		if len(fields) != 2 {
			return p.errf("use wants a register")
		}
		r, ok := p.regs[fields[1]]
		if !ok {
			return p.errf("use of undefined register %s", fields[1])
		}
		p.thread.Use(r)
		return nil
	case "branch":
		if len(fields) != 2 {
			return p.errf("branch wants an expression")
		}
		e, err := p.expr(fields[1])
		if err != nil {
			return err
		}
		p.thread.Branch(e)
		return nil
	}
	if aop, ok := rmwOps[fields[0]]; ok {
		// OP LOC [EXPR] CLASS — inc/dec may omit the operand.
		var operandStr, classStr string
		switch len(fields) {
		case 3:
			operandStr, classStr = "0", fields[2]
		case 4:
			operandStr, classStr = fields[2], fields[3]
		default:
			return p.errf("%s wants: %s LOC [EXPR] CLASS", fields[0], fields[0])
		}
		e, err := p.expr(operandStr)
		if err != nil {
			return err
		}
		c, err := p.class(classStr)
		if err != nil {
			return err
		}
		o := Op{Class: c, AOp: aop, Loc: Loc(fields[1]), Dst: NoReg, Operand: e, AddrDeps: deps}
		if dst != "" {
			r, err := p.defReg(dst)
			if err != nil {
				return err
			}
			o.Dst = r
		}
		p.thread.attach(o)
		return nil
	}
	return p.errf("unknown statement %q", fields[0])
}

// ifBlock parses `if COND [&& COND]... {`.
func (p *parser) ifBlock(line string) error {
	body := strings.TrimSpace(strings.TrimPrefix(line, "if"))
	if !strings.HasSuffix(body, "{") {
		return p.errf("if-block must end with {")
	}
	body = strings.TrimSpace(strings.TrimSuffix(body, "{"))
	n := 0
	for _, cond := range strings.Split(body, "&&") {
		g, err := p.cond(strings.TrimSpace(cond))
		if err != nil {
			return err
		}
		p.guards = append(p.guards, g)
		n++
	}
	p.blockSizes = append(p.blockSizes, n)
	p.thread.EndGuards()
	p.thread.WithGuards(p.guards...)
	return nil
}

// cond parses a guard condition.
func (p *parser) cond(s string) (Guard, error) {
	even := false
	if strings.HasSuffix(s, " even") {
		even = true
		s = strings.TrimSuffix(s, " even")
	}
	var opStr string
	var gop GuardOp
	switch {
	case strings.Contains(s, "!="):
		opStr, gop = "!=", GuardNE
	case strings.Contains(s, "=="):
		opStr, gop = "==", GuardEQ
	default:
		return Guard{}, p.errf("bad condition %q (want == or !=)", s)
	}
	if even {
		if gop != GuardEQ {
			return Guard{}, p.errf("'even' applies only to ==")
		}
		gop = GuardEQEven
	}
	parts := strings.SplitN(s, opStr, 2)
	a, err := p.expr(strings.TrimSpace(parts[0]))
	if err != nil {
		return Guard{}, err
	}
	b, err := p.expr(strings.TrimSpace(parts[1]))
	if err != nil {
		return Guard{}, err
	}
	return Guard{A: a, B: b, Op: gop}, nil
}
