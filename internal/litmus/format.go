package litmus

import (
	"fmt"
	"sort"
	"strings"

	"rats/internal/core"
)

// Format renders a program back into the textual form accepted by Parse
// (round-trippable for programs built with the builder API).
func Format(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "litmus %q\n", p.Name)
	if len(p.Init) > 0 {
		locs := make([]string, 0, len(p.Init))
		for l := range p.Init {
			locs = append(locs, string(l))
		}
		sort.Strings(locs)
		b.WriteString("init")
		for _, l := range locs {
			fmt.Fprintf(&b, " %s=%d", l, p.Init[Loc(l)])
		}
		b.WriteString("\n")
	}
	if len(p.QuantumDomain) > 0 {
		b.WriteString("quantum-domain")
		for _, v := range p.QuantumDomain {
			fmt.Fprintf(&b, " %d", v)
		}
		b.WriteString("\n")
	}
	for ti, t := range p.Threads {
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("t%d", ti)
		}
		fmt.Fprintf(&b, "\nthread %s\n", name)
		formatThread(&b, t)
	}
	return b.String()
}

func formatExpr(e Expr) string {
	var parts []string
	for _, r := range e.Regs {
		parts = append(parts, fmt.Sprintf("r%d", r))
	}
	if e.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", e.Const))
	}
	return strings.Join(parts, "+")
}

func formatGuard(g Guard) string {
	op := "=="
	suffix := ""
	switch g.Op {
	case GuardNE:
		op = "!="
	case GuardEQEven:
		suffix = " even"
	}
	return fmt.Sprintf("%s %s %s%s", formatExpr(g.A), op, formatExpr(g.B), suffix)
}

func guardsKey(gs []Guard) string {
	parts := make([]string, len(gs))
	for i, g := range gs {
		parts[i] = formatGuard(g)
	}
	return strings.Join(parts, " && ")
}

var opNames = map[core.AtomicOp]string{
	core.OpAdd: "add", core.OpSub: "sub", core.OpInc: "inc", core.OpDec: "dec",
	core.OpAnd: "and", core.OpOr: "or", core.OpXor: "xor",
	core.OpMin: "min", core.OpMax: "max", core.OpExchange: "xchg",
}

func formatThread(b *strings.Builder, t *Thread) {
	open := "" // currently open guard block key
	indent := "  "
	for _, o := range t.Ops {
		key := ""
		if !o.IsBranch {
			key = guardsKey(o.Guards)
		}
		if key != open {
			if open != "" {
				fmt.Fprintf(b, "%s}\n", indent)
			}
			if key != "" {
				fmt.Fprintf(b, "%sif %s {\n", indent, key)
			}
			open = key
		}
		pad := indent
		if open != "" {
			pad += "  "
		}
		switch {
		case o.IsBranch:
			fmt.Fprintf(b, "%sbranch %s", pad, formatExpr(o.Cond))
		case o.AOp == core.OpLoad:
			if o.Dst != NoReg {
				fmt.Fprintf(b, "%sr%d = load %s %s", pad, o.Dst, o.Loc, o.Class)
			} else {
				fmt.Fprintf(b, "%sload %s %s", pad, o.Loc, o.Class)
			}
		case o.AOp == core.OpStore:
			fmt.Fprintf(b, "%sstore %s %s %s", pad, o.Loc, formatExpr(o.Operand), o.Class)
		case o.AOp == core.OpCAS:
			if o.Dst != NoReg {
				fmt.Fprintf(b, "%sr%d = cas %s %s %s %s", pad, o.Dst, o.Loc,
					formatExpr(o.Expected), formatExpr(o.Operand), o.Class)
			} else {
				fmt.Fprintf(b, "%scas %s %s %s %s", pad, o.Loc,
					formatExpr(o.Expected), formatExpr(o.Operand), o.Class)
			}
		default:
			name := opNames[o.AOp]
			if o.Dst != NoReg {
				fmt.Fprintf(b, "%sr%d = %s %s %s %s", pad, o.Dst, name, o.Loc, formatExpr(o.Operand), o.Class)
			} else {
				fmt.Fprintf(b, "%s%s %s %s %s", pad, name, o.Loc, formatExpr(o.Operand), o.Class)
			}
		}
		// An address dependency ends the line: " addr rA rB".
		for k, r := range o.AddrDeps {
			if k == 0 {
				b.WriteString(" addr")
			}
			fmt.Fprintf(b, " r%d", r)
		}
		b.WriteByte('\n')
	}
	if open != "" {
		fmt.Fprintf(b, "%s}\n", indent)
	}
}
