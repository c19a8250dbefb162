package memmodel

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
)

// permuteRename returns a deep copy of p with threads reordered by perm
// (new index i holds old thread perm[i]) and locations renamed through
// ren (identity for locations not in the map).
func permuteRename(p *litmus.Program, perm []int, ren map[litmus.Loc]litmus.Loc) *litmus.Program {
	rn := func(l litmus.Loc) litmus.Loc {
		if r, ok := ren[l]; ok {
			return r
		}
		return l
	}
	q := litmus.New(p.Name + "-scrambled")
	for l, v := range p.Init {
		q.SetInit(rn(l), v)
	}
	q.QuantumDomain = append([]int64(nil), p.QuantumDomain...)
	for i, old := range perm {
		src := p.Threads[old]
		dst := q.Thread("w" + string(rune('a'+i)))
		dst.Ops = make([]litmus.Op, len(src.Ops))
		copy(dst.Ops, src.Ops)
		for oi := range dst.Ops {
			if !dst.Ops[oi].IsBranch {
				dst.Ops[oi].Loc = rn(dst.Ops[oi].Loc)
			}
		}
		dst.SetNumRegs(src.NumRegs())
	}
	return q
}

// reverse returns the permutation [n-1, ..., 0].
func reversePerm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = n - 1 - i
	}
	return perm
}

// scrambleLocs maps every location of p to an ugly fresh name.
func scrambleLocs(p *litmus.Program) map[litmus.Loc]litmus.Loc {
	ren := map[litmus.Loc]litmus.Loc{}
	for i, l := range p.Locs() {
		ren[l] = litmus.Loc("zz_" + string(rune('p'+i)))
	}
	return ren
}

// TestCanonicalKeyInvariantOnCatalog checks that for every catalog case,
// reordering threads and renaming every shared location leaves the
// canonical key unchanged.
func TestCanonicalKeyInvariantOnCatalog(t *testing.T) {
	for _, c := range litmus.Suite() {
		c := c
		t.Run(c.Prog.Name, func(t *testing.T) {
			base, err := Canonicalize(c.Prog)
			if err != nil {
				t.Fatalf("Canonicalize: %v", err)
			}
			if err := base.Prog.Validate(); err != nil {
				t.Fatalf("canonical program invalid: %v", err)
			}
			scr := permuteRename(c.Prog, reversePerm(len(c.Prog.Threads)), scrambleLocs(c.Prog))
			got, err := Canonicalize(scr)
			if err != nil {
				t.Fatalf("Canonicalize(scrambled): %v", err)
			}
			if got.Key != base.Key {
				t.Errorf("key changed under thread permutation + location renaming:\n  base %s\n  scrambled %s", base.Key, got.Key)
			}
		})
	}
}

// TestCanonicalKeySeparatesCatalog checks that distinct catalog programs
// do not collide (they are structurally different, so their canonical
// forms must differ).
func TestCanonicalKeySeparatesCatalog(t *testing.T) {
	seen := map[string]string{}
	for _, c := range litmus.Suite() {
		canon, err := Canonicalize(c.Prog)
		if err != nil {
			t.Fatalf("%s: %v", c.Prog.Name, err)
		}
		if prev, ok := seen[canon.Key]; ok {
			t.Errorf("catalog programs %s and %s share canonical key %s", prev, c.Prog.Name, canon.Key)
		}
		seen[canon.Key] = c.Prog.Name
	}
}

// TestCanonicalKeyDistinguishesClasses checks that a semantically
// meaningful change (an op's class) changes the key.
func TestCanonicalKeyDistinguishesClasses(t *testing.T) {
	p := litmus.New("classes")
	p.Thread("a").Store("X", 1, core.Data)
	p.Thread("b").Load("X", core.Data)
	q := p.Relabel(func(core.Class) core.Class { return core.Unpaired })
	cp, err := Canonicalize(p)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := Canonicalize(q)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Key == cq.Key {
		t.Errorf("relabel(data->unpaired) did not change the canonical key")
	}
}

// TestSymmetryKeySeparatesSemanticFields: threads that differ only in a
// field Op.String leaves out — a stored constant, a CAS's expected
// value, a guard, an address dependency — get different symmetry keys,
// while an identical thread shares its key.
func TestSymmetryKeySeparatesSemanticFields(t *testing.T) {
	type variant struct {
		stored, expected int64
		guard            func(litmus.Reg) litmus.Guard
		dep              bool
	}
	p := litmus.New("symmetry")
	build := func(v variant) string {
		th := p.Thread("t" + string(rune('a'+len(p.Threads))))
		r := th.Load("F", core.Unpaired)
		th.WithGuards(v.guard(r))
		th.Store("X", v.stored, core.Data)
		th.EndGuards()
		th.CAS("Y", v.expected, 1, core.Paired)
		if v.dep {
			th.LoadDep("Z", r, core.Data)
		} else {
			th.Load("Z", core.Data)
		}
		return symmetryKey(th)
	}
	base := variant{stored: 1, expected: 0, guard: litmus.NZ}
	keys := map[string]string{"base": build(base)}
	for name, v := range map[string]variant{
		"stored":   {stored: 0, expected: 0, guard: litmus.NZ},
		"expected": {stored: 1, expected: 2, guard: litmus.NZ},
		"guard":    {stored: 1, expected: 0, guard: litmus.EQZ},
		"addrdep":  {stored: 1, expected: 0, guard: litmus.NZ, dep: true},
	} {
		keys[name] = build(v)
	}
	seen := map[string]string{}
	for name, k := range keys {
		if other, ok := seen[k]; ok {
			t.Errorf("threads %q and %q share the symmetry key %q", name, other, k)
		}
		seen[k] = name
	}
	if twin := build(base); twin != keys["base"] {
		t.Errorf("identical threads got different keys:\n%q\n%q", twin, keys["base"])
	}
}

// TestCanonicalNormalizesSpelling checks that explicit zero initializers,
// register order inside sum expressions, and guard order inside
// conjunctions do not affect the key.
func TestCanonicalNormalizesSpelling(t *testing.T) {
	build := func(explicitInit bool, flip bool) *litmus.Program {
		p := litmus.New("spelling")
		if explicitInit {
			p.SetInit("X", 0)
			p.SetInit("Y", 0)
		}
		ta := p.Thread("a")
		r0 := ta.Load("X", core.Unpaired)
		r1 := ta.Load("Y", core.Unpaired)
		sum := litmus.Expr{Regs: []litmus.Reg{r0, r1}}
		g1, g2 := litmus.NZ(r0), litmus.EQZ(r1)
		if flip {
			sum.Regs = []litmus.Reg{r1, r0}
			g1, g2 = g2, g1
		}
		ta.WithGuards(g1, g2)
		ta.StoreExpr("X", sum, core.Unpaired)
		ta.EndGuards()
		p.Thread("b").Store("Y", 1, core.Unpaired)
		return p
	}
	a, err := Canonicalize(build(false, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonicalize(build(true, true))
	if err != nil {
		t.Fatal(err)
	}
	if a.Key != b.Key {
		t.Errorf("spelling differences changed the canonical key:\n  %s\n  %s", a.Key, b.Key)
	}
}

// TestRewriteVerdictMatchesDirectCheck runs the canonical round-trip
// row on scrambled catalog programs: checking the canonical program and
// rewriting its verdict into the submission's names equals checking the
// submission directly.
func TestRewriteVerdictMatchesDirectCheck(t *testing.T) {
	var progs []*litmus.Program
	for _, name := range []string{"MP_unpaired", "SB_nonordering", "Seqlocks", "IRIW"} {
		p := litmus.ByName(name).Prog
		progs = append(progs, permuteRename(p, reversePerm(len(p.Threads)), scrambleLocs(p)))
	}
	checkRow(t, progs, canonicalRoundTrip)
}

// sprintfOpSig is opSig's former fmt rendering, the reference for the
// append-based one.
func sprintfOpSig(o litmus.Op, locLabel map[litmus.Loc]string) string {
	exprSig := func(e litmus.Expr) string {
		var b strings.Builder
		b.WriteString(strconv.FormatInt(e.Const, 10))
		for _, r := range normalizeExpr(e).Regs {
			b.WriteString("+r" + strconv.Itoa(int(r)))
		}
		return b.String()
	}
	if o.IsBranch {
		return "b:" + exprSig(o.Cond)
	}
	var gs []string
	for _, g := range o.Guards {
		gs = append(gs, fmt.Sprintf("%s?%d?%s", exprSig(g.A), g.Op, exprSig(g.B)))
	}
	sort.Strings(gs)
	deps := append([]litmus.Reg(nil), o.AddrDeps...)
	sort.Slice(deps, func(a, b int) bool { return deps[a] < deps[b] })
	return fmt.Sprintf("c%d;a%d;l%s;d%d;o%s;e%s;ad%v;g%s",
		o.Class, o.AOp, locLabel[o.Loc], o.Dst, exprSig(o.Operand), exprSig(o.Expected), deps, strings.Join(gs, "&"))
}

// TestOpSigMatchesSprintf: the append-based opSig renders every op of
// the catalog and of the random generator byte for byte as its fmt
// form did, so canonical thread and location order (and every cache key)
// is unchanged. Extra ops cover unsorted registers, guards and address
// dependencies, negative constants and the no-register destination.
func TestOpSigMatchesSprintf(t *testing.T) {
	var ops []litmus.Op
	add := func(p *litmus.Program) {
		for _, th := range p.Threads {
			ops = append(ops, th.Ops...)
		}
	}
	for _, tc := range litmus.Suite() {
		add(tc.Prog)
	}
	for seed := int64(0); seed < 300; seed++ {
		add(randomProgram(seed))
	}
	e := litmus.Expr{Const: -7, Regs: []litmus.Reg{3, 1, 2}}
	ops = append(ops,
		litmus.Op{IsBranch: true, Cond: e},
		litmus.Op{Class: core.Quantum, AOp: core.OpCAS, Loc: "X", Dst: litmus.NoReg, Operand: e, Expected: e,
			AddrDeps: []litmus.Reg{4, 0, 2},
			Guards: []litmus.Guard{
				{A: e, B: litmus.ConstExpr(-1), Op: litmus.GuardNE},
				litmus.EQConst(1, 5), litmus.EQReg(2, 0),
			}})
	labels := map[litmus.Loc]string{"X": "lx", "Y": "ly", "Z": "lz"}
	for _, o := range ops {
		if got, want := opSig(o, labels), sprintfOpSig(o, labels); got != want {
			t.Fatalf("op %v: opSig %q, fmt form %q", o, got, want)
		}
	}
}
