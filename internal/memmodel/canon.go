package memmodel

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"rats/internal/litmus"
)

// This file implements program canonicalization for verdict caching: two
// litmus programs that differ only by thread reordering, shared-location
// renaming, or semantically irrelevant serialization choices (register
// order inside a sum expression, guard order inside a conjunction,
// explicit vs. implicit zero initializers) map to the same canonical
// program and hence the same Key. The mapping is sound by construction —
// equal keys imply the canonical programs serialize identically, i.e. the
// submissions are the same program up to renaming — while completeness is
// best-effort: a refinement pass orders threads and locations by their
// structural role, so residual misses only cost a cache fill, never a
// wrong verdict.

// Canonical is a program's canonical form plus the renaming that produced
// it, so verdicts computed on the canonical program can be rewritten back
// into the submitter's namespace.
type Canonical struct {
	// Prog is the canonical program: threads reordered and renamed
	// t0..tN-1, locations renamed v0..vK-1, expressions and guards
	// normalized, every location's initial value explicit.
	Prog *litmus.Program
	// Key is the canonical hash (sha256 hex of the canonical program's
	// textual form).
	Key string
	// ThreadOf maps canonical thread index -> original thread index.
	ThreadOf []int
	// LocOf maps canonical location name -> original location name.
	LocOf map[litmus.Loc]litmus.Loc
}

// refineRounds is how many label-refinement iterations Canonicalize runs.
// Each round folds the current thread signatures into the location labels
// and vice versa; litmus-scale programs stabilize in two.
const refineRounds = 3

// Canonicalize computes the canonical form of a validated program.
func Canonicalize(p *litmus.Program) (*Canonical, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	locs := p.Locs()

	// Refinement: label locations by initial value, then alternate
	// location labels <- multiset of (thread signature, position) uses and
	// thread signatures <- op serializations under the current location
	// labels.
	locLabel := make(map[litmus.Loc]string, len(locs))
	for _, l := range locs {
		locLabel[l] = "i" + strconv.FormatInt(p.Init[l], 10)
	}
	tsigs := make([]string, len(p.Threads))
	for round := 0; round < refineRounds; round++ {
		for t := range p.Threads {
			tsigs[t] = threadSig(p.Threads[t], locLabel)
		}
		next := make(map[litmus.Loc]string, len(locs))
		for _, l := range locs {
			var uses []string
			for t, th := range p.Threads {
				for oi := range th.Ops {
					if !th.Ops[oi].IsBranch && th.Ops[oi].Loc == l {
						uses = append(uses, fmt.Sprintf("%s@%d", tsigs[t], oi))
					}
				}
			}
			sort.Strings(uses)
			sum := sha256.Sum256([]byte("i" + strconv.FormatInt(p.Init[l], 10) + "\x00" + strings.Join(uses, "\x01")))
			next[l] = hex.EncodeToString(sum[:8])
		}
		locLabel = next
	}

	// Thread order: by final signature, original index as a deterministic
	// tiebreak (tied signatures mean the refinement sees the threads as
	// interchangeable; if they are, either order serializes identically).
	order := make([]int, len(p.Threads))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return tsigs[order[a]] < tsigs[order[b]]
	})

	// Location order: first appearance walking threads in canonical
	// order; init-only locations follow, ordered by label (a pure
	// function of their initial value at that point).
	locRank := make(map[litmus.Loc]int, len(locs))
	var locOrder []litmus.Loc
	appear := func(l litmus.Loc) {
		if _, ok := locRank[l]; !ok {
			locRank[l] = len(locOrder)
			locOrder = append(locOrder, l)
		}
	}
	for _, t := range order {
		for _, o := range p.Threads[t].Ops {
			if !o.IsBranch {
				appear(o.Loc)
			}
		}
	}
	var rest []litmus.Loc
	for _, l := range locs {
		if _, ok := locRank[l]; !ok {
			rest = append(rest, l)
		}
	}
	sort.Slice(rest, func(a, b int) bool {
		if locLabel[rest[a]] != locLabel[rest[b]] {
			return locLabel[rest[a]] < locLabel[rest[b]]
		}
		return rest[a] < rest[b]
	})
	for _, l := range rest {
		appear(l)
	}

	locMap := make(map[litmus.Loc]litmus.Loc, len(locOrder)) // orig -> canon
	locOf := make(map[litmus.Loc]litmus.Loc, len(locOrder))  // canon -> orig
	for i, l := range locOrder {
		cl := litmus.Loc("v" + strconv.Itoa(i))
		locMap[l] = cl
		locOf[cl] = l
	}

	// Build the canonical program.
	cp := litmus.New("canonical")
	for _, l := range locOrder {
		cp.SetInit(locMap[l], p.Init[l])
	}
	if len(p.QuantumDomain) > 0 {
		cp.QuantumDomain = append([]int64(nil), p.QuantumDomain...)
		sort.Slice(cp.QuantumDomain, func(a, b int) bool { return cp.QuantumDomain[a] < cp.QuantumDomain[b] })
	}
	for ci, t := range order {
		src := p.Threads[t]
		dst := cp.Thread("t" + strconv.Itoa(ci))
		dst.Ops = make([]litmus.Op, len(src.Ops))
		for i, o := range src.Ops {
			dst.Ops[i] = normalizeOp(o, locMap)
		}
		dst.SetNumRegs(src.NumRegs())
	}
	sum := sha256.Sum256([]byte(litmus.Format(cp)))
	return &Canonical{
		Prog:     cp,
		Key:      hex.EncodeToString(sum[:]),
		ThreadOf: order,
		LocOf:    locOf,
	}, nil
}

// normalizeOp deep-copies an op, renames its location, and normalizes
// semantically irrelevant orderings (registers within a sum, guards
// within a conjunction, address-dependency lists).
func normalizeOp(o litmus.Op, locMap map[litmus.Loc]litmus.Loc) litmus.Op {
	n := o
	n.Cond = normalizeExpr(o.Cond)
	n.Operand = normalizeExpr(o.Operand)
	n.Expected = normalizeExpr(o.Expected)
	if !o.IsBranch {
		n.Loc = locMap[o.Loc]
	}
	if len(o.AddrDeps) > 0 {
		n.AddrDeps = append([]litmus.Reg(nil), o.AddrDeps...)
		sort.Slice(n.AddrDeps, func(a, b int) bool { return n.AddrDeps[a] < n.AddrDeps[b] })
	}
	if len(o.Guards) > 0 {
		n.Guards = make([]litmus.Guard, len(o.Guards))
		for i, g := range o.Guards {
			n.Guards[i] = litmus.Guard{A: normalizeExpr(g.A), B: normalizeExpr(g.B), Op: g.Op}
		}
		sort.SliceStable(n.Guards, func(a, b int) bool {
			return guardSig(n.Guards[a]) < guardSig(n.Guards[b])
		})
	}
	return n
}

func normalizeExpr(e litmus.Expr) litmus.Expr {
	n := litmus.Expr{Const: e.Const}
	if len(e.Regs) > 0 {
		n.Regs = append([]litmus.Reg(nil), e.Regs...)
		sort.Slice(n.Regs, func(a, b int) bool { return n.Regs[a] < n.Regs[b] })
	}
	return n
}

// appendExprSig appends e's signature: its constant, then "+r<n>" for
// each register in ascending order.
func appendExprSig(b []byte, e litmus.Expr) []byte {
	b = strconv.AppendInt(b, e.Const, 10)
	for _, r := range normalizeExpr(e).Regs {
		b = strconv.AppendInt(append(b, "+r"...), int64(r), 10)
	}
	return b
}

func guardSig(g litmus.Guard) string {
	b := append(appendExprSig(nil, g.A), '?')
	b = append(strconv.AppendUint(b, uint64(g.Op), 10), '?')
	return string(appendExprSig(b, g.B))
}

// opSig serializes one op under the current location labels, for the
// refinement pass. It intentionally mirrors normalizeOp's view of what
// matters semantically. It renders with appends, not fmt: the
// canonicalizer and symmetryKey call it for every op of every check.
func opSig(o litmus.Op, locLabel map[litmus.Loc]string) string {
	if o.IsBranch {
		return string(appendExprSig([]byte("b:"), o.Cond))
	}
	gs := make([]string, len(o.Guards))
	for i, g := range o.Guards {
		gs[i] = guardSig(g)
	}
	sort.Strings(gs)
	deps := slices.Clone(o.AddrDeps)
	slices.Sort(deps)
	b := strconv.AppendUint([]byte("c"), uint64(o.Class), 10)
	b = strconv.AppendUint(append(b, ";a"...), uint64(o.AOp), 10)
	b = append(append(b, ";l"...), locLabel[o.Loc]...)
	b = strconv.AppendInt(append(b, ";d"...), int64(o.Dst), 10)
	b = appendExprSig(append(b, ";o"...), o.Operand)
	b = append(appendExprSig(append(b, ";e"...), o.Expected), ";ad["...)
	for i, d := range deps {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	return string(append(append(b, "];g"...), strings.Join(gs, "&")...))
}

func threadSig(t *litmus.Thread, locLabel map[litmus.Loc]string) string {
	sigs := make([]string, len(t.Ops))
	for i := range t.Ops {
		sigs[i] = opSig(t.Ops[i], locLabel)
	}
	return strings.Join(sigs, "\x02")
}

// symmetryKey serializes a thread by its register count and every
// semantic field of its ops (class, atomic op, location name,
// destination register, operand and expected expressions, address
// dependencies, guards, branch conditions). Two threads of one program
// with equal keys are interchangeable: swapping them is a program
// automorphism, which is what thread-symmetry reductions rely on.
func symmetryKey(t *litmus.Thread) string {
	names := map[litmus.Loc]string{}
	for i := range t.Ops {
		if !t.Ops[i].IsBranch {
			names[t.Ops[i].Loc] = string(t.Ops[i].Loc)
		}
	}
	return strconv.Itoa(t.NumRegs()) + "\x00" + threadSig(t, names)
}

// symmetryClasses groups p's threads by symmetryKey: classOf[t] is thread
// t's class, and classes lists each class's threads in index order, the
// classes ordered by their first thread.
func symmetryClasses(p *litmus.Program) (classOf []int, classes [][]int) {
	sig := map[string]int{}
	classOf = make([]int, len(p.Threads))
	for t, th := range p.Threads {
		key := symmetryKey(th)
		ci, ok := sig[key]
		if !ok {
			ci = len(classes)
			sig[key] = ci
			classes = append(classes, nil)
		}
		classOf[t] = ci
		classes[ci] = append(classes[ci], t)
	}
	return classOf, classes
}

// RewriteVerdict maps a verdict computed on the canonical program back
// into the original program's namespace: race descriptions go through the
// thread permutation (re-normalizing each pair's orientation to the
// original event order), SC-result keys through the location renaming,
// and the program name becomes name. Execs reflects the canonical
// program's search (partial-order reduction may pick a different number
// of representatives per trace than a direct check of the original —
// the verdict-relevant sets are identical).
func (c *Canonical) RewriteVerdict(v *Verdict, name string) *Verdict {
	out := &Verdict{
		Prog:      name,
		Model:     v.Model,
		Legal:     v.Legal,
		Execs:     v.Execs,
		Races:     make(map[RaceKind][]string, len(v.Races)),
		SCResults: make(map[string]bool, len(v.SCResults)),
	}
	for k, descs := range v.Races {
		rewritten := make([]string, 0, len(descs))
		for _, d := range descs {
			rewritten = append(rewritten, c.rewriteRaceDesc(d))
		}
		sort.Strings(rewritten)
		out.Races[k] = rewritten
	}
	for key := range v.SCResults {
		out.SCResults[c.rewriteResultKey(key)] = true
	}
	return out
}

// raceSide is one endpoint of a "T%d.%d(%s)" race description.
type raceSide struct {
	thread, op int
	class      string
}

func parseRaceSide(s string) (raceSide, bool) {
	if !strings.HasPrefix(s, "T") || !strings.HasSuffix(s, ")") {
		return raceSide{}, false
	}
	dot := strings.IndexByte(s, '.')
	par := strings.IndexByte(s, '(')
	if dot < 0 || par < 0 || par < dot {
		return raceSide{}, false
	}
	t, err1 := strconv.Atoi(s[1:dot])
	o, err2 := strconv.Atoi(s[dot+1 : par])
	if err1 != nil || err2 != nil {
		return raceSide{}, false
	}
	return raceSide{thread: t, op: o, class: s[par+1 : len(s)-1]}, true
}

// rewriteRaceDesc maps one "T%d.%d(%s)~T%d.%d(%s)" description through
// the thread permutation. Unparseable descriptions pass through verbatim
// (the format is ours, so this is a belt-and-suspenders fallback).
func (c *Canonical) rewriteRaceDesc(d string) string {
	halves := strings.SplitN(d, "~", 2)
	if len(halves) != 2 {
		return d
	}
	a, okA := parseRaceSide(halves[0])
	b, okB := parseRaceSide(halves[1])
	if !okA || !okB || a.thread >= len(c.ThreadOf) || b.thread >= len(c.ThreadOf) {
		return d
	}
	a.thread = c.ThreadOf[a.thread]
	b.thread = c.ThreadOf[b.thread]
	// Event IDs are assigned thread-major, so the canonical i<j
	// orientation corresponds to (thread, opIndex) lexicographic order;
	// restore it in the original program's numbering.
	if a.thread > b.thread || (a.thread == b.thread && a.op > b.op) {
		a, b = b, a
	}
	return fmt.Sprintf("T%d.%d(%s)~T%d.%d(%s)", a.thread, a.op, a.class, b.thread, b.op, b.class)
}

// rewriteResultKey maps a "loc=val;..." result key through the location
// renaming, restoring the sorted-by-name order the original program's
// ResultKey would produce.
func (c *Canonical) rewriteResultKey(key string) string {
	segs := strings.Split(strings.TrimSuffix(key, ";"), ";")
	type kv struct{ loc, val string }
	out := make([]kv, 0, len(segs))
	for _, seg := range segs {
		if seg == "" {
			continue
		}
		eq := strings.LastIndexByte(seg, '=')
		if eq < 0 {
			out = append(out, kv{loc: seg})
			continue
		}
		loc, val := seg[:eq], seg[eq+1:]
		if orig, ok := c.LocOf[litmus.Loc(loc)]; ok {
			loc = string(orig)
		}
		out = append(out, kv{loc: loc, val: val})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].loc < out[b].loc })
	var b strings.Builder
	for _, e := range out {
		b.WriteString(e.loc)
		b.WriteByte('=')
		b.WriteString(e.val)
		b.WriteByte(';')
	}
	return b.String()
}
