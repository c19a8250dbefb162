package memmodel

import (
	"rats/internal/core"
	"rats/internal/litmus"

	"rats/internal/memmodel/rel"
)

// relations bundles the per-execution relations of Sections 2.3 and 3.3:
// program order, the paper's conflict order (all conflicting accesses
// ordered by the SC total order T — a superset of Herd's co/rf/fr),
// synchronization order so1, happens-before hb1, and the derived
// program/conflict-graph reachability relations the non-ordering detector
// needs.
type relations struct {
	// Core relations.
	PO       rel.Rel // program order
	Conflict rel.Rel // symmetric conflict (same loc, ≥1 write)
	CO       rel.Rel // conflict order: conflict ∩ (T-earlier × T-later)
	SO1      rel.Rel // synchronization order 1 (release W → acquire R)
	HB1      rel.Rel // happens-before-1 = (po ∪ so1)+
	Race     rel.Rel // symmetric: conflict, cross-thread, hb1-unordered

	// Program/conflict graph reachability.
	G      rel.Rel // po ∪ co (graph edges)
	Reach  rel.Rel // G* (reflexive)
	POPath rel.Rel // G* ; po ; G*  (paths containing ≥1 po edge)

	// Event sets.
	IsW, IsR  []bool
	Observed  []bool // loaded value feeds a later dependency
	SameLoc   rel.Rel
	ValidPath rel.Rel // hb1 ∪ homogeneous valid ordering paths
}

// analyzer is a reusable race-analysis context: it owns every relation,
// bitset, and pair buffer buildRelations and Analyze need, so repeated
// analyses of executions from the same program run with ~zero allocations
// per execution. The *relations and *Analysis it returns borrow the
// arena: they are valid until the next buildRelations/Analyze call on the
// same analyzer. An analyzer must not be used from multiple goroutines
// concurrently. Its zero value is empty: it sizes itself lazily to the
// first program analyzed and re-sizes transparently when fed executions
// of a different program.
type analyzer struct {
	prog *litmus.Program
	lay  eventLayout
	n    int

	rels relations

	// Scratch relations.
	tBefore  rel.Rel // T-earlier × T-later over present events
	invReach rel.Rel
	hEdges   rel.Rel // valid-path homogeneous edge set
	hStar    rel.Rel
	poRestr  rel.Rel
	tmp1     rel.Rel
	tmp2     rel.Rel
	dRel     rel.Rel // per-kind race relations
	cRel     rel.Rel
	nRel     rel.Rel
	qRel     rel.Rel
	sRel     rel.Rel

	// Scratch event sets.
	present    rel.Bits
	after      rel.Bits
	wBits      rel.Bits
	pwBits     rel.Bits // so1 sources (releases)
	prBits     rel.Bits // so1 targets (acquires)
	atomicBits rel.Bits
	puBits     rel.Bits
	scr        rel.Bits
	threadBits []rel.Bits
	locBits    []rel.Bits
	locIdx     map[litmus.Loc]int
	classBits  []rel.Bits // indexed by core.Class; static per program
	// Static per-program event tables (event IDs are stable across
	// executions, so everything derivable from the static ops alone is
	// computed once in ensure): issuing thread and location index,
	// access-kind flags, and the candidate sets the per-execution loops
	// only need to mask with Present.
	evThread     []int
	evLoc        []int
	evWrites     []bool
	evReads      []bool
	evClass      []core.Class
	pwStatic     rel.Bits // releases (so1 sources)
	prStatic     rel.Bits // acquires (so1 targets)
	puStatic     rel.Bits // paired or unpaired accesses
	atomicStatic rel.Bits
	// Observability precompute: obsAlways[id] marks events whose loaded
	// value feeds a later branch condition or guard of the thread (always
	// evaluated, so always observed when the event is present); obsUse[id]
	// lists the later same-thread events that use the destination register
	// in their address/data/expected inputs (observed only when that user
	// is itself present).
	obsAlways []bool
	obsUse    [][]int

	pairBuf  [][2]int
	analysis Analysis
}

// ensure re-dimensions the arena for p's event layout. Repeated calls for
// the same program are pointer-compare cheap.
func (a *analyzer) ensure(p *litmus.Program) {
	if a.prog == p {
		return
	}
	a.prog = p
	a.lay = layout(p)
	n := a.lay.n
	sameN := n == a.n
	a.n = n

	r := &a.rels
	rels := [...]*rel.Rel{
		&r.PO, &r.Conflict, &r.CO, &r.SO1, &r.HB1, &r.Race,
		&r.G, &r.Reach, &r.POPath, &r.SameLoc, &r.ValidPath,
		&a.tBefore, &a.invReach, &a.hEdges, &a.hStar,
		&a.poRestr, &a.tmp1, &a.tmp2,
		&a.dRel, &a.cRel, &a.nRel, &a.qRel, &a.sRel,
	}
	if sameN {
		for _, rp := range rels {
			*rp = rp.Resized(n)
		}
	} else {
		// Dimension change (or first use): carve every relation from one
		// slab so arena setup costs one allocation, not one per relation.
		slab := rel.NewSlab(n, len(rels))
		for i, rp := range rels {
			*rp = slab[i]
		}
	}

	r.IsW = boolBuf(r.IsW, n)
	r.IsR = boolBuf(r.IsR, n)
	r.Observed = boolBuf(r.Observed, n)

	if !sameN {
		bits := rel.MakeBitsSlab(n, 12)
		a.present, a.after, a.wBits, a.pwBits = bits[0], bits[1], bits[2], bits[3]
		a.prBits, a.atomicBits, a.puBits, a.scr = bits[4], bits[5], bits[6], bits[7]
		a.pwStatic, a.prStatic, a.puStatic, a.atomicStatic = bits[8], bits[9], bits[10], bits[11]
		a.threadBits = nil
		a.locBits = nil
		a.classBits = nil
	} else {
		a.pwStatic.Reset()
		a.prStatic.Reset()
		a.puStatic.Reset()
		a.atomicStatic.Reset()
	}
	if len(a.threadBits) != len(p.Threads) {
		a.threadBits = rel.MakeBitsSlab(n, len(p.Threads))
	}
	nc := 0
	for _, c := range core.Classes() {
		if int(c)+1 > nc {
			nc = int(c) + 1
		}
	}
	if len(a.classBits) != nc {
		a.classBits = rel.MakeBitsSlab(n, nc)
	} else {
		for c := range a.classBits {
			a.classBits[c].Reset()
		}
	}
	locs := a.lay.locs
	if a.locIdx == nil || len(a.locBits) < len(locs) || !sameN {
		a.locIdx = make(map[litmus.Loc]int, len(locs))
		a.locBits = rel.MakeBitsSlab(n, len(locs))
	} else {
		for k := range a.locIdx {
			delete(a.locIdx, k)
		}
		a.locBits = a.locBits[:len(locs)]
	}
	for i, l := range locs {
		a.locIdx[l] = i
	}
	if cap(a.evThread) < n {
		a.evThread = make([]int, n)
		a.evLoc = make([]int, n)
	}
	a.evThread = a.evThread[:n]
	a.evLoc = a.evLoc[:n]
	a.evWrites = boolBuf(a.evWrites, n)
	a.evReads = boolBuf(a.evReads, n)
	if cap(a.evClass) < n {
		a.evClass = make([]core.Class, n)
	}
	a.evClass = a.evClass[:n]
	a.obsAlways = boolBuf(a.obsAlways, n)
	if cap(a.obsUse) < n {
		a.obsUse = make([][]int, n)
	}
	a.obsUse = a.obsUse[:n]
	for t, th := range p.Threads {
		for i := range th.Ops {
			op := &th.Ops[i]
			id := a.lay.id[t][i]
			if id < 0 {
				continue
			}
			a.evThread[id] = t
			a.evLoc[id] = a.locIdx[op.Loc]
			a.evWrites[id] = op.Writes()
			a.evReads[id] = op.Reads()
			cls := op.Class
			a.evClass[id] = cls
			a.classBits[cls].Set(id)
			if cls.IsAtomic() {
				a.atomicStatic.Set(id)
			}
			if cls == core.Paired || cls == core.Unpaired {
				a.puStatic.Set(id)
			}
			// so1's endpoints. The labels are the checked model's
			// (Program.Under), on which DRFrlx's predicates are its own.
			if core.DRFrlx.Releases(op.Access()) {
				a.pwStatic.Set(id)
			}
			if core.DRFrlx.Acquires(op.Access()) {
				a.prStatic.Set(id)
			}
			// Observability scan (the paper's Herd approximation): the
			// destination register feeds the address, data, or control
			// (branch/guard) inputs of a later instruction of the thread.
			// Branch conditions and guards are always evaluated, so those
			// uses observe unconditionally; other uses only count in
			// executions where the using op is present.
			a.obsAlways[id] = false
			a.obsUse[id] = a.obsUse[id][:0]
			if op.Dst == litmus.NoReg {
				continue
			}
			for j := i + 1; j < len(th.Ops); j++ {
				later := &th.Ops[j]
				if later.IsBranch {
					if later.Cond.DependsOn(op.Dst) {
						a.obsAlways[id] = true
						break
					}
					continue
				}
				if later.GuardUsesReg(op.Dst) {
					a.obsAlways[id] = true
					break
				}
				if later.UsesReg(op.Dst) {
					a.obsUse[id] = append(a.obsUse[id], a.lay.id[t][j])
				}
			}
		}
	}
}

// boolBuf resizes a reusable []bool buffer.
func boolBuf(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	return b[:n]
}

// observedInto evaluates the precomputed observability scan against one
// execution's Present set. The analysis is execution-aware: an op skipped
// by a failed guard does not use its operand registers in that execution
// (the misspeculated seqlock read whose value is discarded), which is why
// obsUse entries are gated on the user's presence, while obsAlways
// (branch/guard uses) holds unconditionally.
func (a *analyzer) observedInto(out []bool, ex *Execution) {
	for id := range out {
		o := false
		if ex.Present[id] {
			if a.obsAlways[id] {
				o = true
			} else {
				for _, u := range a.obsUse[id] {
					if ex.Present[u] {
						o = true
						break
					}
				}
			}
		}
		out[id] = o
	}
}

// buildRelations computes all relations for one execution in the
// analyzer's arena. The returned *relations is valid until the next
// buildRelations/Analyze call.
func (a *analyzer) buildRelations(ex *Execution) *relations {
	a.ensure(ex.Prog)
	n := a.n
	r := &a.rels

	for i := 0; i < n; i++ {
		pres := ex.Present[i]
		r.IsW[i] = pres && a.evWrites[i]
		r.IsR[i] = pres && a.evReads[i]
	}
	a.observedInto(r.Observed, ex)

	// Event-set masks: present events per thread, per location, writers.
	a.present.Reset()
	a.wBits.Reset()
	for t := range a.threadBits {
		a.threadBits[t].Reset()
	}
	for l := range a.locBits {
		a.locBits[l].Reset()
	}
	for i := 0; i < n; i++ {
		if !ex.Present[i] {
			continue
		}
		a.present.Set(i)
		a.threadBits[a.evThread[i]].Set(i)
		a.locBits[a.evLoc[i]].Set(i)
		if a.evWrites[i] {
			a.wBits.Set(i)
		}
	}

	// Program order, same-location, conflict — one masked row per event:
	// po(i) = later present events of i's thread, sameloc(i) = present
	// events at i's location minus i, conflict(i) = sameloc(i) when i
	// writes, sameloc(i) ∩ writers otherwise.
	r.PO.ClearAll()
	r.SameLoc.ClearAll()
	r.Conflict.ClearAll()
	for i := 0; i < n; i++ {
		if !ex.Present[i] {
			continue
		}
		po := r.PO.Row(i)
		po.CopyFrom(a.threadBits[a.evThread[i]])
		po.KeepAbove(i)
		sl := r.SameLoc.Row(i)
		sl.CopyFrom(a.locBits[a.evLoc[i]])
		sl.Unset(i)
		cf := r.Conflict.Row(i)
		cf.CopyFrom(sl)
		if !r.IsW[i] {
			cf.AndIn(a.wBits)
		}
	}

	// Conflict order: conflicting accesses in T order. tBefore rows are
	// suffix sets of the total order, built in one reverse sweep.
	a.tBefore.ClearAll()
	a.after.Reset()
	for pos := len(ex.Order) - 1; pos >= 0; pos-- {
		id := ex.Order[pos]
		a.tBefore.Row(id).CopyFrom(a.after)
		a.after.Set(id)
	}
	r.CO.CopyFrom(r.Conflict)
	r.CO.InterIn(a.tBefore)

	// so1: release write → acquire read, conflicting, T-ordered. A
	// paired access is either, and the Section 7 extension classes
	// participate: a release write synchronizes with a paired or acquire
	// read (sound on the simulated multi-copy-atomic machine).
	a.pwBits.CopyFrom(a.pwStatic)
	a.pwBits.AndIn(a.present)
	a.prBits.CopyFrom(a.prStatic)
	a.prBits.AndIn(a.present)
	r.SO1.CrossIn(a.pwBits, a.prBits)
	r.SO1.InterIn(r.CO)

	// hb1 = (po ∪ so1)+.
	r.HB1.CopyFrom(r.PO)
	r.HB1.UnionIn(r.SO1)
	r.HB1.TransCloseIn()

	// Race: conflicting, different threads, hb1-unordered (symmetric).
	r.Race.ClearAll()
	for i := 0; i < n; i++ {
		if !ex.Present[i] {
			continue
		}
		row := r.Race.Row(i)
		row.CopyFrom(r.Conflict.Row(i))
		row.AndNotIn(a.threadBits[a.evThread[i]])
	}
	// Subtract hb1-ordered pairs in both orientations without
	// materializing hb1⁻¹: the word-parallel DiffIn removes the forward
	// orientation, and the reverse orientation of each ordered candidate
	// (a sparse set — cross-thread conflicting pairs only) is cleared
	// pointwise.
	a.tmp1.CopyFrom(r.Race)
	a.tmp1.InterIn(r.HB1)
	r.Race.DiffIn(r.HB1)
	a.tmp1.ForEach(func(i, j int) {
		r.Race.Clear(j, i)
	})

	// Program/conflict graph reachability.
	r.G.CopyFrom(r.PO)
	r.G.UnionIn(r.CO)
	r.Reach.CopyFrom(r.G)
	r.Reach.ReflTransCloseIn()
	a.tmp1.ComposeInto(r.Reach, r.PO)
	r.POPath.ComposeInto(a.tmp1, r.Reach)

	// Valid ordering paths (per Listing 7's operational encoding, which
	// resolves the prose definition): a valid path is an ordering path
	// (it contains a program-order edge) made entirely of hb1 edges
	// (po ∪ so1 — each individually enforced by the system), entirely of
	// same-location edges, or entirely of edges between paired/unpaired
	// accesses. Note it is the path's *edges* that must be in po ∪ so1 —
	// merely having hb1-ordered endpoints is NOT enough: a bare so1 edge
	// is not an ordering path, and crediting it would declare programs
	// legal whose non-ordering stores a compliant system can reorder into
	// non-SC results (found by the exhaustive theorem fuzzer).
	r.ValidPath.ClearAll()
	addVO := func(edges, restr rel.Rel) {
		if restr.Empty() {
			// The contribution hStar;restr;hStar is empty: skip the
			// closure and both compositions.
			return
		}
		a.hStar.CopyFrom(edges)
		a.hStar.ReflTransCloseIn()
		a.tmp1.ComposeInto(a.hStar, restr)
		a.tmp2.ComposeInto(a.tmp1, a.hStar)
		r.ValidPath.UnionIn(a.tmp2)
	}
	a.hEdges.CopyFrom(r.G)
	a.hEdges.InterIn(r.SameLoc)
	a.poRestr.CopyFrom(r.PO)
	a.poRestr.InterIn(r.SameLoc)
	addVO(a.hEdges, a.poRestr)
	a.puBits.CopyFrom(a.puStatic)
	a.puBits.AndIn(a.present)
	a.hEdges.CopyFrom(r.G)
	a.hEdges.RestrictToIn(a.puBits)
	a.poRestr.CopyFrom(r.PO)
	a.poRestr.RestrictToIn(a.puBits)
	addVO(a.hEdges, a.poRestr)
	a.hEdges.CopyFrom(r.PO)
	a.hEdges.UnionIn(r.SO1)
	addVO(a.hEdges, r.PO)

	return r
}
