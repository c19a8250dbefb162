// Package rel implements the small relational algebra over execution
// events that the Herd memory-model tool exposes (union, intersection,
// difference, sequential composition, transitive closure, inverses,
// cartesian products of event sets). Relations are dense bit matrices:
// each row is a []uint64 bitset, so the set operators are word-parallel
// (64 pairs per instruction), Compose and TransClosure are row-OR kernels
// (O(n³/64)), and litmus-sized relations (n ≤ 64) fit one word per row.
//
// Every allocating operator has an in-place (-In) or destination (-Into)
// variant, and Bits/ForEach expose rows and pairs without materializing
// index slices, so a steady-state analysis pipeline can run without
// allocating. The original []bool implementation is retained in
// reference.go as the differential-testing and benchmarking baseline.
package rel

import (
	"fmt"
	"math/bits"
)

// words returns the number of 64-bit words needed for n bits.
func words(n int) int { return (n + 63) >> 6 }

// Bits is a set over events 0..n-1, packed 64 per word. It is the row
// type of Rel and the mask type of the word-parallel kernels. The zero
// value is an empty set over zero events.
type Bits struct {
	n int
	b []uint64
}

// MakeBits returns an empty set over n events.
func MakeBits(n int) Bits { return Bits{n: n, b: make([]uint64, words(n))} }

// MakeBitsSlab returns k empty size-n sets carved from one backing
// allocation (capacity-capped so a later regrowth of one cannot bleed
// into its neighbours), for arenas that set up many sets at once.
func MakeBitsSlab(n, k int) []Bits {
	w := words(n)
	backing := make([]uint64, w*k)
	out := make([]Bits, k)
	for i := range out {
		out[i] = Bits{n: n, b: backing[i*w : (i+1)*w : (i+1)*w]}
	}
	return out
}

// BitsFromBools packs a predicate vector into a Bits set.
func BitsFromBools(v []bool) Bits {
	s := MakeBits(len(v))
	for i, ok := range v {
		if ok {
			s.b[i>>6] |= 1 << uint(i&63)
		}
	}
	return s
}

// Len returns the number of events the set ranges over.
func (s Bits) Len() int { return s.n }

func (s Bits) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("rel: bit %d out of range [0,%d)", i, s.n))
	}
}

func (s Bits) checkLen(o Bits) {
	if s.n != o.n {
		panic(fmt.Sprintf("rel: size mismatch %d vs %d", s.n, o.n))
	}
}

// Set adds event i.
func (s Bits) Set(i int) { s.check(i); s.b[i>>6] |= 1 << uint(i&63) }

// Unset removes event i.
func (s Bits) Unset(i int) { s.check(i); s.b[i>>6] &^= 1 << uint(i&63) }

// Has reports whether event i is in the set.
func (s Bits) Has(i int) bool { s.check(i); return s.b[i>>6]&(1<<uint(i&63)) != 0 }

// Reset clears every bit.
func (s Bits) Reset() {
	for i := range s.b {
		s.b[i] = 0
	}
}

// CopyFrom overwrites s with o.
func (s Bits) CopyFrom(o Bits) { s.checkLen(o); copy(s.b, o.b) }

// AndIn keeps only elements also in o (s ∩= o).
func (s Bits) AndIn(o Bits) {
	s.checkLen(o)
	for i, w := range o.b {
		s.b[i] &= w
	}
}

// AndNotIn removes every element of o (s \= o).
func (s Bits) AndNotIn(o Bits) {
	s.checkLen(o)
	for i, w := range o.b {
		s.b[i] &^= w
	}
}

// KeepAbove removes every event ≤ i.
func (s Bits) KeepAbove(i int) {
	wi := i >> 6
	for k := 0; k < wi && k < len(s.b); k++ {
		s.b[k] = 0
	}
	if wi < len(s.b) {
		s.b[wi] &^= (1 << uint(i&63+1)) - 1
	}
}

// Count returns the number of elements.
func (s Bits) Count() int {
	c := 0
	for _, w := range s.b {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether the set is non-empty.
func (s Bits) Any() bool {
	for _, w := range s.b {
		if w != 0 {
			return true
		}
	}
	return false
}

// ForEach calls f for every element in ascending order.
func (s Bits) ForEach(f func(i int)) {
	for wi, w := range s.b {
		for w != 0 {
			f(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Rel is a binary relation over events 0..n-1, stored as n bitset rows of
// w = ⌈n/64⌉ words each. Methods have value receivers but share the
// backing array, exactly like a slice: Set/Clear and the -In/-Into
// kernels mutate the relation they are called on.
type Rel struct {
	n int
	w int
	m []uint64
}

// New returns an empty relation over n events.
func New(n int) Rel {
	w := words(n)
	return Rel{n: n, w: w, m: make([]uint64, n*w)}
}

// NewSlab returns k empty size-n relations carved from one backing
// allocation (capacity-capped so Resized regrowth of one allocates fresh
// instead of bleeding into its neighbours), for arenas that set up many
// relations at once.
func NewSlab(n, k int) []Rel {
	w := words(n)
	backing := make([]uint64, n*w*k)
	out := make([]Rel, k)
	for i := range out {
		out[i] = Rel{n: n, w: w, m: backing[i*n*w : (i+1)*n*w : (i+1)*n*w]}
	}
	return out
}

// Identity returns the identity relation over n events.
func Identity(n int) Rel {
	r := New(n)
	r.AddIdentity()
	return r
}

// FromPairs builds a relation from explicit (i, j) pairs.
func FromPairs(n int, pairs [][2]int) Rel {
	r := New(n)
	for _, p := range pairs {
		r.Set(p[0], p[1])
	}
	return r
}

// Cross returns the relation {(i, j) : a[i] && b[j]} — Herd's set product
// (e.g. PairedW * PairedR).
func Cross(a, b []bool) Rel {
	if len(a) != len(b) {
		panic("rel: Cross on sets of different sizes")
	}
	r := New(len(a))
	r.CrossIn(BitsFromBools(a), BitsFromBools(b))
	return r
}

// Size returns the number of events the relation ranges over.
func (r Rel) Size() int { return r.n }

func (r Rel) checkPair(i, j int) {
	if i < 0 || i >= r.n || j < 0 || j >= r.n {
		panic(fmt.Sprintf("rel: pair (%d,%d) out of range [0,%d)", i, j, r.n))
	}
}

// Set adds the pair (i, j).
func (r Rel) Set(i, j int) {
	r.checkPair(i, j)
	r.m[i*r.w+j>>6] |= 1 << uint(j&63)
}

// Clear removes the pair (i, j).
func (r Rel) Clear(i, j int) {
	r.checkPair(i, j)
	r.m[i*r.w+j>>6] &^= 1 << uint(j&63)
}

// Has reports whether (i, j) is in the relation.
func (r Rel) Has(i, j int) bool {
	r.checkPair(i, j)
	return r.m[i*r.w+j>>6]&(1<<uint(j&63)) != 0
}

// Row returns row i — the set {j : r(i, j)} — aliasing the relation's
// storage, so mutations through the row mutate the relation.
func (r Rel) Row(i int) Bits { return Bits{n: r.n, b: r.m[i*r.w : (i+1)*r.w]} }

// Clone returns a deep copy.
func (r Rel) Clone() Rel {
	c := New(r.n)
	copy(c.m, r.m)
	return c
}

// Resized returns an empty relation over n events, reusing r's backing
// array when it is large enough. Arena helper: rels are re-dimensioned
// per program without reallocating.
func (r Rel) Resized(n int) Rel {
	need := n * words(n)
	if cap(r.m) < need {
		return New(n)
	}
	r.n, r.w, r.m = n, words(n), r.m[:need]
	r.ClearAll()
	return r
}

// ClearAll removes every pair.
func (r Rel) ClearAll() {
	for i := range r.m {
		r.m[i] = 0
	}
}

func (r Rel) check(o Rel) {
	if r.n != o.n {
		panic(fmt.Sprintf("rel: size mismatch %d vs %d", r.n, o.n))
	}
}

// CopyFrom overwrites r with o.
func (r Rel) CopyFrom(o Rel) {
	r.check(o)
	copy(r.m, o.m)
}

// AddIdentity adds every (i, i) pair.
func (r Rel) AddIdentity() {
	for i := 0; i < r.n; i++ {
		r.m[i*r.w+i>>6] |= 1 << uint(i&63)
	}
}

// UnionIn adds every pair of o (r ∪= o).
func (r Rel) UnionIn(o Rel) {
	r.check(o)
	for i, w := range o.m {
		r.m[i] |= w
	}
}

// InterIn keeps only pairs also in o (r ∩= o).
func (r Rel) InterIn(o Rel) {
	r.check(o)
	for i, w := range o.m {
		r.m[i] &= w
	}
}

// DiffIn removes every pair of o (r \= o).
func (r Rel) DiffIn(o Rel) {
	r.check(o)
	for i, w := range o.m {
		r.m[i] &^= w
	}
}

// Union returns r ∪ o.
func (r Rel) Union(o Rel) Rel {
	c := r.Clone()
	c.UnionIn(o)
	return c
}

// Inter returns r ∩ o.
func (r Rel) Inter(o Rel) Rel {
	c := r.Clone()
	c.InterIn(o)
	return c
}

// Diff returns r \ o.
func (r Rel) Diff(o Rel) Rel {
	c := r.Clone()
	c.DiffIn(o)
	return c
}

// ComposeInto overwrites r with the sequential composition a ; b
// ({(i, k) : ∃j. a(i,j) ∧ b(j,k)}). r must not alias a or b. The kernel
// is a row-OR: for every edge (i, j) of a, row j of b is OR-ed into row i
// of the result — O(n³/64) worst case, O(pairs(a)·n/64) in practice.
func (r Rel) ComposeInto(a, b Rel) {
	r.check(a)
	r.check(b)
	if r.w == 1 {
		// One word per row (n ≤ 64, every litmus-scale relation): gather
		// b-rows of a's set bits without any slice arithmetic.
		for i := 0; i < r.n; i++ {
			w := a.m[i]
			var out uint64
			for w != 0 {
				out |= b.m[bits.TrailingZeros64(w)]
				w &= w - 1
			}
			r.m[i] = out
		}
		return
	}
	for i := 0; i < r.n; i++ {
		dst := r.m[i*r.w : (i+1)*r.w]
		for k := range dst {
			dst[k] = 0
		}
		row := a.m[i*a.w : (i+1)*a.w]
		for wi, w := range row {
			for w != 0 {
				j := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				brow := b.m[j*b.w : (j+1)*b.w]
				for k, bw := range brow {
					dst[k] |= bw
				}
			}
		}
	}
}

// Compose returns the sequential composition r ; o.
func (r Rel) Compose(o Rel) Rel {
	c := New(r.n)
	c.ComposeInto(r, o)
	return c
}

// InverseInto overwrites r with a⁻¹. r must not alias a.
func (r Rel) InverseInto(a Rel) {
	r.check(a)
	if r.w == 1 && r.n > 0 {
		// Single-word rows: pad to a 64×64 bit matrix and transpose with
		// recursive block swaps (Hacker's Delight 7-3) — the off-diagonal
		// j×j quadrants of every 2j×2j block swap via masked shifts, so
		// the whole transpose is ~6·64 word ops regardless of density.
		var t [64]uint64
		copy(t[:], a.m)
		j := uint(32)
		m := uint64(0x00000000FFFFFFFF)
		for j != 0 {
			for k := 0; k < 64; k = (k + int(j) + 1) &^ int(j) {
				x := (t[k]>>j ^ t[k+int(j)]) & m
				t[k] ^= x << j
				t[k+int(j)] ^= x
			}
			j >>= 1
			m ^= m << j
		}
		copy(r.m, t[:r.n])
		return
	}
	r.ClearAll()
	for i := 0; i < a.n; i++ {
		row := a.m[i*a.w : (i+1)*a.w]
		for wi, w := range row {
			for w != 0 {
				j := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				r.m[j*r.w+i>>6] |= 1 << uint(i&63)
			}
		}
	}
}

// Inverse returns r⁻¹.
func (r Rel) Inverse() Rel {
	c := New(r.n)
	c.InverseInto(r)
	return c
}

// TransCloseIn replaces r with r⁺ (irreflexive transitive closure) in
// place: Floyd–Warshall where the inner loop is a whole-row OR, so each
// of the n² (k, i) steps costs n/64 word operations.
func (r Rel) TransCloseIn() {
	n, w := r.n, r.w
	if w == 1 {
		// Single-word rows: Warshall's update is one AND-test and one OR.
		for k := 0; k < n; k++ {
			kbit := uint64(1) << uint(k)
			krow := r.m[k]
			for i := 0; i < n; i++ {
				if r.m[i]&kbit != 0 {
					r.m[i] |= krow
				}
			}
		}
		return
	}
	for k := 0; k < n; k++ {
		krow := r.m[k*w : (k+1)*w]
		kw, kb := k>>6, uint(k&63)
		for i := 0; i < n; i++ {
			if r.m[i*w+kw]&(1<<kb) == 0 {
				continue
			}
			irow := r.m[i*w : (i+1)*w]
			for t, word := range krow {
				irow[t] |= word
			}
		}
	}
}

// TransClosure returns r⁺.
func (r Rel) TransClosure() Rel {
	c := r.Clone()
	c.TransCloseIn()
	return c
}

// ReflTransCloseIn replaces r with r* = r⁺ ∪ id in place.
func (r Rel) ReflTransCloseIn() {
	r.TransCloseIn()
	r.AddIdentity()
}

// ReflTransClosure returns r* = r⁺ ∪ id.
func (r Rel) ReflTransClosure() Rel {
	c := r.Clone()
	c.ReflTransCloseIn()
	return c
}

// CrossIn overwrites r with the set product a × b.
func (r Rel) CrossIn(a, b Bits) {
	if a.n != r.n || b.n != r.n {
		panic("rel: Cross on sets of different sizes")
	}
	if r.w == 1 && r.n > 0 {
		aw, bw := a.b[0], b.b[0]
		for i := 0; i < r.n; i++ {
			if aw&(1<<uint(i)) != 0 {
				r.m[i] = bw
			} else {
				r.m[i] = 0
			}
		}
		return
	}
	for i := 0; i < r.n; i++ {
		row := r.Row(i)
		if a.Has(i) {
			row.CopyFrom(b)
		} else {
			row.Reset()
		}
	}
}

// InterAloInto overwrites r with src ∩ ((s × ⊤) ∪ (⊤ × s)) — the pairs of
// src with at least one endpoint in s (Herd's "at least one" class
// filter), as a single fused row kernel. r may alias src.
func (r Rel) InterAloInto(src Rel, s Bits) {
	r.check(src)
	if s.n != r.n {
		panic(fmt.Sprintf("rel: size mismatch %d vs %d", r.n, s.n))
	}
	if r.w == 1 && r.n > 0 {
		sw := s.b[0]
		for i := 0; i < r.n; i++ {
			m := src.m[i]
			if sw&(1<<uint(i)) == 0 {
				m &= sw
			}
			r.m[i] = m
		}
		return
	}
	for i := 0; i < r.n; i++ {
		row, srow := r.Row(i), src.Row(i)
		if s.Has(i) {
			row.CopyFrom(srow)
		} else {
			row.CopyFrom(srow)
			row.AndIn(s)
		}
	}
}

// RestrictToIn keeps only pairs with both endpoints in s (r ∩= s × s).
func (r Rel) RestrictToIn(s Bits) {
	if s.n != r.n {
		panic(fmt.Sprintf("rel: size mismatch %d vs %d", r.n, s.n))
	}
	if r.w == 1 && r.n > 0 {
		sw := s.b[0]
		for i := 0; i < r.n; i++ {
			if sw&(1<<uint(i)) != 0 {
				r.m[i] &= sw
			} else {
				r.m[i] = 0
			}
		}
		return
	}
	for i := 0; i < r.n; i++ {
		row := r.Row(i)
		if s.Has(i) {
			row.AndIn(s)
		} else {
			row.Reset()
		}
	}
}

// Restrict keeps only pairs (i, j) with a[i] && b[j] (Herd's
// "r & (A * B)").
func (r Rel) Restrict(a, b []bool) Rel {
	return r.Inter(Cross(a, b))
}

// Sym returns r ∪ r⁻¹.
func (r Rel) Sym() Rel { return r.Union(r.Inverse()) }

// Empty reports whether the relation has no pairs.
func (r Rel) Empty() bool {
	for _, w := range r.m {
		if w != 0 {
			return false
		}
	}
	return true
}

// Acyclic reports whether the relation contains no cycle (including
// self-loops after closure).
func (r Rel) Acyclic() bool {
	c := r.TransClosure()
	for i := 0; i < c.n; i++ {
		if c.m[i*c.w+i>>6]&(1<<uint(i&63)) != 0 {
			return false
		}
	}
	return true
}

// ForEach calls f for every pair in row-major order.
func (r Rel) ForEach(f func(i, j int)) {
	for i := 0; i < r.n; i++ {
		row := r.m[i*r.w : (i+1)*r.w]
		for wi, w := range row {
			for w != 0 {
				f(i, wi<<6+bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
	}
}

// Pairs lists the relation's pairs in row-major order.
func (r Rel) Pairs() [][2]int {
	var out [][2]int
	r.ForEach(func(i, j int) { out = append(out, [2]int{i, j}) })
	return out
}

// AppendPairs appends the relation's pairs to buf in row-major order and
// returns it. Unlike Pairs/ForEach it involves no closure, so callers
// reusing buf across calls allocate nothing once it has grown.
func (r Rel) AppendPairs(buf [][2]int) [][2]int {
	for i := 0; i < r.n; i++ {
		row := r.m[i*r.w : (i+1)*r.w]
		for wi, w := range row {
			for w != 0 {
				buf = append(buf, [2]int{i, wi<<6 + bits.TrailingZeros64(w)})
				w &= w - 1
			}
		}
	}
	return buf
}

// Count returns the number of pairs.
func (r Rel) Count() int {
	c := 0
	for _, w := range r.m {
		c += bits.OnesCount64(w)
	}
	return c
}
